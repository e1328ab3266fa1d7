"""bridgekit: learn SDE drifts from aligned sample pairs and simulate them.

Given i.i.d. pairs (x0_i, x1_i) of a coupling, the trainer regresses a drift
network plus an endpoint-score correction against the drift of the diffusion
pinned at both endpoints. The learned drift transports new points through
plain Euler-Maruyama simulation and can be exported on its own as a
data-informed reference process. Metrics (multi-scale MMD, entropic transport
cost, RMSD, mean-shift distance) quantify distributional and alignment
quality.
"""

import os as _os
import sys as _sys

# BRIDGEKIT_THREADS caps BLAS through the variables BLAS reads once, when
# numpy loads it; so it must be applied before the first numpy import, and it
# cannot cap a numpy that is already loaded.
if "BRIDGEKIT_THREADS" in _os.environ and "numpy" not in _sys.modules:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["BRIDGEKIT_THREADS"])

__version__ = "0.1.22"

from .csvio import (
    read_cloud,
    read_pairs,
    read_trajectories,
    write_cloud,
    write_pairs,
    write_trajectories,
)
from .datasets import AlignedDataset, generate_gauss_pairs, generate_moon, generate_t
from .metrics import DEFAULT_MMD_SCALES, SinkhornResult, mmd, ps_l2, rmsd, sinkhorn_w
from .nets import DoobNet, DriftNet, MlpSpec, time_embed
from .optim import AdamW, EmaTracker
from .sde import (
    BridgeSingularityError,
    DiffusivitySchedule,
    TimeGrid,
    TrajectoryBatch,
    bridge_drift_target,
    bridge_marginal_moments,
    bridge_marginal_sample,
    estimate_h_mc,
    simulate_conditioned,
    simulate_sde,
)
from .serialize import LoadedModel, load_model, save_model
from .training import (
    LossBreakdown,
    TrainConfig,
    TrainResult,
    export_drift,
    loss_batch,
    parse_config,
    sample_training_batch,
    train,
)

__all__ = [
    "AdamW",
    "AlignedDataset",
    "BridgeSingularityError",
    "DEFAULT_MMD_SCALES",
    "DiffusivitySchedule",
    "DoobNet",
    "DriftNet",
    "EmaTracker",
    "LoadedModel",
    "LossBreakdown",
    "MlpSpec",
    "SinkhornResult",
    "TimeGrid",
    "TrainConfig",
    "TrainResult",
    "TrajectoryBatch",
    "bridge_drift_target",
    "bridge_marginal_moments",
    "bridge_marginal_sample",
    "estimate_h_mc",
    "export_drift",
    "generate_gauss_pairs",
    "generate_moon",
    "generate_t",
    "load_model",
    "loss_batch",
    "mmd",
    "parse_config",
    "ps_l2",
    "read_cloud",
    "read_pairs",
    "read_trajectories",
    "rmsd",
    "sample_training_batch",
    "save_model",
    "simulate_conditioned",
    "simulate_sde",
    "sinkhorn_w",
    "time_embed",
    "train",
    "write_cloud",
    "write_pairs",
    "write_trajectories",
]
