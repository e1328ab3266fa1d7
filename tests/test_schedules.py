import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgekit import DiffusivitySchedule


def quad_beta(schedule, t, panels=1_000_000):
    """Trapezoid quadrature of g_s^2: the independent oracle for cum_beta."""
    s = np.linspace(0.0, t, panels + 1)
    g2 = np.asarray(schedule.g(s), dtype=float) ** 2
    return float(np.trapezoid(g2, s))


def test_constant_beta_closed_form():
    assert DiffusivitySchedule.constant(1.0).cum_beta(0.5) == pytest.approx(0.5, abs=1e-15)
    assert DiffusivitySchedule.constant(2.0).cum_beta(0.25) == pytest.approx(1.0, abs=1e-15)


def test_piecewise_beta_matches_quadrature_oracle():
    sched = DiffusivitySchedule(g_values=(1.0, 2.0), breakpoints=(0.5,))
    # Frozen from the quadrature oracle: 1^2 * 0.5 + 2^2 * 0.25. The trapezoid
    # rule carries O(1/panels) error at the jump, so compare at that accuracy.
    assert sched.cum_beta(0.75) == pytest.approx(1.5, abs=1e-12)
    assert sched.cum_beta(0.75) == pytest.approx(quad_beta(sched, 0.75), rel=1e-5)


def test_constant_matches_quadrature_tightly():
    sched = DiffusivitySchedule.constant(1.7)
    for t in (0.1, 0.37, 0.9, 1.0):
        assert sched.cum_beta(t) == pytest.approx(quad_beta(sched, t), rel=1e-12)


def test_beta_zero_at_origin():
    for sched in (
        DiffusivitySchedule.constant(3.0),
        DiffusivitySchedule(g_values=(0.5, 1.5, 2.0), breakpoints=(0.3, 0.6)),
    ):
        assert sched.cum_beta(0.0) == 0.0


def schedules_and_times():
    """A piecewise-constant schedule and two times in [0, 1], subnormals included."""

    @st.composite
    def build(draw):
        g_values = draw(st.lists(st.floats(0.05, 10.0), min_size=1, max_size=4))
        raw_bps = draw(st.lists(st.floats(0.05, 0.95), min_size=0, max_size=3, unique=True))
        bps = tuple(sorted(raw_bps))[: len(g_values) - 1]
        sched = DiffusivitySchedule(g_values=tuple(g_values[: len(bps) + 1]), breakpoints=bps)
        t_lo, t_hi = sorted(draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))))
        return sched, t_lo, t_hi

    return build()


@given(case=schedules_and_times())
@settings(max_examples=200, deadline=None)
def test_beta_non_decreasing(case):
    # Every overlap with a segment is non-decreasing in t and their sum with
    # g^2 > 0 is taken in a fixed order, so this holds for the computed values.
    sched, t_lo, t_hi = case
    assert sched.cum_beta(t_lo) <= sched.cum_beta(t_hi)


@given(case=schedules_and_times())
@settings(max_examples=200, deadline=None)
def test_beta_strictly_increasing(case):
    # beta(t_hi) - beta(t_lo) >= (t_hi - t_lo) min(g)^2 in exact arithmetic,
    # and each computed beta is off by a few ulps at most; so the increase
    # shows wherever that bound exceeds 16 ulps of beta(t_hi). Closer times
    # may round to one beta (see the subnormal case below).
    sched, t_lo, t_hi = case
    beta_hi = sched.cum_beta(t_hi)
    if (t_hi - t_lo) * min(sched.g_values) ** 2 <= 16 * np.spacing(beta_hi):
        return
    assert sched.cum_beta(t_lo) < beta_hi


def test_beta_of_smallest_subnormal_time_rounds_to_zero():
    sched = DiffusivitySchedule.constant(0.5)
    assert sched.cum_beta(5e-324) == sched.cum_beta(0.0) == 0.0


def test_vectorized_beta():
    sched = DiffusivitySchedule(g_values=(1.0, 2.0), breakpoints=(0.5,))
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(sched.cum_beta(t), [0.0, 0.25, 0.5, 1.5, 2.5], atol=1e-15)


def test_time_domain_errors():
    sched = DiffusivitySchedule.constant(1.0)
    with pytest.raises(ValueError):
        sched.cum_beta(-0.1)
    with pytest.raises(ValueError):
        sched.cum_beta(1.0001)


def test_schedule_validation():
    for g in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            DiffusivitySchedule(g_values=(g,))
    with pytest.raises(ValueError):
        DiffusivitySchedule(g_values=(1.0, 2.0), breakpoints=())
    with pytest.raises(ValueError):
        DiffusivitySchedule(g_values=(1.0, 2.0), breakpoints=(1.5,))
    with pytest.raises(ValueError):
        DiffusivitySchedule(g_values=(1.0, 2.0, 3.0), breakpoints=(0.7, 0.3))


def test_g_lookup_right_continuous():
    sched = DiffusivitySchedule(g_values=(1.0, 2.0), breakpoints=(0.5,))
    np.testing.assert_allclose(sched.g(np.array([0.0, 0.49, 0.5, 1.0])), [1, 1, 2, 2])


def test_schedule_dict_round_trip():
    sched = DiffusivitySchedule(g_values=(1.0, 2.5), breakpoints=(0.4,))
    again = DiffusivitySchedule.from_dict(sched.to_dict())
    assert again == sched
