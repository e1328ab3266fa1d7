"""Exception hierarchy shared across the package."""


class BridgekitError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(BridgekitError):
    """Command-line arguments the parser accepts but the command cannot use."""


class DataError(BridgekitError):
    """Malformed or incompatible input data (files, shapes, configs)."""


class ConfigError(DataError):
    """Bad training-config content: unknown, missing, or unparsable keys."""


class NumericsError(BridgekitError):
    """A numerical failure: non-finite values where finite ones are required."""


class ModelFormatError(DataError):
    """A model file that cannot be decoded."""


class VersionError(ModelFormatError):
    """Model file carries an unsupported format version."""


class ChecksumError(ModelFormatError):
    """Model file payload does not match its checksum."""
