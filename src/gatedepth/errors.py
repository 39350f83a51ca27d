"""Exception types shared across the package."""


class GatedDepthError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(GatedDepthError):
    """Bad or unknown key/value in a run configuration."""


class DataFormatError(GatedDepthError):
    """Malformed input file (CSV sample table, PGM image, model file)."""


class UnsupportedShapeError(GatedDepthError):
    """Operation requires rectangular pulse/gate shapes."""


class NoSignalError(GatedDepthError):
    """All intensities are zero; no depth information present."""


class DegenerateSampleError(GatedDepthError):
    """Sample has zero spread and cannot be standardized."""


class TrainingDivergedError(GatedDepthError):
    """Training produced non-finite losses or activations."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch
