"""Exception taxonomy shared across the package."""


class KfepruneError(Exception):
    """Base class for all library errors."""


class DimensionError(KfepruneError):
    """Shapes of the inputs are incompatible with the operation."""


class ValidationError(KfepruneError):
    """Input values violate a precondition (non-finite, asymmetric, out of range)."""


class SingularityError(KfepruneError):
    """A linear solve or inversion failed beyond the ridge/damping rescue."""


class NumericError(KfepruneError):
    """A numeric quantity left its valid domain (NaN/Inf mid-computation)."""


class TrainingDivergenceError(KfepruneError):
    """Training loss became non-finite."""


class FormatError(KfepruneError):
    """A serialized file does not conform to its binary format."""


class StateError(KfepruneError):
    """An operation was called against stale or missing cached state."""
