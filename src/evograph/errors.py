"""Exception hierarchy shared across the package."""


class EvographError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(EvographError, ValueError):
    """Shapes or axes are inconsistent with the operation's contract."""


class SequenceTooShortError(DimensionError):
    """A temporal operation received fewer time steps than it needs."""


class NonFiniteError(EvographError, ValueError):
    """An input that must be finite holds NaN or infinity."""


class ContractError(EvographError, RuntimeError):
    """An internal precondition was violated by the caller."""


class ConfigurationError(EvographError, ValueError):
    """A model/training/data configuration is invalid."""


class LoadError(EvographError, ValueError):
    """A file could not be parsed into a dataset or checkpoint."""


class UndefinedMetricError(EvographError, ValueError):
    """A metric's denominator is identically zero for this batch."""


class TrainingAbortedError(EvographError, RuntimeError):
    """Training hit a non-recoverable numerical failure (NaN loss)."""
