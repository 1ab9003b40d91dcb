"""Exception types shared across the package."""


class ContrastLabError(Exception):
    """Base class for every error raised by contrastlab."""


class ZeroVector(ContrastLabError):
    """A vector with (numerically) zero norm cannot be normalized."""


class NonFiniteVector(ContrastLabError):
    """A vector whose norm is not finite (NaN, inf, overflow) cannot be normalized."""


class InvalidTable(ContrastLabError):
    """A class-conditional table is not row-stochastic."""


class LabelMismatch(ContrastLabError):
    """A conditional puts probability mass outside its class's support."""


class PriorMismatch(ContrastLabError):
    """Class prior does not sum to one, or is inconsistent with tau_plus."""


class DegenerateClass(ContrastLabError):
    """An operation needs a nonempty complement class set (K >= 2)."""


class EmptyNegatives(ContrastLabError):
    """A contrastive loss needs at least one negative sample."""


class BudgetExceeded(ContrastLabError):
    """Exact enumeration would exceed the configured term budget."""


class OracleRangeExceeded(ContrastLabError):
    """The alternating-series oracle is only trusted for 1 <= N <= 8."""


class NegativeDenominator(ContrastLabError):
    """The un-clamped population denominator is not positive."""


class BatchTooSmall(ContrastLabError):
    """Batch construction needs at least two anchors."""


class DivergenceDetected(ContrastLabError):
    """Training produced a non-finite loss."""


class InsufficientGrid(ContrastLabError):
    """A rate fit needs >= 4 strictly increasing sizes spanning >= 2 decades."""


class BoundPreconditionViolated(ContrastLabError):
    """A bound was requested outside its validity range (e.g. N < K-1)."""


class SingleClassData(ContrastLabError):
    """Probe evaluation needs at least two classes present."""


class ConfigError(ContrastLabError):
    """Invalid experiment configuration (unknown key, bad value, ...)."""
