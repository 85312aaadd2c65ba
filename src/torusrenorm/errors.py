"""Exception types shared across the package."""


class ZeroInput(ValueError):
    """Gauss map evaluated at x <= 0."""


class PoleAtInput(ZeroDivisionError):
    """Moebius action evaluated at the pole a + b*alpha = 0."""


class PrecisionExhausted(ArithmeticError):
    """A high-precision real cannot certify the next continued-fraction digit."""


class IndexOutOfRange(IndexError):
    """Requested index beyond the certified part of an expansion."""


class ConeViolation(ValueError):
    """A Fourier mode escapes the contracting cone ||T*k|| <= kappa*||k||.

    Raised instead of silently dropping the mode: dropping would fake
    convergence of the rescaled field.
    """


class DomainError(ValueError):
    """Width parameters violate kappa*rho < rho'."""


class SingularJacobian(ArithmeticError):
    """det DU is numerically zero at some collocation point."""


class NoConvergence(RuntimeError):
    """Newton iteration stalled above tolerance."""


class DomainExceeded(RuntimeError):
    """Renormalisation step rejected: field outside the operator's domain ball."""

    def __init__(self, message, step=None, norm=None, bound=None):
        super().__init__(message)
        self.step = step
        self.norm = norm
        self.bound = bound


class ConfigInvalid(ValueError):
    """Scenario configuration is malformed or incomplete."""
