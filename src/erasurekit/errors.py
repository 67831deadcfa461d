"""Exception types raised across the package.

Every error carries a human-readable message naming the violated constraint
and, where meaningful, the size of the violation; the CLI maps any of these
to exit code 1 with the class name in the diagnostic.
"""


class ErasureKitError(Exception):
    """Base class for all erasurekit errors."""


class NotFinite(ErasureKitError):
    """Input contains NaN or Inf entries."""


class DimensionMismatch(ErasureKitError):
    """Shapes or dimensions are incompatible."""


class NotPSD(ErasureKitError):
    """Matrix is not positive semidefinite within tolerance."""


class NotDensity(ErasureKitError):
    """Matrix is not a valid density matrix (Hermitian, PSD, unit trace)."""


class NotTracePreserving(ErasureKitError):
    """Kraus operators fail the completeness relation."""

    def __init__(self, deviation: float):
        self.deviation = float(deviation)
        super().__init__(
            f"Kraus completeness violated: max deviation {self.deviation:.3e}"
        )


class NotIsometry(ErasureKitError):
    """Mixing matrix columns are not orthonormal."""


class NotNormalized(ErasureKitError):
    """Probabilities do not sum to one (or go negative) within tolerance."""


class DivergentRelativeEntropy(ErasureKitError):
    """D(r||s) diverges: some s(k) = 0 while r(k) > 0."""


class BetaZero(ErasureKitError):
    """A weight that must be strictly positive is zero."""


class UnknownPreset(ErasureKitError):
    """Channel preset name not recognized."""


class ParamOutOfRange(ErasureKitError):
    """Preset parameter outside its valid range (or unexpected)."""


class InsufficientFrame(ErasureKitError):
    """Too few frame vectors (or a rank-deficient frame) for reconstruction."""


class SingularAverage(ErasureKitError):
    """Frame vectors that do not cover the support of the state."""


class EnsembleMismatch(ErasureKitError):
    """Ensemble members do not sum to the declared average state."""


class BadOutcomeCount(ErasureKitError):
    """Requested fewer measurement outcomes than Kraus operators."""


class UnknownScenario(ErasureKitError):
    """Scenario name not recognized."""
