"""Exception taxonomy.

Two broad families, which the CLI maps to exit codes:

* ``ValidationError`` -- the input itself is malformed (bad dimensions,
  broken invariants, unreadable files).  Exit code 2.
* ``NumericalError`` -- the input is well-formed but the requested
  computation is numerically impossible (singular covariance, degenerate
  pushforward, unbounded objective).  Exit code 3.
"""


class TransriskError(Exception):
    """Base class for all library errors."""


class ValidationError(TransriskError):
    """Malformed input: dimensions, invariants, schemas."""


class NumericalError(TransriskError):
    """Well-formed input on which the computation degenerates."""


# --- validation -------------------------------------------------------

class DimensionMismatch(ValidationError):
    pass


class AsymmetricCovariance(ValidationError):
    pass


class NotPositiveSemidefinite(ValidationError):
    pass


class NonpositiveLambda(ValidationError):
    pass


class EmptySample(ValidationError):
    pass


class SizeMismatch(ValidationError):
    pass


class EmptyIntermediateSet(ValidationError):
    pass


class NegativeRisk(ValidationError):
    pass


class InconsistentAugmentation(ValidationError):
    pass


class OrderZero(ValidationError):
    pass


class OrderCapExceeded(ValidationError):
    pass


class DegeneratePath(ValidationError):
    pass


class WindowTooLong(ValidationError):
    pass


class InsufficientHistory(ValidationError):
    pass


class NotOneDimensional(ValidationError):
    pass


class NonPSDSigma(ValidationError):
    pass


class SpecFileError(ValidationError):
    """Task-spec document failed schema validation."""


# --- numerical --------------------------------------------------------

class SingularInputCovariance(NumericalError):
    pass


class SingularReference(NumericalError):
    pass


class DegeneratePushforward(NumericalError):
    pass


class SingularIntermediateCovariance(NumericalError):
    pass


class DegenerateVariance(NumericalError):
    pass


class ZeroVariancePortfolio(NumericalError):
    pass
