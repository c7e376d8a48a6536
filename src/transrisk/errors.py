"""The two library exceptions, one per CLI exit code.

* ``ValidationError`` -- the input is ill-posed: bad dimensions, broken
  invariants (a covariance that is not PSD), unreadable or schema-invalid
  files.  Exit code 2.
* ``NumericalError`` -- the input is well-posed but the problem
  degenerates: a singular Σ_X has no optimal model, a degenerate
  pushforward has no KL, a Sharpe objective is unbounded.  Exit code 3.

Every ``raise`` in the package names one of the two, and the message
says which check failed.
"""


class ValidationError(Exception):
    """Ill-posed input: dimensions, invariants, schemas.  Exit code 2."""


class NumericalError(Exception):
    """Well-posed input on which the computation degenerates.  Exit code 3."""
