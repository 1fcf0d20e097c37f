"""Exception hierarchy.

Two branches matter to callers (and to the CLI exit codes): inputs that are
rejected before any numerics run (`ValidationError`, exit code 1) and
computations that cannot meet their contract (`NumericalError`, exit code 2).
"""


class PtLindError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PtLindError, ValueError):
    """Invalid input: bad parameters, malformed config, rejected operators."""


class ParseError(ValidationError):
    """A config file could not be read or is not valid JSON."""


class SchemaError(ValidationError):
    """A config violates the schema; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class NotUnitary(ValidationError):
    """An operator required to be unitary is not."""


class NotInvolution(ValidationError):
    """A candidate parity map does not square to the identity."""


class NumericalError(PtLindError):
    """A computation failed or an input matrix lacks a required property."""


class ConvergenceFailure(NumericalError):
    """The eigensolver did not converge; carries its diagnostics."""


class SectorNotInvariant(NumericalError):
    """Requested basis positions couple to the discarded ones beyond tolerance."""


class NoZeroMode(NumericalError):
    """No eigenvalue close enough to zero to define a steady state."""


class BracketInvalid(NumericalError):
    """Both ends of a bisection bracket are in the same spectral phase."""
