"""Exception types shared across the package.

Validation failures (bad modulus, shapes, parameter combinations) are
the four ValueError subclasses below; a refusal of work whose size
exceeds a fixed cap is a CostGuardError, the one cost guard.  The CLI
maps the first family to exit code 2 and the guard to exit code 3.
Any other ValueError is a bug, and the CLI lets it propagate.
"""


class InvalidModulusError(ValueError):
    """Modulus is not a prime in the supported range."""


class ShapeError(ValueError):
    """Matrix or vector has the wrong shape for the operation."""


class DomainError(ValueError):
    """Entries lie outside the operation's domain."""


class InvalidParamsError(ValueError):
    """Parameter combination is invalid (e.g. odd number of points to pair)."""


class CostGuardError(RuntimeError):
    """Predicted work size exceeds a hard cost cap."""
