"""Exception hierarchy shared by all qss modules, and the seed check they share."""

import operator


class QssError(Exception):
    """Base class for all errors raised by qss."""


class InvalidArgument(QssError):
    """A parameter is outside its documented domain."""


class InvalidDimension(QssError):
    """Vector/matrix shape does not match the declared qubit count."""


class InvalidState(QssError):
    """A state object fails a physicality check (norm, hermiticity, PSD, trace)."""


class EmptySiftedSet(QssError):
    """A transcript contains no sifted rounds."""


class BudgetExceeded(QssError):
    """Requested computation exceeds a hard size cap."""


class InternalInconsistency(QssError):
    """A condition that should be impossible by construction was observed."""


def check_seed(seed) -> int:
    """``seed`` as an int: an integer (a numpy one too) of at least 0.
    Anything else is refused; a negative seed would give its absolute
    value's stream."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise InvalidArgument(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    return seed
