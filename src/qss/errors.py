"""Exception hierarchy shared by all qss modules."""


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
