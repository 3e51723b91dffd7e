"""Simulation and security analysis of multiqubit quantum secret sharing."""

from . import attack, bell, dicke, protocol, qsim, rdm, states
from .errors import (
    BudgetExceeded,
    EmptySiftedSet,
    InternalInconsistency,
    InvalidArgument,
    InvalidDimension,
    InvalidState,
    QssError,
)

__all__ = [
    "attack",
    "bell",
    "dicke",
    "protocol",
    "qsim",
    "rdm",
    "states",
    "QssError",
    "InvalidArgument",
    "InvalidDimension",
    "InvalidState",
    "EmptySiftedSet",
    "BudgetExceeded",
    "InternalInconsistency",
]

__version__ = "0.1.0"
