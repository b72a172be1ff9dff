"""Exception types shared across the toolkit."""


class ParamRomError(Exception):
    """Base class for toolkit errors."""


class SingularMatrixError(ParamRomError):
    """Factorization hit a pivot too small to trust."""


class SingularShiftError(ParamRomError):
    """The projected shifted system I - (mu - sigma) H_k of a Krylov sweep
    is singular: the evaluation point mu makes 1 / (mu - sigma) a Ritz
    value of the reduced system."""


class OutOfRangeError(ParamRomError, ValueError):
    """Evaluation requested outside the interpolation range / parameter box."""


class NoConvergenceError(ParamRomError):
    """An iterative process failed to meet its tolerance.

    Carries whatever partial result the caller can still use in the
    ``partial`` attribute (may be None).
    """

    def __init__(self, message, partial=None, detail=None):
        super().__init__(message)
        self.partial = partial
        self.detail = detail or {}


class AnchorOffGridError(ParamRomError, ValueError):
    """Requested cross anchors are not members of the equidistant grids."""


class NodeNotMemberError(ParamRomError, KeyError):
    """Requested node is not part of the sampled node set."""


class ZeroReferenceError(ParamRomError, ZeroDivisionError):
    """Relative error against a zero reference vector is undefined."""
