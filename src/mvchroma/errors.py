"""Exception hierarchy shared across the package."""


class MvChromaError(Exception):
    """Base class for all library errors."""


class OutOfRangeVertexError(MvChromaError):
    pass


class SelfLoopError(MvChromaError):
    pass


class DisconnectedGraphError(MvChromaError):
    pass


class ColoringNotTotalError(MvChromaError):
    pass


class TooManyVariablesError(MvChromaError):
    pass


class FormulaSyntaxError(MvChromaError):
    pass


class ClauseArityError(FormulaSyntaxError):
    pass


class VariableOutOfRangeError(FormulaSyntaxError):
    pass


class InvalidParamsError(MvChromaError):
    pass


class SizeCapExceededError(InvalidParamsError):
    pass


class InvalidQuasiLeafError(InvalidParamsError):
    pass


class GapInputError(MvChromaError):
    """The closed-form value is not determined for this (r, t)."""


class NonNormalizedInputError(MvChromaError):
    pass


class PartialAssignmentError(MvChromaError):
    pass


class WrongColorCountError(MvChromaError):
    pass


class GraphFormatError(MvChromaError):
    pass


class BudgetExhaustedError(MvChromaError):
    """Search budget ran out; carries the best known bounds [lo, hi]."""

    def __init__(self, lo, hi, message=None):
        self.lo = lo
        self.hi = hi
        super().__init__(message or f"budget exhausted; bounds [{lo}, {hi}]")
