"""Exception hierarchy shared by the whole package.

Every error is a :class:`UserError` (bad input: the command line exits
2), a :class:`ResourceError` (a bound was hit: exit 3), or neither, which
marks a broken internal invariant (exit 4).
"""


class SyncReactError(Exception):
    """Base class for all errors raised by this package."""


class UserError(SyncReactError):
    """The input is malformed, ill-typed or outside an analysis's preconditions."""


class ResourceError(SyncReactError):
    """A state, step or size bound was exceeded before an answer was found."""


class UnknownSymbol(UserError):
    pass


class UnknownState(UserError):
    pass


class SignatureMismatch(UserError):
    """Two systems were combined whose input/output alphabets do not line up."""


class NotReactive(UserError):
    """An operation that requires a reactive state was given a non-reactive one."""


class PreconditionFailed(UserError):
    pass


class FormatError(UserError):
    """Malformed `.sls` or `.psy` text; carries file/line context in the message."""


class PsySyntaxError(UserError):
    """Concrete-syntax error in a `.psy` program, with line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class PsyTypeError(UserError):
    """A typing rule was violated; the message names the rule."""


class StateBudgetExceeded(ResourceError):
    def __init__(self, bound: int):
        super().__init__(f"state budget of {bound} states exceeded")
        self.bound = bound


class LevelBoundExceeded(ResourceError):
    def __init__(self, bound: int):
        super().__init__(f"level walk exceeded its bound of {bound} levels")
        self.bound = bound


class PeriodBoundExceeded(ResourceError):
    def __init__(self, bound: int):
        super().__init__(f"combined orbit period exceeded its bound of {bound} levels")
        self.bound = bound


class SeparatorBoundExceeded(ResourceError):
    def __init__(self, bound: int):
        super().__init__(f"separator search exceeded its bound of {bound} pending words")
        self.bound = bound


class NonFiniteIntRange(UserError):
    """An integer variable has no declared finite range."""


class IntRangeExceeded(UserError):
    """A program assigned an integer outside its declared range."""


class RoundDivergence(ResourceError):
    """A program ran for too many reduction steps without reaching a tick."""


class BuildError(UserError):
    """A program cannot be realized as a finite synchronous system."""
