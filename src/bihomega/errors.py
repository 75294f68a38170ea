"""Exception hierarchy shared across the library."""


class BihomegaError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(BihomegaError):
    """Dimensions of two objects are incompatible."""


class Singular(BihomegaError):
    """A matrix that must be invertible is not.

    When raised for a structure-map family, `index` names the semigroup
    element whose matrix failed to invert.
    """

    def __init__(self, message: str, index: str | None = None):
        super().__init__(message)
        self.index = index


class NonCommutingStructureMaps(BihomegaError):
    """p and q fail to commute at some index."""

    def __init__(self, index: str):
        super().__init__(f"structure maps p and q do not commute at index {index!r}")
        self.index = index


class NonCommutingFamilies(BihomegaError):
    """Two linear families required to commute do not."""

    def __init__(self, names: tuple[str, str], indices: tuple[str, str]):
        (a, b), (i, j) = names, indices
        super().__init__(f"families {a} and {b} do not commute: "
                         f"{a} at {i!r} with {b} at {j!r}")
        self.names = names
        self.indices = indices


class NonCommutativeOmega(BihomegaError):
    """A checker or construction needs a commutative index semigroup."""


class IllTypedTerm(BihomegaError):
    """A term adds, or an axiom compares, vectors that sit at different
    indices of the semigroup."""


class KindMismatch(BihomegaError):
    """An instance of the wrong structure class was supplied."""


class NonzeroWeight(BihomegaError):
    """A construction defined only for weight 0 got a nonzero weight."""


class CheckFailed(BihomegaError):
    """A checker rejected a construction's input or output; `report`, when
    given, is that checker's report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class PreconditionCheckFailed(CheckFailed):
    """A construction's input failed its checker."""


class MorphismCheckFailed(PreconditionCheckFailed):
    """A map family required to be a morphism is not."""


class PostconditionCheckFailed(CheckFailed):
    """A construction's output failed its target checker."""


class ConditionViolated(BihomegaError):
    """A parameter tuple violates a displayed side-condition."""

    def __init__(self, condition: str, indices: tuple[str, ...]):
        super().__init__(f"condition {condition!r} fails at indices {indices}")
        self.condition = condition
        self.indices = indices


class BudgetExceeded(BihomegaError):
    """A brute-force search space is larger than the configured budget."""

    def __init__(self, space: int, budget: int):
        super().__init__(f"search space of {space} candidates exceeds budget {budget}")
        self.space = space
        self.budget = budget


class ParseError(BihomegaError):
    """Syntax error in workspace text; positions are 1-based.  The message
    quotes at most QUOTED characters of the token found; `found` keeps
    all of it."""

    QUOTED = 64

    def __init__(self, line: int, column: int, expected: str, found: str):
        more = len(found) - self.QUOTED
        super().__init__(f"{line}:{column}: expected {expected}, found "
                         f"{found[:self.QUOTED]!r}"
                         + (f" and {more} more characters" if more > 0 else ""))
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found


class NumberTooLong(BihomegaError):
    """A number to be written has more digits than Python prints, which
    is as many as the workspace parser reads back."""


class ResolutionError(BihomegaError):
    """A workspace reference does not resolve (dangling name, bad dims)."""
