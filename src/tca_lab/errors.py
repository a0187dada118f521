"""Exception types shared across the package."""


class TcaLabError(Exception):
    """Base class for errors raised by this package."""


class NonSymmetricInputError(TcaLabError):
    """A polynomial expected to be symmetric under variable permutations is not."""


class NegativeMultiplicityError(TcaLabError):
    """A Schur-basis expansion produced a negative coefficient where a genuine
    character was expected."""


class SearchBudgetExceededError(TcaLabError):
    """A bounded search visited more states than its budget allows.

    Deliberately distinct from a definitive negative answer: the caller may
    retry with a larger budget.
    """

    def __init__(self, budget, message=None):
        self.budget = budget
        super().__init__(message or f"search budget of {budget} states exhausted")


class IndexTooSmallError(TcaLabError):
    """A family member was requested below the smallest defined index."""


class DegreeOverflowError(TcaLabError):
    """A computation would exceed its configured degree bound."""


class NonSymmetricCharacterError(TcaLabError):
    """A computed character failed a Weyl-symmetry cross-check; this signals a
    bug in the homology engine, not bad user input."""


class ParseError(TcaLabError):
    """Malformed textual input, with position information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)
