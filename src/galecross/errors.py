"""Exception taxonomy shared by the whole package.

The CLI maps these onto its exit codes: InvalidInputError -> 2, the two
invariant-breach errors -> 3, anything else bubbling up -> a plain traceback.
"""


class GalecrossError(Exception):
    """Base class for all package errors."""


class InvalidInputError(GalecrossError):
    """Malformed input, violated precondition, or exceeded budget."""


class RetryLimitError(InvalidInputError):
    """Random generation exhausted its retry budget (range too small for n)."""


class TheoremViolationError(GalecrossError):
    """A search that a theorem guarantees to succeed came up empty.

    Signals degenerate input slipping through or an implementation bug; the CLI
    emits a reproduction bundle when this reaches it.
    """


class SearchIncompleteError(GalecrossError):
    """A search of the candidate family came up empty where no theorem
    promises a result: a ham sandwich cut for classes that need not cover
    every label, or for part sizes that need not be proper. Also raised when
    a schedule's separations are not all distinct."""
