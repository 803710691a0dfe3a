"""Exception types shared by all mukailab modules.

Domain errors always carry the name of the violated precondition so that
callers (and the command-line driver) can report machine-readable failures.
"""


class MukaiLabError(Exception):
    """Base class for all library errors."""


class PreconditionError(MukaiLabError):
    """A documented precondition of an operation was violated.

    ``precondition`` is a short kebab-case name, e.g. ``"even-rank"`` or
    ``"lattice-mismatch"``.
    """

    def __init__(self, precondition, message=""):
        self.precondition = precondition
        text = precondition if not message else "%s: %s" % (precondition, message)
        super().__init__(text)


class LatticeMismatchError(PreconditionError):
    def __init__(self, message="operands live on different lattices"):
        super().__init__("lattice-mismatch", message)


class ParseError(MukaiLabError):
    """Malformed JSON input (CLI exit code 2)."""


class InvariantError(MukaiLabError, AssertionError):
    """An internal invariant of a computation failed: a bug in mukailab,
    not a bad input (CLI exit code 3).  It is an AssertionError too, so
    callers that catch AssertionError keep working."""
