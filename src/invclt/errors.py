"""Exception hierarchy shared by all invclt modules.

One class per failure exit code of the CLI (``cli.main``): every raise of
the package uses one of the three leaves, so their handlers are the whole
error contract.
"""


class InvcltError(Exception):
    """Base class for all invclt errors."""


class InputError(InvcltError):
    """Malformed, unreadable or out-of-range input, including an ``n``
    beyond an enumeration or table cap (CLI exit code 2)."""


class DegenerateArray(InvcltError):
    """sigma^2 is (numerically) zero: no nonzero centered entry exists
    (CLI exit code 3)."""


class NoCaseMatched(InvcltError):
    """No rewiring case matched; the ten cases are exhaustive, so this
    indicates an implementation bug (CLI exit code 4)."""
