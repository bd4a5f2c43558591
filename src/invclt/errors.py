"""Exception hierarchy shared by all invclt modules."""


class InvcltError(Exception):
    """Base class for all invclt errors."""


class InputError(InvcltError):
    """Malformed or unreadable input (CLI exit code 2)."""


class NonFinite(InputError):
    """Matrix contains NaN or infinite entries."""


class OddDimension(InputError):
    """n is odd: there is no fixed-point-free involution on an odd set."""


class DimensionTooSmall(InputError):
    """n < 4: the variance formula needs n - 3 > 0."""


class AsymmetryExceedsTolerance(InputError):
    """Matrix asymmetry or diagonal magnitude exceeds the declared tolerance."""


class DegenerateArray(InvcltError):
    """sigma^2 is (numerically) zero: no nonzero centered entry exists
    (CLI exit code 3)."""


class CapExceeded(InvcltError):
    """Requested exact enumeration or table beyond the configured cap."""


class NoCaseMatched(InvcltError):
    """No rewiring case matched; the ten cases are exhaustive, so this
    indicates an implementation bug (CLI exit code 4)."""


class EmptySample(InputError):
    """Empirical CDF requested for an empty sample."""


class InvalidP(InputError):
    """L^p order outside [1, inf]."""
