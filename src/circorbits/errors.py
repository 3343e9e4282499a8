"""Exception types shared across the package.

Each maps to a stable CLI exit code: parameter problems (RejectedParameters,
NotLatticePoint, plain ValueError) exit 2, DisconnectedGraph exits 3,
BudgetExceeded exits 4 and InvariantViolated exits 5.
"""


class CircorbitsError(Exception):
    """Base class for all package-specific errors."""


class RejectedParameters(CircorbitsError, ValueError):
    """Graph or command parameters violate a structural constraint."""


class DisconnectedGraph(CircorbitsError):
    """Operation requires a strongly connected graph (gcd(n, a, b) = 1)."""


class NotLatticePoint(CircorbitsError, ValueError):
    """(l, k) does not satisfy l*a + k*(b-a) = omega*n for any integer omega."""


class DoesNotClose(CircorbitsError, ValueError):
    """A step word does not return to its start vertex (n does not divide the transit distance)."""


class BudgetExceeded(CircorbitsError, RuntimeError):
    """Requested enumeration is larger than the configured work budget."""


class InvariantViolated(CircorbitsError):
    """An internal consistency check failed (a bug, not a bad input); raised even under python -O."""
