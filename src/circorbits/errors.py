"""Exception types shared across the package.

Each refusal type carries its stable CLI exit code as `exit_code`: parameter
problems exit 2 (as does a plain ValueError, which has no attribute), a
disconnected graph 3, an exceeded budget 4 and a violated invariant 5.
"""


class CircorbitsError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class RejectedParameters(CircorbitsError, ValueError):
    """Graph or command parameters violate a structural constraint."""


class DisconnectedGraph(CircorbitsError):
    """Operation requires a strongly connected graph (gcd(n, a, b) = 1)."""

    exit_code = 3


class NotLatticePoint(CircorbitsError, ValueError):
    """No integer omega has l*a + k*(b-a) = omega*n; no word of length l and b-count k closes."""


class BudgetExceeded(CircorbitsError, RuntimeError):
    """Requested enumeration or binomial sum is larger than the configured work budget."""

    exit_code = 4


class InvariantViolated(CircorbitsError):
    """An internal consistency check failed (a bug, not a bad input); raised even under python -O."""

    exit_code = 5
