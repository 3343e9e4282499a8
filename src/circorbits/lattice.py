"""The integer lattice of closed-walk lengths and b-counts.

Closed walks of length l and b-count k on C_n(a, b) exist exactly when
l*a + k*d = omega*n for some integer winding number omega (d = b - a).
The solution set is a rank-2 sublattice of Z^2; this module computes a
basis for it, the exact inverse matrix sending lattice points to integer
coordinates, and the admissible orbit classes with 0 <= k <= l, l >= 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

from .errors import InvariantViolated, NotLatticePoint, RejectedParameters
from .graph import CirculantGraph
from .words import check_lk


OrbitClass = namedtuple("OrbitClass", "l k omega")
OrbitClass.__doc__ = "An admissible (length, b-count, winding number) triple."


class LatticeBasis(namedtuple("LatticeBasis", "n a_prime d_prime l0 k0")):
    """Basis (d', -a'), (l0, k0) of the solution lattice, with its inverse matrix.

    a' = a/g and d' = d/g, and l0*a + k0*d = g*n. The inverse of the column
    matrix [(d', l0), (-a', k0)] is (1/n) * [(k0, -l0), (a', d')]; it is
    stored as integer numerators over the denominator n so coordinate maps
    stay exact.
    """

    __slots__ = ()

    def to_coords(self, l: int, k: int) -> tuple[int, int]:
        """Map a lattice point (l, k) to its integer coordinates (x, y); y = omega/g."""
        xn = l * self.k0 - k * self.l0
        yn = l * self.a_prime + k * self.d_prime
        if yn % self.n or xn % self.n:
            raise NotLatticePoint(
                f"({l}, {k}) is not in the solution lattice (mod {self.n})"
            )
        return xn // self.n, yn // self.n

    def from_coords(self, x: int, y: int) -> tuple[int, int]:
        """Inverse of to_coords: (l, k) = x*(d', -a') + y*(l0, k0)."""
        return x * self.d_prime + y * self.l0, -x * self.a_prime + y * self.k0


def basis(G: CirculantGraph) -> LatticeBasis:
    """Lattice basis for C_n(a, b), normalized so 0 <= l0 < d' (l0 = 0 when d' = 1)."""
    G.require_connected()
    g = G.g
    a_prime = G.a // g
    d_prime = G.d // g
    # The least l0 >= 0 with a'*l0 = n (mod d'), so that a'*l0 + d'*k0 = n
    # and l0*a + k0*d = g*n; gcd(a', d') = 1 makes a' invertible mod d'.
    l0 = G.n * pow(a_prime, -1, d_prime) % d_prime
    k0, rest = divmod(G.n - a_prime * l0, d_prime)
    if rest:
        raise InvariantViolated(f"basis ({l0}, {k0}) fails for C_{G.n}({G.a},{G.b})")
    return LatticeBasis(G.n, a_prime, d_prime, l0, k0)


def winding_bounds(G: CirculantGraph, l: int) -> tuple[int, int]:
    """Inclusive winding-number range [ceil(l*a/n), floor(l*b/n)] for length l."""
    check_lk(l, 0)
    lo = -(-l * G.a // G.n)
    hi = l * G.b // G.n
    return lo, hi


def _classes(G: CirculantGraph, lengths: range) -> Iterator[OrbitClass]:
    """The admissible orbit classes of each length in `lengths`, in order.

    k solves l*a + k*d = 0 (mod n) with 0 <= k <= l, and omega grows with k.
    With h = gcd(n, d) that needs h | l; then k runs over the one residue class
    -(l/h)*a*(d/h)^-1 mod n/h (all of them: connected means gcd(h, a) = 1).
    h and the inverse are computed once for all the lengths.
    """
    n, a, d, g = G.n, G.a, G.d, G.g
    h = math.gcd(n, d)
    step = n // h
    first = -a * pow(d // h, -1, step) % step  # the b-counts at l = h, mod step
    for l in lengths:
        if l % h:
            continue
        for k in range(l // h * first % step, l + 1, step):
            omega, rest = divmod(l * a + k * d, n)
            if rest or omega % g:
                raise InvariantViolated(f"b-count {k} of l={l} on C_{n}({a},{G.b}) is not a class")
            yield OrbitClass(l, k, omega)


def bcounts_for_length(G: CirculantGraph, l: int) -> list[OrbitClass]:
    """All admissible orbit classes of length l, sorted by winding number."""
    G.require_connected()
    check_lk(l, 0)
    return list(_classes(G, range(l, l + 1)))


def skipped_windings(G: CirculantGraph, l: int) -> list[int]:
    """Winding numbers in range for length l whose b-count is not an integer."""
    lo, hi = winding_bounds(G, l)
    return [w for w in range(lo, hi + 1) if (w * G.n - l * G.a) % G.d]


def lattice_points(G: CirculantGraph, l_max: int) -> list[OrbitClass]:
    """All admissible orbit classes with 1 <= l <= l_max."""
    G.require_connected()
    if l_max < 1:
        raise RejectedParameters(f"l_max must be >= 1, got {l_max}")
    return list(_classes(G, range(1, l_max + 1)))
