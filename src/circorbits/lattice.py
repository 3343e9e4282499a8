"""The integer lattice of closed-walk lengths and b-counts.

Closed walks of length l and b-count k on C_n(a, b) exist exactly when
l*a + k*d = omega*n for some integer winding number omega (d = b - a).
The solution set is a rank-2 sublattice of Z^2; this module computes a
basis for it, the exact inverse matrix sending lattice points to integer
coordinates, and the admissible orbit classes with 0 <= k <= l, l >= 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvariantViolated, NotLatticePoint, RejectedParameters
from .graph import CirculantGraph


class OrbitClass(NamedTuple):
    """An admissible (length, b-count, winding number) triple."""

    l: int
    k: int
    omega: int


class LatticeBasis(NamedTuple):
    """Basis (d', -a'), (l0, k0) of the solution lattice, with its inverse matrix.

    a' = a/g and d' = d/g, and l0*a + k0*d = g*n. The inverse of the column
    matrix [(d', l0), (-a', k0)] is (1/n) * [(k0, -l0), (a', d')]; it is
    stored as integer numerators over the denominator n so coordinate maps
    stay exact.
    """

    n: int
    a_prime: int
    d_prime: int
    l0: int
    k0: int

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
    if l < 1:
        raise RejectedParameters(f"length must be >= 1, got {l}")
    lo = -(-l * G.a // G.n)
    hi = l * G.b // G.n
    return lo, hi


def bcounts_for_length(G: CirculantGraph, l: int) -> list[OrbitClass]:
    """All admissible orbit classes of length l, sorted by winding number.

    The b-count is integral when omega*n = l*a (mod d). With h = gcd(n, d)
    that needs h | l (a connected graph has gcd(h, a) = 1), and then only
    one residue class of omega mod d/h, the one walked here.
    """
    G.require_connected()
    lo, hi = winding_bounds(G, l)
    n, a, d, g = G.n, G.a, G.d, G.g
    h = math.gcd(n, d)
    if l % h:
        return []
    step = d // h
    first = (l * a // h) * pow(n // h, -1, step) % step
    out = []
    for omega in range(lo + (first - lo) % step, hi + 1, step):
        k, rest = divmod(omega * n - l * a, d)
        if rest or not 0 <= k <= l or omega % g:
            raise InvariantViolated(f"winding {omega} of l={l} on C_{n}({a},{G.b}) is not a class")
        out.append(OrbitClass(l, k, omega))
    return out


def skipped_windings(G: CirculantGraph, l: int) -> list[int]:
    """Winding numbers in range for length l whose b-count is not an integer."""
    lo, hi = winding_bounds(G, l)
    return [w for w in range(lo, hi + 1) if (w * G.n - l * G.a) % G.d]


def lattice_points(G: CirculantGraph, l_max: int) -> list[OrbitClass]:
    """All admissible orbit classes with 1 <= l <= l_max."""
    G.require_connected()
    if l_max < 1:
        raise RejectedParameters(f"l_max must be >= 1, got {l_max}")
    out = []
    for l in range(1, l_max + 1):
        out.extend(bcounts_for_length(G, l))
    return out
