"""Closed-form counts of primitive periodic orbits.

Two equivalent routes are implemented. The reduced formula counts orbits
of length l and b-count k as (n/l) * sum of mu(m)*C(l/m, k/m) over the
common divisors m of l, k and the winding number. The unreduced formula
splits the same count over word repetition numbers q coprime to the
winding number, one Lyndon-word block per q as in sum_reduction_check.
Both take their terms from `words._moebius_binomials`; the oracle checks both.

All arithmetic keeps the signed divisor sum as an exact integer, then
multiplies by n and divides by l; integrality of that final division is
checked, never assumed (InvariantViolated, also under python -O).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Mapping

from .errors import InvariantViolated, NotLatticePoint
from .graph import CirculantGraph
from .lattice import _classes
from .numtheory import block_divisors
from .words import _moebius_binomials, charged, check_lk, decompose


CountTerm = namedtuple("CountTerm", "m mu binomial q", defaults=(None,))
CountTerm.__doc__ = "One signed binomial contribution; q is the repetition block (unreduced only)."

# The count field shadows tuple.count.
OrbitCountReport = namedtuple("OrbitCountReport", "l k omega count terms")
OrbitCountReport.__doc__ = (
    "A primitive-orbit count with its term-by-term breakdown; omega is None off the lattice."
)


def _winding(G: CirculantGraph, l: int, k: int) -> int | None:
    """Winding number of the (l, k) class, or None when (l, k) is not a lattice point."""
    G.require_connected()
    check_lk(l, k)
    delta = l * G.a + k * G.d
    if delta % G.n:
        return None
    omega = delta // G.n
    if omega < 1:
        raise InvariantViolated(f"winding number {omega} < 1 for l={l}, k={k}")
    return omega


def _finish(G: CirculantGraph, l: int, k: int, omega: int,
            terms: list[CountTerm]) -> OrbitCountReport:
    total = G.n * sum(t.mu * t.binomial for t in terms)
    count, rest = divmod(total, l)
    if rest or count < 0:
        raise InvariantViolated(f"count formula non-integral or negative for "
                                f"C_{G.n}({G.a},{G.b}), l={l}, k={k}")
    return OrbitCountReport(l, k, omega, count, tuple(terms))


def count_orbits_lk(G: CirculantGraph, l: int, k: int) -> OrbitCountReport:
    """Primitive periodic orbits of length l with b-count k (reduced formula).

    Returns a zero count with no terms when (l, k) is not a lattice point.
    Divisors with mu = 0 contribute nothing and are omitted from the terms.
    """
    omega = _winding(G, l, k)
    if omega is None:
        return OrbitCountReport(l, k, None, 0, ())
    terms = [CountTerm(m, mu, c)
             for _, m, mu, c in _moebius_binomials(l, k, math.gcd(l, k, omega), 0)]
    return _finish(G, l, k, omega, terms)


def count_orbits_l(G: CirculantGraph, l: int,
                   counter: Callable = count_orbits_lk) -> tuple[int, list[OrbitCountReport]]:
    """Total primitive orbits of length l and counter's report per b-count class, charged first."""
    G.require_connected()
    check_lk(l, 0)
    bits = l.bit_length()
    classes = list(charged(_classes(G, range(l, l + 1)), lambda c: min(c.k, l - c.k) * bits,
                           "binomials of length {0.l} charge", " (sum of min(k, l-k) * bits(l))"))
    reports = [counter(G, c.l, c.k) for c in classes]
    return sum(r.count for r in reports), reports


def count_orbits_lk_unreduced(G: CirculantGraph, l: int, k: int) -> OrbitCountReport:
    """Primitive-orbit count via the repetition-number split.

    Sums, over the divisors q of gcd(l, k) coprime to the winding number,
    the Moebius expansion of the Lyndon-word count at (l/q, k/q). Must
    equal count_orbits_lk; unlike it, requires (l, k) to be a lattice point.
    """
    omega = _winding(G, l, k)
    if omega is None:
        raise NotLatticePoint(f"(l={l}, k={k}) is not a lattice point of C_{G.n}({G.a},{G.b})")
    gamma = math.gcd(l, k)
    terms = [CountTerm(m, mu, c, q) for q, m, mu, c in _moebius_binomials(l, k, gamma, omega)]
    return _finish(G, l, k, omega, terms)


def sum_reduction_check(gamma: int, omega: int, f: Mapping[int, int]) -> tuple[int, int]:
    """Both sides of the divisor-sum collapse identity, for equality testing.

    lhs weights f(q*s) by mu(s) over the repetition blocks (q, s) that
    count_orbits_lk_unreduced sums; rhs is the plain Moebius sum of f over
    the divisors of gcd(gamma, omega). f must be defined on every divisor of gamma.
    """
    if gamma < 1 or omega < 1:
        raise ValueError(f"gamma and omega must be >= 1, got ({gamma}, {omega})")
    lhs = sum(mu * f[q * s] for q, s, mu in block_divisors(gamma, omega))
    rhs = sum(mu * f[m] for _, m, mu in block_divisors(math.gcd(gamma, omega), 0))
    return lhs, rhs


def predicted_repetition(G: CirculantGraph, w: str) -> int:
    """Repetition number the orbit of a closing word must have: gcd(r, omega).

    r is the repetition count of the word itself; the orbit is primitive
    exactly when r is coprime to the winding number. Raises NotLatticePoint
    for a word that does not close.
    """
    return math.gcd(decompose(w).repetition, G.winding_number(w))
