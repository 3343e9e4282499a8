"""Closed-form counts of primitive periodic orbits.

Two equivalent routes are implemented. The reduced formula counts orbits
of length l and b-count k as (n/l) * sum of mu(m)*C(l/m, k/m) over the
common divisors m of l, k and the winding number. The unreduced formula
splits the same count over word repetition numbers q coprime to the
winding number, one block of Lyndon-word counts per q; both must agree,
and the brute-force oracle module checks them against direct enumeration.

All arithmetic keeps the signed divisor sum as an exact integer, then
multiplies by n and divides by l; integrality of that final division is
checked, never assumed (InvariantViolated, also under python -O).
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from .errors import InvariantViolated, NotLatticePoint
from .graph import CirculantGraph
from .lattice import bcounts_for_length
from .numtheory import binomial, divisors, moebius_divisors
from .words import check_lk, decompose

class CountTerm(NamedTuple):
    """One signed binomial contribution; q is the repetition block (unreduced only)."""

    m: int
    mu: int
    binomial: int
    q: int | None = None


class OrbitCountReport(NamedTuple):
    """A primitive-orbit count with its term-by-term breakdown."""

    l: int
    k: int
    omega: int | None
    count: int
    terms: tuple[CountTerm, ...]


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
    terms = [CountTerm(m, mu, binomial(l // m, k // m))
             for m, mu in moebius_divisors(math.gcd(l, k, omega))]
    return _finish(G, l, k, omega, terms)


def count_orbits_l(G: CirculantGraph, l: int) -> tuple[int, list[OrbitCountReport]]:
    """Total primitive orbits of length l, with one report per admissible b-count."""
    reports = [count_orbits_lk(G, c.l, c.k) for c in bcounts_for_length(G, l)]
    return sum(r.count for r in reports), reports


def count_orbits_lk_unreduced(G: CirculantGraph, l: int, k: int) -> OrbitCountReport:
    """Primitive-orbit count via the repetition-number split.

    Sums, over the divisors q of gcd(l, k) coprime to the winding number,
    the Moebius expansion of the Lyndon-word count at (l/q, k/q). Must
    equal count_orbits_lk; unlike it, requires (l, k) to be a lattice point.
    """
    omega = _winding(G, l, k)
    if omega is None:
        raise NotLatticePoint(
            f"(l={l}, k={k}) is not a lattice point of C_{G.n}({G.a},{G.b})"
        )
    gamma = math.gcd(l, k)
    terms = [CountTerm(m, mu, binomial(l // (q * m), k // (q * m)), q=q)
             for q in divisors(gamma) if math.gcd(q, omega) == 1
             for m, mu in moebius_divisors(gamma // q)]
    return _finish(G, l, k, omega, terms)


def sum_reduction_check(gamma: int, omega: int, f: Mapping[int, int]) -> tuple[int, int]:
    """Both sides of the divisor-sum collapse identity, for equality testing.

    lhs iterates divisors q of gamma coprime to omega and squarefree
    divisors s of gamma/q, weighting f(q*s) by mu(s); rhs is the plain
    Moebius sum of f over divisors of gcd(gamma, omega). f must be defined
    on every divisor of gamma.
    """
    if gamma < 1 or omega < 1:
        raise ValueError(f"gamma and omega must be >= 1, got ({gamma}, {omega})")
    lhs = sum(mu * f[q * s] for q in divisors(gamma) if math.gcd(q, omega) == 1
              for s, mu in moebius_divisors(gamma // q))
    rhs = sum(mu * f[m] for m, mu in moebius_divisors(math.gcd(gamma, omega)))
    return lhs, rhs


def predicted_repetition(G: CirculantGraph, w: str) -> int:
    """Repetition number the orbit of a closing word must have: gcd(r, omega).

    r is the repetition count of the word itself; the orbit is primitive
    exactly when r is coprime to the winding number. Raises DoesNotClose
    for a word that does not close.
    """
    return math.gcd(decompose(w).repetition, G.winding_number(w))
