"""Exact integer arithmetic shared by the counting formulas.

Everything here is plain arbitrary-precision integer math; no floating
point is used anywhere, and every routine stays exact.

`_factor` is the one routine that trial-divides, and `block_divisors` its one
caller. Every formula sums over the (q, m, mu(m)) triples of `block_divisors`,
the reduced and Lyndon ones at omega = 0 (q = 1); `divisors` lists the q at omega = 1.

Every count is a Moebius sum of binomials, so `binomial` is the hot path.
It picks one of two methods from its inputs alone. With y = min(y, x - y),
when y >= 400 and y * x.bit_length() >= x it multiplies the prime powers
of C(x, y), given by Legendre's formula, in a balanced product tree, so
the only big operation is Karatsuba multiplication (P. Goetgheluck,
"Computing binomial coefficients", Amer. Math. Monthly 94, 1987).
Otherwise it calls math.comb, which is faster there. The second condition
keeps the prime sieve about as small as the result: C(10**9, 500) builds
none. The sieve is a cached pure function, one per power-of-two bound.

On that side y > sqrt(x), and the primes above y that divide C(x, y) are
the runs ((x-y)//j, x//j] of the sieve, j = 1, 2, ... Each run is taken as
the aligned nodes of a product tree over the sieve's primes: node (h, t) is
the product of primes[t << h:(t + 1) << h], formed by one `_product` the first
time a run needs it and kept by the cached `_node`. So a run costs O(log)
lookups once its nodes exist. Only the nodes some run formed are held: at
each height they are disjoint, so a bound holds at most (tree height) times
the bits of the product of its primes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache
from itertools import compress


def _factor(m: int) -> list[int]:
    """The prime factors of m >= 1, repeated by multiplicity, in increasing order."""
    if m < 1:
        raise ValueError(f"divisors needs m >= 1, got {m}")
    primes = []
    p = 2
    while p * p <= m:
        if m % p:
            p += 1 if p == 2 else 2
        else:
            m //= p
            primes.append(p)
    return primes + [m] if m > 1 else primes


def block_divisors(gamma: int, omega: int) -> list[tuple[int, int, int]]:
    """Sorted (q, m, mu(m)) for each q | gamma coprime to omega and squarefree m | gamma/q."""
    out = {(1, 1, 1)}
    for p in _factor(gamma):
        out |= ({(q * p, m, mu) for q, m, mu in out if omega % p}
                | {(q, m * p, -mu) for q, m, mu in out if m % p})
    return sorted(out)


def divisors(m: int) -> list[int]:
    """All divisors of m >= 1 in increasing order: the q of block_divisors(m, 1), once each."""
    return [q for q, s, _ in block_divisors(m, 1) if s == 1]


@cache
def _primes_below(limit: int) -> list[int]:
    """Every prime below limit, in increasing order; the cached list is shared, never mutated."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return list(compress(range(limit), flags))


def _product(factors: list[int]) -> int:
    """Product of factors, multiplied pairwise so that operands stay balanced."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


@cache
def _node(bits: int, h: int, t: int) -> int:
    """The product-tree node (h, t) over _primes_below(1 << bits), formed once."""
    return _product(_primes_below(1 << bits)[t << h:(t + 1) << h])


def _run_into(factors: list[int], primes: list[int], bits: int, lo: int, hi: int) -> None:
    """Append the product of primes[lo:hi], 0 < lo, to factors as its aligned nodes.

    Each step takes the largest node (h, lo >> h) that starts at lo and ends
    by hi: its height h is bounded by the lowest set bit of lo and by hi - lo.
    """
    while lo < hi:
        h = min((lo & -lo).bit_length(), (hi - lo).bit_length()) - 1
        factors.append(_node(bits, h, lo >> h) if h else primes[lo])
        lo += 1 << h


def binomial(x: int, y: int) -> int:
    """Exact binomial coefficient C(x, y) for x >= 0; zero when y < 0 or y > x.

    With y = min(y, x - y): when y >= 400 and y * x.bit_length() >= x,
    the result is the product of p**e over the primes p <= x, where e
    sums x//p^i - y//p^i - (x-y)//p^i over the powers p^i <= x (Legendre).
    Then y > sqrt(x), and a prime p above sqrt(x) has e = 1 exactly when
    x % p < y % p (a carry when adding y and x - y in base p, Kummer). For
    p > y that is when p has a multiple in (x - y, x], so those primes are
    the runs ((x-y)//j, x//j], j <= x // (y + 1), each taken from cached
    product-tree nodes; only the primes in (sqrt(x), y] are tested one by one.
    Otherwise the result is math.comb(x, y).
    """
    if x < 0:
        raise ValueError(f"binomial needs x >= 0, got {x}")
    if y < 0 or y > x:
        return 0
    y = min(y, x - y)
    if y < 400 or y * x.bit_length() < x:
        return math.comb(x, y)
    primes = _primes_below(1 << x.bit_length())
    root = bisect_right(primes, math.isqrt(x))
    top = bisect_right(primes, y)
    factors = [p for p in primes[root:top] if x % p < y % p]
    for j in range(1, x // (y + 1) + 1):
        lo = max(bisect_right(primes, (x - y) // j), top)
        _run_into(factors, primes, x.bit_length(), lo, bisect_right(primes, x // j))
    for p in primes[:root]:
        e = 0
        q = p
        while q <= x:
            e += x // q - y // q - (x - y) // q
            q *= p
        if e:
            factors.append(p ** e)
    return _product(factors)
