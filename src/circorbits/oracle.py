"""Brute-force enumeration of periodic orbits on small graphs.

This module is the ground truth the closed formulas are tested against:
it walks the closing step words of a length as integer bitmasks, keeps
the least word of each rotation class, starts it from every vertex and
keeps the set of canonical presentations so reached. An orbit is stored
by its canonical presentation: the least (start vertex, step word) pair
among the circuit's rotations, vertex first. Enumeration uses only the
graph, the stdlib and the argument and budget checks of `words`;
nothing from `numtheory`, the Lyndon generator or the Moebius sums.

verify_range sweeps every connected two-step circulant graph up to a
size bound and cross-checks the formula counts, the reduced/unreduced
agreement and the repetition-number law against enumeration, as one
comparison table per (graph, length).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .counting import (
    count_orbits_l,
    count_orbits_lk,
    count_orbits_lk_unreduced,
    predicted_repetition,
)
from .errors import BudgetExceeded, InvariantViolated, RejectedParameters
from .graph import CirculantGraph
from .words import check_lk, resolve_budget


@dataclass(frozen=True)
class Orbit:
    """A periodic orbit in canonical form; repetition 1 means primitive."""

    start: int
    steps: str
    omega: int
    repetition: int

    @property
    def l(self) -> int:
        return len(self.steps)

    @property
    def k(self) -> int:
        return self.steps.count("b")

    def is_primitive(self) -> bool:
        return self.repetition == 1


def _circuit(G: CirculantGraph, l: int, x: int) -> tuple[list[int], list[int], int]:
    """Rotations, prefix distances and repetition of a circuit with l-letter word x.

    Letter i of x is bit l-1-i ('b' = 1), so integer order is lexicographic
    order. The circuit (v, x) is also ((v + pre[s]) % n, rots[s]); the
    number of s fixing it does not depend on v and is the repetition.
    """
    mask = (1 << l) - 1
    a, b = G.a, G.b
    rots, pre, total = [], [], 0
    for _ in range(l):
        rots.append(x)
        pre.append(total)
        letter = x >> (l - 1)
        total += b if letter else a
        x = ((x << 1) & mask) | letter
    return rots, pre, sum(1 for p, r in zip(pre, rots) if r == x and p % G.n == 0)


def _orbit(key: int, l: int, omega: int, repetition: int) -> Orbit:
    """The orbit with canonical presentation (key >> l, low l bits of key)."""
    steps = format(key & ((1 << l) - 1), f"0{l}b").replace("0", "a").replace("1", "b")
    return Orbit(key >> l, steps, omega, repetition)


def phi(G: CirculantGraph, w: str, v: int) -> Orbit:
    """Canonical periodic orbit of the circuit starting at v with step word w."""
    omega = G.winding_number(w)
    l, n = len(w), G.n
    rots, pre, repetition = _circuit(G, l, int(w.replace("a", "0").replace("b", "1"), 2))
    keys = {((v + p) % n << l) | r for p, r in zip(pre, rots)}
    if len(keys) * repetition != l:
        raise InvariantViolated(f"{len(keys)} presentations of {w!r} with repetition "
                                f"{repetition} on C_{n}({G.a},{G.b})")
    return _orbit(min(keys), l, omega, repetition)


def enumerate_orbits(
    G: CirculantGraph,
    l: int,
    k: int | None = None,
    budget: int | None = None,
) -> list[Orbit]:
    """All distinct periodic orbits of length l (restricted to b-count k if given).

    Walks the words of each closing b-count and keeps those least among
    their rotations. Each orbit of such a word x's rotation class has a
    presentation (v, x) for some start v, and its canonical presentation
    is the least of its l presentations; the set of those minima over
    every v therefore holds each orbit once. Output is sorted by
    (b-count, start, steps). Connectivity is not required.

    Time and memory grow as max(W, l) * n * l for W candidate words, C(l, k)
    or 2**l: each word is presented from n starts in l ways as l-bit keys.
    Above the budget it refuses.
    """
    check_lk(l, 0 if k is None else k)
    budget = resolve_budget(budget)
    n = G.n
    cost = l * l * n  # checked first: C(l, k) alone takes minutes for huge l
    if cost <= budget:
        cost = max(math.comb(l, k) if k is not None else 2**l, l) * n * l
    if cost > budget:
        raise BudgetExceeded(f"enumerating length {l} on C_{n}({G.a},{G.b}) costs at least "
                             f"{cost} > budget {budget} (max(W, l)*n*l for W candidate words)")
    top = l - 1
    mask = (1 << l) - 1
    found = []
    for kk in range(l + 1) if k is None else [k]:
        omega, rest = divmod(l * G.a + kk * G.d, n)
        if rest:
            continue
        for chosen in combinations([1 << i for i in range(l)], kk):
            x = sum(chosen)
            # x is least among its rotations iff the first rotation that
            # is not larger than x is x itself.
            y = x
            for _ in range(l):
                y = ((y << 1) & mask) | (y >> top)
                if y <= x:
                    break
            if y < x:
                continue
            rots, pre, repetition = _circuit(G, l, x)
            keys = {min([((v + d) % n << l) | r for d, r in zip(pre, rots)]) for v in range(n)}
            found.extend((kk, key, omega, repetition) for key in keys)
    return [_orbit(key, l, omega, repetition) for _, key, omega, repetition in sorted(found)]


def connected_graphs(n_max: int) -> Iterator[CirculantGraph]:
    """Every strongly connected C_n(a, b) with 3 <= n <= n_max, 0 < a < b < n."""
    for n in range(3, n_max + 1):
        for a in range(1, n - 1):
            for b in range(a + 1, n):
                G = CirculantGraph(n, a, b)
                if G.is_strongly_connected():
                    yield G


def verify_range(n_max: int, l_max: int, budget: int | None = None) -> dict:
    """Cross-check formulas against enumeration on every connected graph up to n_max.

    For each graph and each length l <= l_max the oracle enumerates all
    orbits, then checks per b-count counts (reduced formula), lattice-point
    agreement of the unreduced formula, totals per length, and the measured
    orbit repetition against gcd of word repetition and winding number.
    Each case is one table of (kind, k or None, expected, actual) rows;
    every row is a check and every unequal row a mismatch. Failures are
    report content, not exceptions; an l_max below 1 is refused.
    """
    budget = resolve_budget(budget)
    if l_max < 1:
        raise RejectedParameters(f"l_max must be >= 1, got {l_max}")
    graphs = list(connected_graphs(n_max))
    cases = []
    mismatches = []
    checks = 0
    for G in graphs:
        for l in range(1, l_max + 1):
            orbits = enumerate_orbits(G, l, budget=budget)
            prim_by_k = Counter(o.k for o in orbits if o.is_primitive())
            table = []
            for k in range(l + 1):
                report = count_orbits_lk(G, l, k)
                table.append(("reduced-vs-oracle", k, report.count, prim_by_k[k]))
                if report.omega is not None:
                    table.append(("unreduced-vs-reduced", k, report.count,
                                  count_orbits_lk_unreduced(G, l, k).count))
            total, per_class = count_orbits_l(G, l)
            table.append(("total-vs-oracle", None, total, sum(prim_by_k.values())))
            table.append(("total-vs-classes", None, total, sum(r.count for r in per_class)))
            table.extend(("repetition-law", o.k, predicted_repetition(G, o.steps), o.repetition)
                         for o in orbits)

            checks += len(table)
            failed = [row for row in table if row[2] != row[3]]
            for kind, k, expected, actual in failed:
                entry = {"n": G.n, "a": G.a, "b": G.b, "l": l, "kind": kind,
                         "expected": str(expected), "actual": str(actual)}
                mismatches.append(entry if k is None else {**entry, "k": k})
            cases.append({"n": G.n, "a": G.a, "b": G.b, "l": l,
                          "orbits": len(orbits), "ok": not failed})

    return {
        "n_max": n_max,
        "l_max": l_max,
        "graphs": len(graphs),
        "cases": len(cases),
        "checks": checks,
        "mismatches": mismatches,
        "first_mismatch": mismatches[0] if mismatches else None,
        "passed": not mismatches,
        "case_results": cases,
    }
