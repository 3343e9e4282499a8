"""Brute-force enumeration of periodic orbits on small graphs.

This module is the ground truth the closed formulas are tested against:
it walks every step word of a given length, keeps the closed ones, and
deduplicates circuits up to rotation. A periodic orbit is stored by its
canonical presentation, the lexicographically least (start vertex, step
word) pair among all rotations of the circuit, compared vertex first.

verify_range sweeps every connected two-step circulant graph up to a
size bound and cross-checks the formula counts, the reduced/unreduced
agreement and the repetition-number law against enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .counting import (
    count_orbits_l,
    count_orbits_lk,
    count_orbits_lk_unreduced,
    predicted_repetition,
)
from .errors import BudgetExceeded
from .graph import CirculantGraph
from .numtheory import binomial
from .words import check_lk, fixed_content_words, resolve_budget, to_step_string


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

    def to_json_dict(self, G: CirculantGraph) -> dict:
        return {
            "start": self.start,
            "steps": to_step_string(self.steps, G.a, G.b),
            "l": self.l,
            "k": self.k,
            "omega": self.omega,
            "repetition": self.repetition,
        }


def _rotations(w: str) -> list[str]:
    doubled = w + w
    l = len(w)
    return [doubled[s : s + l] for s in range(l)]


def _prefix_distances(G: CirculantGraph, w: str) -> list[int]:
    pre = [0]
    total = 0
    for c in w[:-1]:
        total += G.a if c == "a" else G.b
        pre.append(total)
    return pre


def _orbit_repetition(G: CirculantGraph, w: str, rots: list[str], pre: list[int]) -> int:
    # Rotations fixing the circuit presentation are start-independent:
    # rotation s maps (v, w) to (v + pre[s], sigma^s(w)).
    n = G.n
    return sum(1 for s in range(len(w)) if pre[s] % n == 0 and rots[s] == w)


def phi(G: CirculantGraph, w: str, v: int) -> Orbit:
    """Canonical periodic orbit of the circuit starting at v with step word w."""
    omega = G.winding_number(w)
    rots = _rotations(w)
    pre = _prefix_distances(G, w)
    presentations = [((v + pre[s]) % G.n, rots[s]) for s in range(len(w))]
    repetition = _orbit_repetition(G, w, rots, pre)
    assert len(set(presentations)) * repetition == len(w)
    start, steps = min(presentations)
    return Orbit(start, steps, omega, repetition)


def enumerate_orbits(
    G: CirculantGraph,
    l: int,
    k: int | None = None,
    budget: int | None = None,
) -> list[Orbit]:
    """All distinct periodic orbits of length l (restricted to b-count k if given).

    Iterates words by fixed b-count, tests closure once per b-count, then
    loops start vertices, deduplicating by canonical presentation. Output
    is sorted by (b-count, start, steps). Connectivity is not required.
    """
    check_lk(l, 0 if k is None else k)
    budget = resolve_budget(budget)
    candidates = (binomial(l, k) if k is not None else 2**l) * G.n
    if candidates > budget:
        raise BudgetExceeded(
            f"enumerating length {l} on C_{G.n}({G.a},{G.b}) needs "
            f"{candidates} candidate presentations > budget {budget}"
        )
    bcounts = [kk for kk in (range(l + 1) if k is None else [k])
               if (l * G.a + kk * G.d) % G.n == 0]
    n = G.n
    out: list[Orbit] = []
    for kk in bcounts:
        omega = (l * G.a + kk * G.d) // n
        seen: set[tuple[int, str]] = set()
        for w in fixed_content_words(l, kk):
            rots = _rotations(w)
            pre = _prefix_distances(G, w)
            repetition = _orbit_repetition(G, w, rots, pre)
            for v in range(n):
                if (v, w) in seen:
                    continue
                presentations = [((v + pre[s]) % n, rots[s]) for s in range(l)]
                seen.update(presentations)
                start, steps = min(presentations)
                out.append(Orbit(start, steps, omega, repetition))
    out.sort(key=lambda o: (o.k, o.start, o.steps))
    return out


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
    Failures are report content, not exceptions.
    """
    budget = resolve_budget(budget)
    cases = []
    mismatches = []
    graphs = 0
    checks = 0

    def record(G: CirculantGraph, l: int, kind: str, expected, actual, k=None):
        entry = {"n": G.n, "a": G.a, "b": G.b, "l": l, "kind": kind,
                 "expected": str(expected), "actual": str(actual)}
        if k is not None:
            entry["k"] = k
        mismatches.append(entry)

    for G in connected_graphs(n_max):
        graphs += 1
        for l in range(1, l_max + 1):
            case_ok = True
            orbits = enumerate_orbits(G, l, budget=budget)
            prim_by_k: dict[int, int] = {}
            for o in orbits:
                if o.is_primitive():
                    prim_by_k[o.k] = prim_by_k.get(o.k, 0) + 1

            for k in range(l + 1):
                report = count_orbits_lk(G, l, k)
                oracle_count = prim_by_k.get(k, 0)
                checks += 1
                if report.count != oracle_count:
                    case_ok = False
                    record(G, l, "reduced-vs-oracle", report.count, oracle_count, k=k)
                if report.omega is not None:
                    unreduced = count_orbits_lk_unreduced(G, l, k)
                    checks += 1
                    if unreduced.count != report.count:
                        case_ok = False
                        record(G, l, "unreduced-vs-reduced", report.count, unreduced.count, k=k)

            total, per_class = count_orbits_l(G, l)
            checks += 2
            if total != sum(prim_by_k.values()):
                case_ok = False
                record(G, l, "total-vs-oracle", total, sum(prim_by_k.values()))
            if total != sum(r.count for r in per_class):
                case_ok = False
                record(G, l, "total-vs-classes", total, sum(r.count for r in per_class))

            for o in orbits:
                checks += 1
                predicted = predicted_repetition(G, o.steps)
                if predicted != o.repetition:
                    case_ok = False
                    record(G, l, "repetition-law", predicted, o.repetition, k=o.k)

            cases.append({"n": G.n, "a": G.a, "b": G.b, "l": l,
                          "orbits": len(orbits), "ok": case_ok})

    return {
        "n_max": n_max,
        "l_max": l_max,
        "graphs": graphs,
        "cases": len(cases),
        "checks": checks,
        "mismatches": mismatches,
        "first_mismatch": mismatches[0] if mismatches else None,
        "passed": not mismatches,
        "case_results": cases,
    }
