"""Brute-force enumeration of periodic orbits on small graphs.

This module is the ground truth the closed formulas are tested against.
It walks the closing step words of a length as integer bitmasks and keeps
the least word x of each rotation class. An orbit is stored by its
canonical presentation: the least (start vertex, step word) pair among
the circuit's rotations, vertex first, as the key (start << l) | word.
Enumeration uses only the graph, the stdlib and the argument and budget
checks of `words`; nothing from `numtheory`, the Lyndon generator or
the Moebius sums.

Residue-gap rule, O(l + n) per word: the circuit (v, x) is presented at
(v + r) % n for each prefix residue r (a prefix's walked distance mod n),
and best[r] is the least rotation reached at r. With residues 0 = r_0 <
... < r_m and r_{-1} = r_m - n, the starts whose least vertex u comes from
r_j have u in range(r_j - r_{j-1}); x's orbits are {(u << l) | best[r_j]}.

_orbit_groups yields the sorted keys of one closing b-count at a time;
enumerate_orbits turns them into Orbits, and the CLI writes its lines
from the keys.

verify_range sweeps every connected two-step circulant graph up to a
size bound and cross-checks the formula counts, the reduced/unreduced
agreement and the repetition-number law against enumeration.

The sweep is charged in full before any case runs or any process forks,
each (graph, length) as enumerate_orbits charges it and each graph as it
is listed, and the sum of those charges is its work. Its graphs are
independent, so a sweep of large work is dealt round-robin to one process
per usable CPU (os.sched_getaffinity, which taskset restricts): share 0
runs in this process, the others in forked children that pickle their
results back. Small sweeps, single-CPU hosts, hosts without fork and
multi-threaded callers sweep in this process alone, as does any sweep
whose fan-out fails. The report does not depend on the number of
processes.
Instrumentation of calls made inside the children (the bench tracer's
per-layer spans) is not seen by the caller.

Of the CLI's commands only enumerate and verify import this module, when
they run; the package exports its names lazily, so `import circorbits`
does not load it either.
"""

from __future__ import annotations

import math
import os
from collections import Counter, namedtuple
from collections.abc import Iterator
from itertools import combinations, groupby
from operator import itemgetter

from .counting import (
    count_orbits_l,
    count_orbits_lk,
    count_orbits_lk_unreduced,
    predicted_repetition,
)
from .errors import InvariantViolated, RejectedParameters
from .graph import CirculantGraph
from .words import charge, check_lk, resolve_budget


class Orbit(namedtuple("Orbit", "start steps omega repetition")):
    """A periodic orbit in canonical form; repetition 1 means primitive."""

    __slots__ = ()

    def is_primitive(self) -> bool:
        return self.repetition == 1


def _circuit(G: CirculantGraph, l: int, x: int) -> tuple[list[int], list[int], int]:
    """Rotations, prefix residues and repetition of a circuit with l-letter word x.

    Letter i of x is bit l-1-i ('b' = 1), so integer order is lexicographic
    order. res[s] is the distance the first s steps walk, mod n, and the
    circuit (v, x) is also ((v + res[s]) % n, rots[s]); the number of s
    fixing it does not depend on v and is the repetition.
    """
    mask = (1 << l) - 1
    n, a, b = G.n, G.a, G.b
    rots, res, d = [], [], 0
    for _ in range(l):
        rots.append(x)
        res.append(d)
        letter = x >> (l - 1)
        d = (d + (b if letter else a)) % n
        x = ((x << 1) & mask) | letter
    return rots, res, sum(1 for d, r in zip(res, rots) if r == x and d == 0)


_AB = str.maketrans("01", "ab")


def _steps(x: int, l: int) -> str:
    """The l-letter word of the l-bit integer x."""
    return format(x, f"0{l}b").translate(_AB)


def phi(G: CirculantGraph, w: str, v: int) -> Orbit:
    """Canonical periodic orbit of the circuit starting at v with step word w."""
    omega = G.winding_number(w)
    l, n = len(w), G.n
    rots, res, repetition = _circuit(G, l, int(w.replace("a", "0").replace("b", "1"), 2))
    keys = {((v + d) % n << l) | r for d, r in zip(res, rots)}
    if len(keys) * repetition != l:
        raise InvariantViolated(f"{len(keys)} presentations of {w!r} with repetition "
                                f"{repetition} on C_{n}({G.a},{G.b})")
    key = min(keys)
    return Orbit(key >> l, _steps(key & ((1 << l) - 1), l), omega, repetition)


def _enum_cost(G: CirculantGraph, l: int, k: int | None) -> int:
    """The charge for enumerating length l (b-count k, or every b-count): max(W, l)*n*l."""
    return max(math.comb(l, k) if k is not None else 1 << l, l) * G.n * l


def _charge(G: CirculantGraph, l: int, k: int | None) -> None:
    """Refuse enumerating length l (b-count k, or every b-count) above the budget."""
    what = f"enumerating length {l} on C_{G.n}({G.a},{G.b}) costs at least"
    rule = " (max(W, l)*n*l for W candidate words)"
    charge(l * l * G.n, what, rule)  # first: C(l, k) alone takes minutes for huge l
    charge(_enum_cost(G, l, k), what, rule)


def _rotation_classes(G: CirculantGraph, l: int, k: int | None) -> Iterator[tuple]:
    """(k, omega, x, repetition, keys) for each least word x of a closing b-count.

    keys holds the canonical keys of the orbits of x's rotation class,
    from x's residue gaps (see the module docstring).
    """
    n, top, mask = G.n, l - 1, (1 << l) - 1
    inner = [1 << i for i in range(1, top)]
    for kk in range(l + 1) if k is None else [k]:
        omega, rest = divmod(l * G.a + kk * G.d, n)
        if rest:
            continue
        # With 0 < k < l a least word starts with 'a' and ends with 'b',
        # else a rotation by one letter is smaller.
        words = ((sum(c, 1) for c in combinations(inner, kk - 1)) if 0 < kk < l
                 else [mask if kk else 0])
        for x in words:
            # x is least among its rotations iff the first rotation that
            # is not larger than x is x itself.
            y = x
            for _ in range(l):
                y = ((y << 1) & mask) | (y >> top)
                if y <= x:
                    break
            if y < x:
                continue
            rots, res, repetition = _circuit(G, l, x)
            best: dict[int, int] = {}
            for d, r in zip(res, rots):
                if r < best.get(d, mask + 1):
                    best[d] = r
            up = sorted(best)
            keys: set[int] = set()
            for d, below in zip(up, [up[-1] - n] + up[:-1]):
                keys.update(range(best[d], (d - below) << l, 1 << l))
            yield kk, omega, x, repetition, keys


def _orbit_groups(G: CirculantGraph, l: int,
                  k: int | None) -> Iterator[tuple[int, int, list[int], dict[int, int]]]:
    """(k, omega, keys, repeated) for each closing b-count k of length l, k increasing.

    keys are the sorted canonical keys (start << l) | word of the b-count's
    orbits, and repeated maps the keys of nonprimitive orbits to their
    repetition. The arguments are checked and the whole enumeration is
    charged before the first group, so nothing is yielded from a refused
    call. One b-count's orbits are held at a time.
    """
    check_lk(l, 0 if k is None else k)
    _charge(G, l, k)
    for kk, group in groupby(_rotation_classes(G, l, k), itemgetter(0)):
        keys: list[int] = []
        repeated: dict[int, int] = {}
        for _, omega, _, repetition, class_keys in group:
            keys.extend(class_keys)
            if repetition != 1:
                repeated.update(dict.fromkeys(class_keys, repetition))
        keys.sort()
        yield kk, omega, keys, repeated


def enumerate_orbits(G: CirculantGraph, l: int, k: int | None = None) -> list[Orbit]:
    """All distinct periodic orbits of length l (restricted to b-count k if given).

    The list form of _orbit_groups: walks the words of each closing
    b-count, keeps those least among their rotations and takes their
    orbits' canonical presentations from every start at once: the starts
    in the gap below a sorted prefix residue have their least vertex there
    (module docstring). Output is sorted by (b-count, start, steps):
    b-counts come in increasing order with one omega each, and within a
    b-count the canonical keys are sorted as plain ints. Connectivity is
    not required.

    Time grows as about W * (l + n) for W candidate words, C(l, k) or 2**l;
    the budget still charges max(W, l) * n * l and refuses above it.
    """
    found = []
    for _, omega, keys, repeated in _orbit_groups(G, l, k):
        mask = (1 << l) - 1
        found.extend(Orbit(key >> l, _steps(key & mask, l), omega, repeated.get(key, 1))
                     for key in keys)
    return found


def connected_graphs(n_max: int) -> Iterator[CirculantGraph]:
    """Every strongly connected C_n(a, b) with 3 <= n <= n_max, 0 < a < b < n."""
    for n in range(3, n_max + 1):
        for a in range(1, n - 1):
            for b in range(a + 1, n):
                G = CirculantGraph(n, a, b)
                if G.is_strongly_connected():
                    yield G


def _check_graph(G: CirculantGraph, l_max: int) -> tuple[list, list, int]:
    """(case results, mismatch entries, checks) of one graph at lengths 1..l_max."""
    cases, mismatches, checks = [], [], 0
    for l in range(1, l_max + 1):
        orbits, prim_by_k, wrong = 0, Counter(), []
        for k, _, x, repetition, keys in _rotation_classes(G, l, None):
            orbits += len(keys)
            if repetition == 1:
                prim_by_k[k] += len(keys)
            predicted = predicted_repetition(G, _steps(x, l))
            if predicted != repetition:
                wrong.extend((k, key, predicted, repetition) for key in keys)
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

        # One repetition-law check per orbit; failures follow the table's.
        checks += len(table) + orbits
        failed = [row for row in table if row[2] != row[3]]
        failed.extend(("repetition-law", k, predicted, repetition)
                      for k, _, predicted, repetition in sorted(wrong))
        for kind, k, expected, actual in failed:
            entry = {"n": G.n, "a": G.a, "b": G.b, "l": l, "kind": kind,
                     "expected": str(expected), "actual": str(actual)}
            mismatches.append(entry if k is None else {**entry, "k": k})
        cases.append({"n": G.n, "a": G.a, "b": G.b, "l": l,
                      "orbits": orbits, "ok": not failed})
    return cases, mismatches, checks


# A sweep forks only when its work, the sum of the charges verify_range
# makes for its cases, max(2^l, l)*n*l each, is above this. A fork and join
# costs about 2 ms. Two processes against one on a 2-vCPU host, CPython 3.11.7,
# medians of 11 interleaved runs: every sweep under 3e4 lost ((5,5) 4.9 ->
# 6.4 ms), (5,7) at 6.9e4 drew (8.6 vs 8.3 ms, 6 wins of 11), and from
# 1.5e5 every sweep won ((9,5) 25.3 -> 18.3 ms, (8,8) 48.4 -> 31.8 ms).
_FORK_MIN_WORK = 100_000


def _shares(graphs: list[CirculantGraph], work: int) -> int:
    """Processes to sweep graphs in: one per usable CPU when forking pays and is safe, else 1."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    shares = min(len(os.sched_getaffinity(0)), len(graphs))
    if shares < 2 or work <= _FORK_MIN_WORK:
        return 1
    try:  # fork copies one thread only, and the locks others may hold
        return shares if len(os.listdir("/proc/self/task")) == 1 else 1
    except OSError:
        return 1


def _sweep(graphs: list[CirculantGraph], l_max: int, work: int) -> list[tuple[list, list, int]]:
    """_check_graph of every graph, in order; raises the first exception in sweep order.

    Share j of the graphs is graphs[j::shares]. Share 0 runs here; every
    other share runs in a forked child, which pickles its results into a
    pipe and always leaves through os._exit. If a child could not be
    forked, raised or delivered nothing, or share 0 raised, the children
    are killed and the whole sweep runs again in this process alone.
    """
    shares, workers = _shares(graphs, work), []
    if shares > 1:
        import pickle
        import signal
        try:
            for j in range(1, shares):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no process to spare
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:
                    try:
                        os.close(r)
                        data = pickle.dumps([_check_graph(G, l_max) for G in graphs[j::shares]])
                        with open(w, "wb") as pipe:
                            pipe.write(data)
                    finally:
                        os._exit(0)
                os.close(w)
                workers.append((pid, open(r, "rb")))
            dealt = [[_check_graph(G, l_max) for G in graphs[0::shares]]]
            dealt += [pickle.loads(pipe.read()) for _, pipe in workers]
            return [dealt[i % shares][i // shares] for i in range(len(graphs))]
        except BaseException as exc:
            for pid, _ in workers:
                os.kill(pid, signal.SIGKILL)
            if not isinstance(exc, Exception):  # an interrupt is not swept again
                raise
        finally:
            for pid, pipe in workers:
                pipe.close()
                os.waitpid(pid, 0)
    return [_check_graph(G, l_max) for G in graphs]


def verify_range(n_max: int, l_max: int) -> dict:
    """Cross-check formulas against enumeration on every connected graph up to n_max.

    For each graph and length l <= l_max it walks the rotation classes of
    the closing words and checks per b-count counts (reduced formula),
    lattice-point agreement of the unreduced formula, totals per length,
    and per orbit the repetition law (measured repetition = gcd of word
    repetition and winding, all shared by a class, so evaluated once per
    least word). A case is one table of (kind, k or None, expected, actual)
    rows plus a check per orbit, failing orbits in (b-count, start, steps)
    order. Mismatches are report content; an l_max below 1 is refused.

    The whole sweep is charged before any case runs or any process forks:
    each case as enumerate_orbits charges it, max(2^l, l)*n*l = n*l << l,
    so the refusal is that of the first case in sweep order over the
    budget, and no graph after it is listed. A case's formula checks charge
    at most l*l/2, below the l*l*n charged first for its enumeration, so
    none refuses later. The sum of the charges is the work that decides
    whether large sweeps run on every usable CPU (module docstring); the
    report is that of one process.
    """
    budget = resolve_budget()  # a bad budget is refused before a bad l_max
    if l_max < 1:
        raise RejectedParameters(f"l_max must be >= 1, got {l_max}")
    graphs, work = [], 0
    # In sweep order, each graph as it is listed; range is lazy, so a huge
    # n_max or l_max refuses without listing the graphs or lengths after it.
    for G in connected_graphs(n_max):
        for l in range(1, l_max + 1):
            if (cost := _enum_cost(G, l, None)) > budget:
                _charge(G, l, None)
            work += cost
        graphs.append(G)
    cases, mismatches, checks = [], [], 0
    for graph_cases, graph_mismatches, graph_checks in _sweep(graphs, l_max, work):
        cases += graph_cases
        mismatches += graph_mismatches
        checks += graph_checks

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
