"""Seeded request lists for the benchmark workloads.

Each workload is a fixed design of request shapes: every size parameter
is drawn from its own stratum of the stated range, and the strata are
paired by a permutation that is the same for every seed. The seed moves
each draw inside its stratum, picks the step sizes and the request
order, so different seeds give different argv lists with the same cost
profile, and the same seed always gives the same lists. Where a move
inside a stratum would change a request's cost by a third or more (the
b-count of lyndon list, the integer nmax and lmax of verify) or would
move the 90th-percentile latency (the cost targets of enumerate) the
grid points themselves are the design.

This module imports nothing from circorbits: the program under test only
ever sees the argv lists built here.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

# Pairing of strata shared by every seed: the cost profile of a workload
# is a property of the workload, not of the seed.
_DESIGN_SEED = "circorbits-bench-design"


def _strata(rng: random.Random, count: int, lo: float, hi: float,
            order: list[int]) -> list[float]:
    """One draw per stratum of [lo, hi), listed in the fixed stratum order."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in order]


def _order(count: int, tag: str) -> list[int]:
    order = list(range(count))
    random.Random(f"{_DESIGN_SEED}/{tag}/{count}").shuffle(order)
    return order


def _graph(rng: random.Random, n: int, coprime_gap: bool) -> tuple[int, int]:
    """Step sizes 0 < a < b < n of a connected C_n(a, b).

    With coprime_gap, also gcd(n, b - a) = 1, so a length l has about l/n
    admissible classes and the request's cost is set by (n, l) alone.
    """
    while True:
        a = rng.randrange(1, n - 1)
        b = rng.randrange(a + 1, n)
        if math.gcd(n, a, b) != 1:
            continue
        if coprime_gap and math.gcd(n, b - a) != 1:
            continue
        return a, b


def _count_large(rng: random.Random, size: int) -> list[dict]:
    n_counts = size * 4 // 5
    n_unreduced = size // 5
    n_lyndon = size - n_counts
    reqs = []
    lengths = _strata(rng, n_counts, 2000, 16000, list(range(n_counts)))
    # The number of Moebius terms follows the small prime factors of l, so
    # l mod 12 is part of the fixed design rather than left to the seed.
    residues = [i % 12 for i in _order(n_counts, "cl-l")]
    # n is log-uniform over [200, 2000] cut to at most 20 classes per length.
    shares = _strata(rng, n_counts, 0.0, 1.0, _order(n_counts, "cl-n"))
    unreduced = set(_order(n_counts, "cl-method")[:n_unreduced])
    for i, (l, residue, share) in enumerate(zip(lengths, residues, shares)):
        l = 12 * round(l / 12) + residue
        n_min = max(200, l / 20)
        n = round(n_min * (2000 / n_min) ** share)
        a, b = _graph(rng, n, coprime_gap=True)
        method = "unreduced" if i in unreduced else "reduced"
        reqs.append({"cmd": "count", "n": n, "a": a, "b": b, "length": l,
                     "method": method})
    lengths = _strata(rng, n_lyndon, 2000, 18000, list(range(n_lyndon)))
    shares = _strata(rng, n_lyndon, 0.25, 0.5, _order(n_lyndon, "cl-k"))
    for l, share in zip(lengths, shares):
        l = round(l)
        reqs.append({"cmd": "lyndon-count", "length": l, "bcount": round(l * share)})
    return reqs


def _count_small(rng: random.Random, size: int) -> list[dict]:
    n_lattice = size // 5
    n_lyndon = size // 5
    n_counts = size - n_lattice - n_lyndon
    reqs = []
    ns = _strata(rng, n_counts, 5, 121, list(range(n_counts)))
    lengths = _strata(rng, n_counts, 10, 301, _order(n_counts, "cs-l"))
    for n, l in zip(ns, lengths):
        n = int(n)
        a, b = _graph(rng, n, coprime_gap=False)
        reqs.append({"cmd": "count", "n": n, "a": a, "b": b, "length": int(l),
                     "method": "reduced"})
    ns = _strata(rng, n_lattice, 5, 121, list(range(n_lattice)))
    lmaxes = _strata(rng, n_lattice, 10, 121, _order(n_lattice, "cs-lmax"))
    for n, lmax in zip(ns, lmaxes):
        n = int(n)
        a, b = _graph(rng, n, coprime_gap=False)
        reqs.append({"cmd": "lattice", "n": n, "a": a, "b": b, "lmax": int(lmax)})
    lengths = _strata(rng, n_lyndon, 10, 301, list(range(n_lyndon)))
    shares = _strata(rng, n_lyndon, 0.0, 1.0, _order(n_lyndon, "cs-k"))
    for l, share in zip(lengths, shares):
        l = int(l)
        reqs.append({"cmd": "lyndon-count", "length": l, "bcount": int(l * share)})
    return reqs


def _brute_force(rng: random.Random, size: int) -> list[dict]:
    n_verify = size // 5
    n_enumerate = size // 2
    n_list = size - n_verify - n_enumerate
    reqs = []
    nmaxes = _strata(rng, n_verify, 5, 9, list(range(n_verify)))
    lmaxes = _strata(rng, n_verify, 7, 11, _order(n_verify, "bf-lmax"))
    for nmax, lmax in zip(nmaxes, lmaxes):
        reqs.append({"cmd": "verify", "nmax": int(nmax), "lmax": int(lmax)})
    # Enumeration walks every word with a closing b-count k, rotating it
    # (work ~ l) and deduplicating it from each start vertex (work ~ n);
    # the words number sum of C(l, k) over those k, which swings by 10^4
    # with the step sizes alone. So each request is the best of a few
    # seeded graphs for a cost target at the midpoint of its stratum of
    # the log cost range; the seed picks the graphs, not the targets. The
    # weights fit wall times of the brute-force oracle to within about 10%.
    lo, hi = math.log(8e3), math.log(7e5)
    for i in range(n_enumerate):
        log_target = lo + (i + 0.5) * (hi - lo) / n_enumerate
        best = None
        for _ in range(256):
            n = rng.randrange(3, 17)
            l = rng.randrange(10, 17)
            a, b = _graph(rng, n, coprime_gap=False)
            words = sum(math.comb(l, k) for k in range(l + 1)
                        if (l * a + k * (b - a)) % n == 0)
            cost = 2700 + words * (l + 4 * n)
            miss = abs(math.log(cost) - log_target)
            if best is None or miss < best[0]:
                best = (miss, n, a, b, l)
        _, n, a, b, l = best
        reqs.append({"cmd": "enumerate", "n": n, "a": a, "b": b, "length": l})
    # Generation cost doubles with each unit of length and moves by a third
    # with each unit of k, so these requests are a fixed grid: lengths
    # spread evenly over 12-20, k/l at the midpoints of strata of [0.2, 0.5).
    for i, j in enumerate(_order(n_list, "bf-k")):
        l = 12 + i * 9 // n_list
        share = 0.2 + 0.3 * (j + 0.5) / n_list
        reqs.append({"cmd": "lyndon-list", "length": l, "bcount": max(1, round(l * share))})
    return reqs


class Workload(NamedTuple):
    build: Callable[[random.Random, int], list[dict]]
    # Distinct requests per pass: at least 100, so p90 has ten requests
    # beyond it, and few enough that one pass takes under ten seconds on a
    # 2-vCPU host and a 25-second run holds three passes.
    size: int
    # The host-speed probe kernel (hostspeed.KERNELS) doing the workload's
    # kind of work: count-large spends ~90% of its time in big binomials.
    probe: str


WORKLOADS = {
    "count-large": Workload(_count_large, 150, "big-integer"),
    "count-small": Workload(_count_small, 250, "interpreter"),
    "brute-force": Workload(_brute_force, 100, "interpreter"),
}


def generate(workload: str, seed: int) -> list[dict]:
    """The request specs of one pass of `workload`, in the order they are sent."""
    rng = random.Random(f"{workload}/{seed}")
    build, size, _ = WORKLOADS[workload]
    reqs = build(rng, size)
    rng.shuffle(reqs)
    return reqs


def argv(spec: dict) -> list[str]:
    """The circorbits command line for one request spec."""
    cmd = spec["cmd"]
    if cmd == "count":
        out = ["count"]
        for key in ("n", "a", "b", "length"):
            out += [f"--{key}", str(spec[key])]
        return out + ["--method", spec["method"]]
    if cmd == "lattice":
        return ["lattice", "--n", str(spec["n"]), "--a", str(spec["a"]),
                "--b", str(spec["b"]), "--lmax", str(spec["lmax"])]
    if cmd in ("lyndon-count", "lyndon-list"):
        return ["lyndon", cmd.split("-")[1], "--length", str(spec["length"]),
                "--bcount", str(spec["bcount"])]
    if cmd == "enumerate":
        return ["enumerate", "--n", str(spec["n"]), "--a", str(spec["a"]),
                "--b", str(spec["b"]), "--length", str(spec["length"])]
    if cmd == "verify":
        return ["verify", "--nmax", str(spec["nmax"]), "--lmax", str(spec["lmax"])]
    raise ValueError(f"unknown request kind {cmd!r}")
