"""Traced mode: spans around the public functions of each circorbits layer.

The package binds names with `from .x import y`, so a function can be
reached through several module namespaces (numtheory.binomial is also
counting.binomial, words.binomial, oracle.binomial and
circorbits.binomial). Tracer.install replaces every binding of each
target with a wrapper and Tracer.uninstall puts the originals back.

Per-word helpers (is_lyndon, check_word, phi) run hundreds of thousands
of times per pass and are not wrapped; their work is derived as counts
(candidates generated or walked) from the arguments of the calls that
drive them.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict

# Layer functions whose calls are spans, by "module.function".
TARGETS = (
    "numtheory.binomial",
    "numtheory.divisors",
    "numtheory.moebius",
    "lattice.bcounts_for_length",
    "lattice.lattice_points",
    "counting.count_orbits_lk",
    "counting.count_orbits_lk_unreduced",
    "counting.count_orbits_l",
    "words.count_lyndon",
    "words.list_lyndon",
    "oracle.enumerate_orbits",
    "oracle.verify_range",
    "cli.main",
)


def _binomial(counts, bound, result) -> None:
    bits = result.bit_length()
    counts["numtheory.binomial.result_bits_sum"] += bits
    counts["numtheory.binomial.result_bits_max"] = max(
        counts["numtheory.binomial.result_bits_max"], bits)


def _classes(counts, bound, result) -> None:
    counts["lattice.classes"] += len(result)


def _terms(counts, bound, result) -> None:
    counts["counting.terms"] += len(result.terms)


def _list_lyndon(counts, bound, result) -> None:
    l, k = bound.arguments["l"], bound.arguments["k"]
    counts["words.list_lyndon.words"] += len(result)
    counts["words.list_lyndon.candidates"] += math.comb(l, k)


def _enumerate(counts, bound, result) -> None:
    G, l = bound.arguments["G"], bound.arguments["l"]
    k = bound.arguments.get("k")
    ks = range(l + 1) if k is None else [k]
    closing = [kk for kk in ks if (l * G.a + kk * (G.b - G.a)) % G.n == 0]
    counts["oracle.enumerate_orbits.orbits"] += len(result)
    counts["oracle.enumerate_orbits.candidates"] += G.n * sum(math.comb(l, kk) for kk in closing)


def _verify(counts, bound, result) -> None:
    counts["oracle.verify_range.checks"] += result["checks"]


# Counts taken from a call's arguments and result; the hook runs after
# the span closes. Hooks that need named arguments get them bound.
_HOOKS = {
    "numtheory.binomial": (_binomial, False),
    "lattice.bcounts_for_length": (_classes, False),
    "counting.count_orbits_lk": (_terms, False),
    "counting.count_orbits_lk_unreduced": (_terms, False),
    "words.list_lyndon": (_list_lyndon, True),
    "oracle.enumerate_orbits": (_enumerate, True),
    "oracle.verify_range": (_verify, True),
}


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "circorbits" or name.startswith("circorbits."))]


class Tracer:
    """Records one span per call of each target while installed.

    A span is (request, parent span index or -1, target index, start_ns,
    end_ns); spans stay in memory until the caller takes them.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        modules = _package_modules()
        for index, target in enumerate(TARGETS):
            module_name, attr = target.split(".")
            fn = getattr(sys.modules.get(f"circorbits.{module_name}"), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(index, fn, *_HOOKS.get(target, (None, False)))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, name, fn = self._patches.pop()
            setattr(module, name, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, index, fn, hook, bind):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        signature = inspect.signature(fn) if bind else None

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (self.request, parent, index, start, end)
            if hook is not None:
                hook(counts, signature.bind(*args, **kwargs) if bind else None, result)
            return result

        return traced

    def take(self) -> tuple[list, dict]:
        """The spans and counts recorded so far; the tracer starts afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(spans: list, counts: dict) -> dict[str, tuple[float, str]]:
    """(value, unit) of each per-layer metric: per-target calls and self
    time (span minus child spans), then the counts taken by the hooks."""
    calls = [0] * len(TARGETS)
    self_ns = [0] * len(TARGETS)
    for _, parent, index, start, end in spans:
        calls[index] += 1
        self_ns[index] += end - start
        if parent >= 0:
            self_ns[spans[parent][2]] -= end - start
    out: dict[str, tuple[float, str]] = {}
    for index, target in enumerate(TARGETS):
        out[f"{target}.calls"] = (calls[index], "count")
        out[f"{target}.self_s"] = (self_ns[index] / 1e9, "s")
    for key, unit in (("numtheory.binomial.result_bits_max", "bit"),
                      ("numtheory.binomial.result_bits_sum", "bit"),
                      ("lattice.classes", "count"), ("counting.terms", "count"),
                      ("oracle.enumerate_orbits.orbits", "count"),
                      ("oracle.verify_range.checks", "count")):
        out[key] = (counts.get(key, 0), unit)
    for target, num, den in (("words.list_lyndon", "words", "candidates"),
                             ("oracle.enumerate_orbits", "orbits", "candidates")):
        den = counts.get(f"{target}.{den}", 0)
        out[f"{target}.yield"] = (counts.get(f"{target}.{num}", 0) / den if den else 0.0,
                                  "ratio")
    return out
