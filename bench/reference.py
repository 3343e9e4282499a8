"""Independent output checker for the benchmark.

Recomputes every answer from first principles with the standard library
only: admissible classes by a direct solve of l*a + k*(b-a) = omega*n,
counts by Moebius sums of math.comb, and orbit totals from primitive
counts over the divisors of the length. It imports nothing from
circorbits, so a defect shared by the package's formulas cannot hide
from it.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys


def moebius(m: int) -> int:
    sign, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def divisors(m: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def classes(n: int, a: int, b: int, l: int) -> list[tuple[int, int]]:
    """(k, omega) of every admissible class of length l, by increasing omega."""
    d = b - a
    out = []
    for omega in range(-(-l * a // n), l * b // n + 1):
        k, rest = divmod(omega * n - l * a, d)
        if rest == 0 and 0 <= k <= l:
            out.append((k, omega))
    return out


def reduced_terms(l: int, k: int, omega: int) -> list[tuple[int, int, int]]:
    """(m, mu(m), C(l/m, k/m)) over the squarefree divisors m of gcd(l, k, omega)."""
    return [(m, moebius(m), math.comb(l // m, k // m))
            for m in divisors(math.gcd(l, k, omega)) if moebius(m)]


def unreduced_terms(l: int, k: int, omega: int) -> list[tuple[int, int, int, int]]:
    """(q, m, mu(m), C(l/qm, k/qm)) over q | gcd(l, k) coprime to omega, m | gcd/q."""
    gamma = math.gcd(l, k)
    return [(q, m, moebius(m), math.comb(l // (q * m), k // (q * m)))
            for q in divisors(gamma) if math.gcd(q, omega) == 1
            for m in divisors(gamma // q) if moebius(m)]


def class_count(n: int, l: int, k: int, omega: int) -> int:
    total = n * sum(mu * c for _, mu, c in reduced_terms(l, k, omega))
    assert total % l == 0
    return total // l


def primitive_total(n: int, a: int, b: int, l: int) -> int:
    return sum(class_count(n, l, k, omega) for k, omega in classes(n, a, b, l))


def lyndon_count(l: int, k: int) -> int:
    total = sum(moebius(m) * math.comb(l // m, k // m) for m in divisors(math.gcd(l, k)))
    assert total % l == 0
    return total // l


def connected_graphs(n_max: int) -> int:
    return sum(1 for n in range(3, n_max + 1) for a in range(1, n - 1)
               for b in range(a + 1, n) if math.gcd(n, a, b) == 1)


@contextlib.contextmanager
def _unlimited_int_strings():
    """Lift CPython's int/str digit limit while the checker runs, then restore it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _check_count(spec: dict, out: str) -> str | None:
    n, a, b, l = spec["n"], spec["a"], spec["b"], spec["length"]
    obj = json.loads(out)
    head = (obj["n"], obj["a"], obj["b"], obj["l"], obj["method"])
    if head != (n, a, b, l, spec["method"]):
        return f"header {head}"
    expected = classes(n, a, b, l)
    got = [(c["k"], c["omega"]) for c in obj["classes"]]
    if got != expected:
        return "class list differs"
    total = 0
    for c, (k, omega) in zip(obj["classes"], expected):
        if spec["method"] == "reduced":
            terms = [(t["m"], t["mu"], int(t["binomial"])) for t in c["terms"]]
            ref_terms = reduced_terms(l, k, omega)
        else:
            terms = [(t["q"], t["m"], t["mu"], int(t["binomial"])) for t in c["terms"]]
            ref_terms = unreduced_terms(l, k, omega)
        if terms != ref_terms:
            return f"terms of class k={k}"
        count = class_count(n, l, k, omega)
        if int(c["count"]) != count:
            return f"count of class k={k}"
        total += count
    if int(obj["total"]) != total:
        return "total"
    return None


def _check_lattice(spec: dict, out: str) -> str | None:
    n, a, b, lmax = spec["n"], spec["a"], spec["b"], spec["lmax"]
    obj = json.loads(out)
    expected = [[l, k, omega] for l in range(1, lmax + 1) for k, omega in classes(n, a, b, l)]
    if [[p["l"], p["k"], p["omega"]] for p in obj["points"]] != expected:
        return "lattice points differ"
    B = obj["basis"]
    g = math.gcd(a, b)
    ap, dp, l0, k0 = B["a_prime"], B["d_prime"], B["l0"], B["k0"]
    if (ap, dp) != (a // g, (b - a) // g) or not 0 <= l0 < max(dp, 1):
        return "basis normalisation"
    if l0 * a + k0 * (b - a) != g * n:
        return "basis vector is not a lattice point of winding g"
    if B["matrix_numerators"] != [[k0, -l0], [ap, dp]] or B["denominator"] != n:
        return "coordinate matrix"
    return None


def _word(steps: str, a: int, b: int) -> str:
    letters = {a: "a", b: "b"}
    tokens = steps.split(",") if b > 9 else list(steps)
    return "".join(letters[int(t)] for t in tokens)


def _orbit_error(n: int, a: int, b: int, l: int, o: dict, w: str) -> str | None:
    """What is wrong with one orbit line whose step word is w, if anything."""
    k = w.count("b")
    if len(w) != l or o["l"] != l or o["k"] != k or w.count("a") != l - k:
        return "orbit length or b-count"
    delta = l * a + k * (b - a)
    if delta % n or o["omega"] != delta // n:
        return "orbit does not close with its winding"
    start, pre = o["start"], [0]
    for c in w[:-1]:
        pre.append(pre[-1] + (a if c == "a" else b))
    presentations = {((start + pre[s]) % n, w[s:] + w[:s]) for s in range(l)}
    if min(presentations) != (start, w):
        return "orbit is not in its least presentation"
    if o["repetition"] * len(presentations) != l:
        return "orbit repetition number"
    return None


def _check_enumerate(spec: dict, out: str) -> str | None:
    n, a, b, l = spec["n"], spec["a"], spec["b"], spec["length"]
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    primitive = {r: primitive_total(n, a, b, l // r) for r in divisors(l)}
    orbits = sum(primitive.values())
    got = (summary["orbits"], summary["primitive"], summary["nonprimitive"])
    if got != (orbits, primitive[1], orbits - primitive[1]):
        return f"totals {summary} != {orbits} orbits, {primitive[1]} primitive"
    if len(lines) - 1 != orbits:
        return "orbit line count"
    keys = []
    reps = {}
    for line in lines[:-1]:
        o = json.loads(line)
        w = _word(o["steps"], a, b)
        error = _orbit_error(n, a, b, l, o, w)
        if error:
            return f"{error}: {line}"
        keys.append((o["k"], o["start"], w))
        reps[o["repetition"]] = reps.get(o["repetition"], 0) + 1
    if any(x >= y for x, y in zip(keys, keys[1:])):
        return "orbits not sorted and distinct"
    if reps != {r: c for r, c in primitive.items() if c}:
        return "orbits per repetition number"
    return None


def _check_lyndon_list(spec: dict, out: str) -> str | None:
    l, k = spec["length"], spec["bcount"]
    words = out.split()
    if len(words) != lyndon_count(l, k):
        return "word count"
    if any(len(w) != l or w.count("b") != k or w.count("a") != l - k for w in words):
        return "word content"
    for w in words:
        if any(w >= w[s:] + w[:s] for s in range(1, l)):
            return f"{w} is not a Lyndon word"
    if any(x >= y for x, y in zip(words, words[1:])):
        return "words not sorted and distinct"
    return None


def _check_verify(spec: dict, out: str) -> str | None:
    obj = json.loads(out)
    graphs = connected_graphs(spec["nmax"])
    if not obj["passed"] or obj["mismatches"]:
        return "verify reported mismatches"
    if (obj["graphs"], obj["cases"]) != (graphs, graphs * spec["lmax"]):
        return "verify swept the wrong range"
    return None


def _answer_integers(spec: dict) -> list[int]:
    """Every integer the CLI prints in decimal for a count or lyndon count request."""
    if spec["cmd"] == "lyndon-count":
        return [lyndon_count(spec["length"], spec["bcount"])]
    n, a, b, l = spec["n"], spec["a"], spec["b"], spec["length"]
    out = [primitive_total(n, a, b, l)]
    for k, omega in classes(n, a, b, l):
        out.append(class_count(n, l, k, omega))
        if spec["method"] == "reduced":
            out += [t[-1] for t in reduced_terms(l, k, omega)]
        else:
            out += [t[-1] for t in unreduced_terms(l, k, omega)]
    return out


def refusal_expected(spec: dict) -> bool:
    """True when the answer holds an integer past CPython's int/str digit limit.

    The CLI may refuse such a request with exit 2 instead of printing it;
    no other request may exit non-zero.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or spec["cmd"] not in ("count", "lyndon-count"):
        return False
    return max(map(abs, _answer_integers(spec))) >= 10 ** limit


def check(spec: dict, out: str) -> str | None:
    """None when the stdout of a successful request is right, else what is wrong."""
    cmd = spec["cmd"]
    with _unlimited_int_strings():
        try:
            if cmd == "count":
                return _check_count(spec, out)
            if cmd == "lattice":
                return _check_lattice(spec, out)
            if cmd == "lyndon-count":
                return None if int(out) == lyndon_count(spec["length"], spec["bcount"]) else "count"
            if cmd == "lyndon-list":
                return _check_lyndon_list(spec, out)
            if cmd == "enumerate":
                return _check_enumerate(spec, out)
            if cmd == "verify":
                return _check_verify(spec, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
    raise ValueError(f"unknown request kind {cmd!r}")
