import argparse
import contextlib
import decimal
import hashlib
import inspect
import io
import json
import math
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from circorbits import (
    BudgetExceeded,
    CirculantGraph,
    bcounts_for_length,
    cli,
    counting,
    enumerate_orbits,
    list_lyndon,
    oracle,
    to_step_string,
    words,
)
from circorbits.cli import main
from circorbits.errors import InvariantViolated
from circorbits.lattice import skipped_windings
from circorbits.words import DEFAULT_BUDGET, resolve_budget

from brute import (
    closed_lattice_scan,
    dot_lines,
    enumerate_orbits_reference,
    lattice_basis_faults,
    lyndon_words_direct,
    naive_divisors,
    naive_mu,
    scaled_binomial,
    step_string,
    strongly_connected_count,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def first_difference(got: str, want: str) -> tuple[int, str, str] | None:
    """None when got == want, else the line number where they first part and 60
    characters of each from there. An assertion on it fails at once, where pytest's
    diff of two long strings can take minutes at each step of Hypothesis' shrinking."""
    if got == want:
        return None
    i = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
    return got.count("\n", 0, i) + 1, got[i:i + 60], want[i:i + 60]


def test_count_headline(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "21", "--a", "4", "--b", "10",
                           "--length", "15")
    assert code == 0
    obj = json.loads(out)
    assert obj["total"] == "3822"
    assert [(c["k"], c["omega"], c["count"]) for c in obj["classes"]] == [
        (4, 4, "1911"),
        (11, 6, "1911"),
    ]


def test_count_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "21", "--a", "4", "--b", "10",
                           "--length", "15", "--show-skipped")
    assert code == 0
    assert json.dumps(json.loads(out)) == out.strip()
    assert json.loads(out)["skipped_omegas"] == [3, 5, 7]


def test_count_plain_format(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "21", "--a", "4", "--b", "10",
                           "--length", "15", "--format", "plain", "--show-skipped")
    assert code == 0
    assert "total 3822" in out
    assert "skipped omegas: 3, 5, 7" in out


def test_count_methods_agree_on_big_class(capsys):
    args = ("count", "--n", "440", "--a", "5", "--b", "14",
            "--length", "360", "--bcount", "240")
    code, out_red, _ = run_cli(capsys, *args)
    assert code == 0
    code, out_unred, _ = run_cli(capsys, *args, "--method", "unreduced")
    assert code == 0
    red = json.loads(out_red)
    unred = json.loads(out_unred)
    assert red["count"] == unred["count"]
    expected = 440 * (math.comb(360, 240) - math.comb(120, 80)) // 360
    assert red["count"] == str(expected)
    assert sorted({t["q"] for t in unred["terms"]}) == [1, 2, 4, 5, 8, 10, 20, 40]
    assert all("q" not in t for t in red["terms"])


def test_count_total_equals_class_sum(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "13", "--a", "2", "--b", "7",
                           "--length", "12")
    assert code == 0
    obj = json.loads(out)
    assert int(obj["total"]) == sum(int(c["count"]) for c in obj["classes"])
    # the single-class command agrees with each row of the full run
    for c in obj["classes"]:
        code, out, _ = run_cli(capsys, "count", "--n", "13", "--a", "2", "--b", "7",
                               "--length", "12", "--bcount", str(c["k"]))
        assert code == 0
        assert json.loads(out) == c


@pytest.mark.parametrize("method", ["reduced", "unreduced"])
def test_full_length_count_calls_the_cli_counter_per_class(capsys, monkeypatch, method):
    # Patching cli.count_orbits_lk reaches every class of a full-length
    # reduced count, in bcounts_for_length order; the unreduced method
    # never calls it.
    G = CirculantGraph(13, 2, 7)
    calls = []

    def recorder(G, l, k):
        calls.append((G, l, k))
        return counting.count_orbits_lk(G, l, k)

    monkeypatch.setattr(cli, "count_orbits_lk", recorder)
    code, _, _ = run_cli(capsys, "count", "--n", "13", "--a", "2", "--b", "7",
                         "--length", "26", "--method", method)
    assert code == 0
    classes = [(G, c.l, c.k) for c in bcounts_for_length(G, 26)]
    assert len(classes) == 3
    assert calls == (classes if method == "reduced" else [])


def test_full_length_count_maps_a_counter_value_error_to_exit_2(capsys, monkeypatch):
    def refuse(G, l, k):
        raise ValueError("counter refused")

    monkeypatch.setattr(cli, "count_orbits_lk", refuse)
    code, out, err = run_cli(capsys, "count", "--n", "13", "--a", "2", "--b", "7",
                             "--length", "12")
    assert (code, out, err) == (2, "", "error: counter refused\n")


def test_count_non_lattice_point_reports_zero(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "5", "--a", "1", "--b", "4",
                           "--length", "3", "--bcount", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == "0"
    assert obj["omega"] is None
    assert obj["terms"] == []


def test_lattice_csv(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--n", "21", "--a", "4", "--b", "10",
                           "--lmax", "15", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,k,omega"
    assert "15,4,4" in lines and "15,11,6" in lines


def test_lattice_json(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--n", "7", "--a", "1", "--b", "3",
                           "--lmax", "7")
    assert code == 0
    obj = json.loads(out)
    assert obj["basis"] == {
        "a_prime": 1, "d_prime": 2, "l0": 1, "k0": 3,
        "matrix_numerators": [[3, -1], [1, 2]], "denominator": 7,
    }
    assert {"l": 3, "k": 2, "omega": 1} in obj["points"]
    assert json.dumps(obj) == out.strip()


def test_lyndon_count_and_list(capsys):
    code, out, _ = run_cli(capsys, "lyndon", "count", "--length", "9", "--bcount", "3")
    assert code == 0
    assert out.strip() == "9"

    code, out, _ = run_cli(capsys, "lyndon", "list", "--length", "9", "--bcount", "3",
                           "--steps", "9,1,4")
    assert code == 0
    assert out.split() == [
        "111111444", "111114144", "111114414", "111141144", "111141414",
        "111144114", "111411144", "111411414", "111414114",
    ]


def _moebius_comb_sum(l, k, g):
    return sum(naive_mu(m) * math.comb(l // m, k // m) for m in naive_divisors(g))


def test_lyndon_count_big_class(capsys):
    code, out, _ = run_cli(capsys, "lyndon", "count", "--length", "360", "--bcount", "240")
    assert code == 0
    expected = _moebius_comb_sum(360, 240, math.gcd(360, 240))
    assert expected % 360 == 0
    assert out.strip() == str(expected // 360)
    assert len(out.strip()) >= 90  # roughly C(360,240)/360, far beyond 64-bit


@pytest.mark.parametrize("argv, expected", [
    (("lyndon", "count", "--length", "20000", "--bcount", "10000"),
     lambda: _moebius_comb_sum(20000, 10000, 10000) // 20000),
    # omega = (36000 * 5 + 24000 * 9) / 440 = 900, so the sum runs over gcd 300.
    (("count", "--n", "440", "--a", "5", "--b", "14", "--length", "36000", "--bcount", "24000"),
     lambda: 440 * _moebius_comb_sum(36000, 24000, 300) // 36000),
], ids=["lyndon", "count"])
def test_counts_past_the_int_str_digit_limit_are_printed(capsys, argv, expected):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        printed = json.loads(out)["count"] if argv[0] == "count" else out.strip()
        assert sys.get_int_max_str_digits() == 4321
        sys.set_int_max_str_digits(0)
        assert printed == str(expected())
        assert len(printed) > 4321
    finally:
        sys.set_int_max_str_digits(limit)


@contextlib.contextmanager
def no_digit_limit():
    """Lift CPython's int/str digit limit, as main does while a command runs."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# Random ints of every bit length up to 40,000; powers of ten and one below,
# whose split pieces are all zeros or all nines; and ints with a long inner run
# of zeros, which only the zero-padding of each low piece keeps.
_RANDOM_INT = st.tuples(st.integers(0, 40_000), st.randoms(use_true_random=False)).map(
    lambda drawn: drawn[1].getrandbits(drawn[0]))
_POWER_OF_TEN = st.integers(0, 12_000).flatmap(lambda e: st.sampled_from([10**e, 10**e - 1]))
_INNER_ZEROS = st.tuples(st.integers(1, 10**1000), st.integers(0, 11_000),
                         st.integers(0, 10**300)).map(lambda t: t[0] * 10**t[1] + t[2])


@settings(max_examples=200, deadline=None)
@given(st.one_of(_RANDOM_INT, _POWER_OF_TEN, _INNER_ZEROS))
@example(2**cli._SPLIT_BITS - 1)
@example(2**cli._SPLIT_BITS)
@example(2**cli._SPLIT_BITS + 1)
@example(10**4096 - 1)
@example(10**4096)
@example(10**6000 + 1)
def test_decimal_is_str(x):
    with no_digit_limit():
        assert first_difference(cli._decimal(x), str(x)) is None
        assert cli._decimal(-x) == str(-x)


# C_440(5,14) at l = 3600, k = 2400: a 3297-bit count of eight terms, the
# m = 1 binomial of 3300 bits and the last of 107.
_BIG_G = CirculantGraph(440, 5, 14)
_BIG_REPORT = counting.count_orbits_lk(_BIG_G, 3600, 2400)


@pytest.mark.parametrize("term", [0, -1], ids=["m-1", "last-m"])
@pytest.mark.parametrize("off", [1, -1, 3600], ids=["plus-1", "minus-1", "plus-l"])
def test_a_count_is_not_assembled_from_a_wrong_binomial(term, off):
    # Off by one, n * sum / l leaves a remainder; off by l it does not, and
    # only the residue tells.
    with no_digit_limit():
        parts = [(t.mu, str(t.binomial)) for t in _BIG_REPORT.terms]
        text, exact = cli._assembled(_BIG_REPORT.count, parts, 440, 3600)
        assert (text, exact) == (str(_BIG_REPORT.count), decimal.Decimal(_BIG_REPORT.count))
        parts[term] = (parts[term][0], str(_BIG_REPORT.terms[term].binomial + off))
    with pytest.raises(InvariantViolated, match="printed terms of a .*-bit count"):
        cli._assembled(_BIG_REPORT.count, parts, 440, 3600)


def test_a_total_is_not_assembled_from_a_wrong_count():
    # A total is summed from its classes' exact values: Decimals past
    # _SPLIT_BITS, ints below. l = 1 leaves no remainder, so the residue is
    # the whole check.
    counts = [10**2000 + 7, 3 * 10**1999, 12345]
    with no_digit_limit():
        parts = [(1, cli._assembled(c, [(1, str(c))])[1]) for c in counts]
        assert [type(x) for _, x in parts] == [decimal.Decimal, decimal.Decimal, int]
        assert cli._assembled(sum(counts), parts) == (str(sum(counts)), sum(counts))
        parts[1] = (1, decimal.Decimal(counts[1] + 1))  # exact, unlike + 1 at 28 digits
    with pytest.raises(InvariantViolated):
        cli._assembled(sum(counts), parts)


def _old_count_line(G, l, k, method, show_skipped):
    """A count line as json.dumps printed it from a dict, in the shape count built
    before it wrote its lines directly."""
    counter = (counting.count_orbits_lk_unreduced if method == "unreduced"
               else counting.count_orbits_lk)

    def as_dict(r):
        terms = [({} if t.q is None else {"q": t.q})
                 | {"m": t.m, "mu": t.mu, "binomial": str(t.binomial)} for t in r.terms]
        return {"n": G.n, "a": G.a, "b": G.b, "l": r.l, "k": r.k, "omega": r.omega,
                "count": str(r.count), "terms": terms, "method": method}

    if k is not None:
        return json.dumps(as_dict(counter(G, l, k)))
    total, reports = counting.count_orbits_l(G, l, counter)
    obj = {"n": G.n, "a": G.a, "b": G.b, "l": l, "method": method, "total": str(total)}
    if show_skipped:
        obj["skipped_omegas"] = skipped_windings(G, l)
    obj["classes"] = [as_dict(r) for r in reports]
    return json.dumps(obj)


@st.composite
def _count_requests(draw):
    """(n, a, b, l, k or None, method, show_skipped) on a strongly connected C_n(a,b)."""
    n = draw(st.integers(3, 40))
    a = draw(st.integers(1, n - 2))
    b = draw(st.integers(a + 1, n - 1).filter(lambda b: math.gcd(n, a, b) == 1))
    l = draw(st.integers(1, 40))
    k = draw(st.none() | st.integers(0, l))
    return n, a, b, l, k, draw(st.sampled_from(["reduced", "unreduced"])), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_count_requests())
@example((4, 1, 3, 3, None, "reduced", True))  # no class: "skipped_omegas": [1, 2], "classes": []
@example((4, 1, 3, 4, None, "unreduced", True))  # "skipped_omegas": []
@example((5, 1, 4, 3, 1, "reduced", False))  # off the lattice: "omega": null, "terms": []
@example((5, 1, 4, 3, 1, "unreduced", False))  # off the lattice, refused
@example((440, 5, 14, 360, 240, "unreduced", False))  # a q key on every term
# Past cli._SPLIT_BITS: a 3297-bit class by each method; C_3(1,2)'s classes and
# total at length 1700; the 9 classes and 221 terms of C_1000(5,318) at length 8000.
@example((440, 5, 14, 3600, 2400, "reduced", False))
@example((440, 5, 14, 3600, 2400, "unreduced", False))
@example((3, 1, 2, 1700, None, "reduced", True))
@example((1000, 5, 318, 8000, None, "unreduced", False))
def test_count_lines_are_json_dumps_of_the_old_dicts(request):
    n, a, b, l, k, method, show_skipped = request
    argv = ["count", "--n", str(n), "--a", str(a), "--b", str(b), "--length", str(l),
            "--method", method]
    argv += ["--bcount", str(k)] if k is not None else []
    argv += ["--show-skipped"] if show_skipped else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    with no_digit_limit():
        try:
            want = _old_count_line(CirculantGraph(n, a, b), l, k, method, show_skipped)
        except ValueError:  # the unreduced count of a b-count off the lattice
            assert (code, out.getvalue()) == (2, "")
            return
    assert (code, err.getvalue()) == (0, "")
    assert first_difference(out.getvalue(), want + "\n") is None


def test_lyndon_count_ignores_steps(capsys):
    bare = run_cli(capsys, "lyndon", "count", "--length", "9", "--bcount", "3")
    assert bare == (0, "9\n", "")
    assert run_cli(capsys, "lyndon", "count", "--length", "9", "--bcount", "3",
                   "--steps", "9,1,4") == bare


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_budget_help_names_the_default_budget(capsys, command):
    # The top-level help names the one budget; the commands it bounds offer no flag.
    assert DEFAULT_BUDGET & (DEFAULT_BUDGET - 1) == 0
    helps = []
    for argv in (["--help"], [command, "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        helps.append(" ".join(capsys.readouterr().out.split()))
    assert (f"Work is bounded by CIRCORBITS_BUDGET (default "
            f"2^{DEFAULT_BUDGET.bit_length() - 1}).") in helps[0]
    assert "budget" not in helps[1].lower()


@pytest.mark.parametrize("argv", [
    ("lyndon", "count", "--length", str(10**30), "--bcount", str(10**29)),
    ("lyndon", "list", "--length", str(10**30), "--bcount", str(10**29)),
    ("count", "--n", "7", "--a", "1", "--b", "3", "--length", str(10**30),
     "--bcount", str(10**29 + 5)),
], ids=["lyndon-count", "lyndon-list", "count"])
def test_huge_binomials_are_refused_before_the_sieve(capsys, monkeypatch, argv):
    monkeypatch.delenv("CIRCORBITS_BUDGET", raising=False)
    l, k = int(argv[-3]), int(argv[-1])
    start = time.perf_counter()
    result = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert result == (4, "", f"error: binomials of (l={l}, k={k}) charge {k * 100} > budget "
                             f"{DEFAULT_BUDGET} (min(k, l-k) * bits(l))\n")


@pytest.mark.parametrize("argv, line", [
    (("lyndon", "count", "--length", "121", "--bcount", "0"),
     "factoring gcd 121 of (l=121, k=0) costs 11"),
    (("lyndon", "count", "--length", "121", "--bcount", "121"),
     "factoring gcd 121 of (l=121, k=121) costs 11"),
    (("lyndon", "list", "--length", "121", "--bcount", "0"),
     "factoring gcd 121 of (l=121, k=0) costs 11"),
    (("lyndon", "list", "--length", "121", "--bcount", "121"),
     "factoring gcd 121 of (l=121, k=121) costs 11"),
    # omega = 121 at k = 0 and 242 at k = l, so the reduced sum runs over gcd 121
    (("count", "--n", "3", "--a", "1", "--b", "2", "--length", "363", "--bcount", "0"),
     "factoring gcd 121 of (l=363, k=0) costs 11"),
    (("count", "--n", "3", "--a", "1", "--b", "2", "--length", "363", "--bcount", "363"),
     "factoring gcd 121 of (l=363, k=363) costs 11"),
    (("count", "--n", "3", "--a", "1", "--b", "2", "--length", "363", "--bcount", "0",
      "--method", "unreduced"), "factoring gcd 363 of (l=363, k=0) costs 19"),
    (("count", "--n", "3", "--a", "1", "--b", "2", "--length", "363", "--bcount", "363",
      "--method", "unreduced"), "factoring gcd 363 of (l=363, k=363) costs 19"),
], ids=["lyndon-count-0", "lyndon-count-l", "lyndon-list-0", "lyndon-list-l",
        "count-0", "count-l", "unreduced-0", "unreduced-l"])
def test_factoring_the_gcd_is_charged_when_k_is_0_or_l(capsys, monkeypatch, argv, line):
    monkeypatch.setenv("CIRCORBITS_BUDGET", "10")
    assert run_cli(capsys, *argv) == (4, "", f"error: {line} > budget 10 (isqrt(gcd))\n")
    monkeypatch.setenv("CIRCORBITS_BUDGET", "19")
    assert run_cli(capsys, *argv)[0] == 0


@pytest.mark.parametrize("argv, line", [
    (("lyndon", "count", "--length", "100000000000000003", "--bcount", "0"),
     "factoring gcd 100000000000000003 of (l=100000000000000003, k=0) costs 316227766"),
    (("count", "--n", "3", "--a", "1", "--b", "2", "--length", "300000000000000009",
      "--bcount", "0"),
     "factoring gcd 100000000000000003 of (l=300000000000000009, k=0) costs 316227766"),
    (("count", "--n", "3", "--a", "1", "--b", "2", "--length", "300000000000000009",
      "--bcount", "0", "--method", "unreduced"),
     "factoring gcd 300000000000000009 of (l=300000000000000009, k=0) costs 547722557"),
], ids=["lyndon-count", "count", "unreduced"])
def test_a_prime_gcd_past_the_budget_is_refused_before_it_is_factored(capsys, monkeypatch,
                                                                      argv, line):
    # 10**17 + 3 is prime: trial division up to its root would take minutes.
    monkeypatch.delenv("CIRCORBITS_BUDGET", raising=False)
    start = time.perf_counter()
    result = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert result == (4, "", f"error: {line} > budget {DEFAULT_BUDGET} (isqrt(gcd))\n")


def test_lyndon_count_charge_follows_the_environment_budget(capsys, monkeypatch):
    # min(1000, 1000) * bits(2000) = 11000
    argv = ("lyndon", "count", "--length", "2000", "--bcount", "1000")
    monkeypatch.setenv("CIRCORBITS_BUDGET", "10000")
    assert run_cli(capsys, *argv) == (4, "", "error: binomials of (l=2000, k=1000) charge "
                                             "11000 > budget 10000 (min(k, l-k) * bits(l))\n")
    monkeypatch.setenv("CIRCORBITS_BUDGET", "11000")
    expected = _moebius_comb_sum(2000, 1000, 1000) // 2000
    assert run_cli(capsys, *argv) == (0, f"{expected}\n", "")


def test_invariant_violation_exits_5(capsys, monkeypatch):
    # a wrong binomial makes 21 * C / 15 non-integral, which the count refuses to print
    monkeypatch.setattr(words, "binomial", lambda x, y: 1)
    assert run_cli(capsys, "count", "--n", "21", "--a", "4", "--b", "10", "--length", "15",
                   "--bcount", "4") == (
        5, "", "error: invariant violated: count formula non-integral or negative for "
               "C_21(4,10), l=15, k=4\n")


def test_enumerate_primitive_class(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "9", "--a", "1", "--b", "4",
                           "--length", "9", "--bcount", "3", "--primitive-only")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary == {"orbits": 84, "primitive": 84, "nonprimitive": 0}
    orbit_lines = lines[:-1]
    assert len(orbit_lines) == 84
    first = json.loads(orbit_lines[0])
    assert set(first) == {"start", "steps", "l", "k", "omega", "repetition"}
    assert all(json.dumps(json.loads(line)) == line for line in lines)


def test_enumerate_empty_length(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--a", "1", "--b", "4",
                           "--length", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"orbits": 0, "primitive": 0, "nonprimitive": 0}


_CONNECTED_24 = list(oracle.connected_graphs(24))


@st.composite
def _enumerate_request(draw):
    """(G, l, closing b-count or None, primitive_only) on a connected graph with n <= 24."""
    G = draw(st.sampled_from(_CONNECTED_24))
    l = draw(st.integers(1, 10))
    closing = [k for k in range(l + 1) if (l * G.a + k * G.d) % G.n == 0]
    k = draw(st.sampled_from([None, *closing]))
    return G, l, k, draw(st.booleans())


def _check_enumerate(G, l, k, primitive_only):
    """Assert the CLI's enumerate stdout equals the library's orbits rendered through
    Orbit and to_step_string, line for line; return the orbits."""
    argv = ["enumerate", "--n", str(G.n), "--a", str(G.a), "--b", str(G.b),
            "--length", str(l)]
    argv += ["--bcount", str(k)] * (k is not None) + ["--primitive-only"] * primitive_only
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    orbits = enumerate_orbits(G, l, k)
    primitive = sum(o.is_primitive() for o in orbits)
    expected = [json.dumps({"start": o.start, "steps": to_step_string(o.steps, G.a, G.b),
                            "l": l, "k": o.steps.count("b"), "omega": o.omega,
                            "repetition": o.repetition}) + "\n"
                for o in orbits if o.is_primitive() or not primitive_only]
    expected.append(json.dumps({"orbits": len(orbits), "primitive": primitive,
                                "nonprimitive": len(orbits) - primitive}) + "\n")
    assert first_difference(out.getvalue(), "".join(expected)) is None
    return orbits


# The CLI writes its lines from orbit keys, the library through Orbit and
# to_step_string: the two renderings must agree line for line.
@settings(max_examples=300, deadline=None)
@given(_enumerate_request())
def test_enumerate_lines_follow_the_library_orbits(request):
    _check_enumerate(*request)


# Notation edges, each with and without its b-count and --primitive-only: b
# below 10 and from 10 (concatenated and comma-separated steps), a two-digit a,
# and b = 9 and 10 at lengths above those drawn.
@pytest.mark.parametrize("with_bcount", [False, True], ids=["every-bcount", "bcount"])
@pytest.mark.parametrize("primitive_only", [False, True], ids=["all", "primitive-only"])
@pytest.mark.parametrize("steps", [(9, 1, 4), (12, 1, 10)], ids=["b-below-10", "comma-steps"])
def test_enumerate_lines_are_json(steps, primitive_only, with_bcount):
    # b-count 3 closes at length 9 on both graphs
    orbits = _check_enumerate(CirculantGraph(*steps), 9, 3 if with_bcount else None,
                              primitive_only)
    assert len(orbits) > 10


@pytest.mark.parametrize("with_bcount", [False, True], ids=["every-bcount", "bcount"])
@pytest.mark.parametrize("primitive_only", [False, True], ids=["all", "primitive-only"])
@pytest.mark.parametrize("steps, l, k", [
    ((23, 10, 13), 8, 4),  # 230 orbits, 46 of them nonprimitive
    ((20, 3, 9), 14, 3),  # b-counts 3 and 13 both close
    ((20, 3, 10), 13, 3),
    ((20, 3, 10), 12, 12),  # only b^12, every orbit nonprimitive
], ids=["two-digit-a", "b-9", "b-10", "b-10-repeated"])
def test_enumerate_renders_through_to_step_string(steps, l, k, primitive_only, with_bcount):
    orbits = _check_enumerate(CirculantGraph(*steps), l, k if with_bcount else None,
                              primitive_only)
    assert len(orbits) >= 10


@pytest.mark.parametrize("steps, l, k", [
    ((23, 10, 13), 10, 3), ((20, 3, 9), 10, 4), ((20, 3, 10), 10, 4),
], ids=["two-digit-a", "b-9", "b-10"])
def test_lyndon_list_steps_renders_through_to_step_string(capsys, steps, l, k):
    code, out, _ = run_cli(capsys, "lyndon", "list", "--length", str(l), "--bcount", str(k),
                           "--steps", ",".join(map(str, steps)))
    assert code == 0
    words = list_lyndon(l, k)
    assert len(words) > 10
    assert out.splitlines() == [to_step_string(w, *steps[1:]) for w in words]


@pytest.mark.parametrize("argv, env, message", [
    # one word, but presented from 5 starts in 40000 ways as 40000-bit keys
    (("--n", "5", "--a", "1", "--b", "2", "--length", "40000", "--bcount", "0"), None,
     "costs at least 8000000000 > budget 268435456"),
    # refused on l*l*n before C(10^6, 5 * 10^5), which alone takes minutes
    (("--n", "5", "--a", "1", "--b", "2", "--length", "1000000", "--bcount", "500000"), None,
     "costs at least 5000000000000 > budget 268435456"),
    # l*l*n = 729 fits; 2**9 words charge 512 * 9 * 9
    (("--n", "9", "--a", "1", "--b", "4", "--length", "9"), "1000",
     "costs at least 41472 > budget 1000 (max(W, l)*n*l for W candidate words)"),
], ids=["one-long-word", "huge-binomial", "word-count"])
def test_enumerate_budget_charge(capsys, monkeypatch, argv, env, message):
    if env is None:
        monkeypatch.delenv("CIRCORBITS_BUDGET", raising=False)
    else:
        monkeypatch.setenv("CIRCORBITS_BUDGET", env)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (4, "")
    assert message in err


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--nmax", "5", "--lmax", "6")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["mismatches"] == []
    assert json.dumps(report) == out.strip()


def test_verify_empty(capsys):
    code, out, _ = run_cli(capsys, "verify", "--nmax", "2", "--lmax", "5")
    assert code == 0
    assert json.loads(out)["graphs"] == 0


SWEEP_RULE = " (max(W, l)*n*l for W candidate words, summed over cases)"


def test_verify_budget_exits_4_with_the_enumeration_message(capsys, monkeypatch):
    # C_3(1,2) is swept first. Each of its lengths 1..12 is charged as
    # enumerate charges it, max(2**l, l) * 3 * l, and each fits the budget,
    # but their running sum passes it at length 12.
    G, charges = CirculantGraph(3, 1, 2), []
    for l in range(1, 13):
        charge = max(2**l, l) * 3 * l
        monkeypatch.setenv("CIRCORBITS_BUDGET", str(charge - 1))
        with pytest.raises(BudgetExceeded, match=f" costs at least {charge} > budget "):
            enumerate_orbits(G, l)
        charges.append(charge)
    assert max(charges) < 200000 < sum(charges) == 270342
    monkeypatch.setenv("CIRCORBITS_BUDGET", "200000")
    assert run_cli(capsys, "verify", "--nmax", "8", "--lmax", "12") == (
        4, "", f"error: enumerating the sweep to length 12 on C_3(1,2) costs at least 270342 > "
               f"budget 200000{SWEEP_RULE}\n")


@pytest.mark.parametrize("command", [
    "enumerate --n 9 --a 1 --b 4 --length 9", "verify --nmax 4 --lmax 12"])
def test_budget_flag_is_a_usage_error(capsys, command):
    argv = f"{command} --budget 10".split()
    results = []
    for call in (main, lambda a: cli.build_parser().parse_args(a)):
        with pytest.raises(SystemExit) as exc:
            call(argv)
        results.append((exc.value.code, *capsys.readouterr()))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (2, "")
    assert err.startswith("usage: circorbits ")
    assert err.endswith("error: unrecognized arguments: --budget 10\n")


def test_verify_enumeration_and_formulas_read_one_budget(capsys, monkeypatch):
    # The sweep's one refusal is its summed enumeration charge, checked before
    # any case or formula check runs: lengths 1 and 2 of C_3(1,2) are charged
    # 6 + 24 = 30. The formula checks read the same budget: count_orbits_l is
    # refused under it at length 12 of C_3(1,2), whose classes k = 0, 3, 6
    # have charged (0 + 3 + 6) * bits(12) = 36 by then.
    monkeypatch.setenv("CIRCORBITS_BUDGET", "20")
    assert run_cli(capsys, "verify", "--nmax", "4", "--lmax", "12") == (
        4, "", f"error: enumerating the sweep to length 2 on C_3(1,2) costs at least 30 > budget 20"
               f"{SWEEP_RULE}\n")
    with pytest.raises(BudgetExceeded, match="^binomials of length 12 charge 36 > budget 20 "):
        counting.count_orbits_l(CirculantGraph(3, 1, 2), 12)
    for f in (enumerate_orbits, oracle.verify_range, list_lyndon, counting.count_orbits_l):
        assert "budget" not in inspect.signature(f).parameters
    assert not inspect.signature(resolve_budget).parameters


def test_verify_failure_report_is_unchanged(capsys, monkeypatch):
    # Each formula the sweep checks is off by one on a few (graph, length)
    # cases, so all four mismatch kinds are reported. The digest pins the
    # whole failing report: check count, mismatch entries and their key
    # order, first_mismatch and every case's ok flag.
    def off_by_one(fn, targets, bump):
        def patched(G, l, *rest):
            result = fn(G, l, *rest)
            return bump(result) if (G.n, G.a, G.b, l) in targets else result
        return patched

    def bump_report(report):
        return report._replace(count=report.count + 1)

    classes_off = off_by_one(oracle.count_orbits_l, {(4, 1, 3, 4), (5, 1, 2, 5)},
                             lambda r: (r[0], [bump_report(c) for c in r[1]]))
    monkeypatch.setattr(oracle, "count_orbits_l", off_by_one(
        classes_off, {(4, 1, 2, 4)}, lambda r: (r[0] + 1, r[1])))
    monkeypatch.setattr(oracle, "count_orbits_lk_unreduced", off_by_one(
        oracle.count_orbits_lk_unreduced, {(5, 2, 3, 5)}, bump_report))
    predicted = oracle.predicted_repetition
    monkeypatch.setattr(oracle, "predicted_repetition", lambda G, w: predicted(G, w) + (
        (G.n, G.a, G.b, len(w)) == (5, 1, 4, 4)))

    code, out, _ = run_cli(capsys, "verify", "--nmax", "5", "--lmax", "5")
    assert code == 1
    report = json.loads(out)
    assert {m["kind"] for m in report["mismatches"]} == {
        "reduced-vs-oracle", "unreduced-vs-reduced", "total-vs-oracle", "repetition-law"}
    assert (report["checks"], len(report["mismatches"])) == (441, 23)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fa55f4d6fc8dfb5abe4c4d7a0b331f3f13ca20086e844c8c8fab0213bcc20ecc")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_failure_report_is_unchanged_in_every_share_count(capsys, monkeypatch,
                                                                 shares, k):
    shares.force(k)
    test_verify_failure_report_is_unchanged(capsys, monkeypatch)
    assert len(shares.forked) == k - 1
    shares.assert_reaped()


# Lengths 1..7 and 1..8 cost 1538 * n and 3586 * n on C_n(a,b): the sweep's
# running sum passes 10000 at length 8 of graph 0, C_3(1,2) (10758), and
# 20000 at length 8 of graph 1, C_4(1,2) (25102), which is swept in a worker
# share of two and of three. The ids name the share the refused graph would
# be swept in; the sweep is charged as its graphs are listed, before any
# case runs, so a refused sweep checks no graph and forks nothing.
@pytest.mark.parametrize("budget, first", [
    ("20000", "C_4(1,2) costs at least 25102 > budget 20000"),
    ("10000", "C_3(1,2) costs at least 10758 > budget 10000"),
], ids=["in-a-worker-share", "in-share-0"])
def test_verify_refusal_is_the_first_in_sweep_order(capsys, monkeypatch, shares,
                                                    budget, first):
    monkeypatch.setenv("CIRCORBITS_BUDGET", budget)

    def check_graph(G, l_max):
        raise AssertionError(f"C_{G.n}({G.a},{G.b}) checked in a refused sweep")

    monkeypatch.setattr(oracle, "_check_graph", check_graph)
    results = set()
    for k in (1, 2, 3):
        shares.force(k)
        results.add(run_cli(capsys, "verify", "--nmax", "6", "--lmax", "8"))
        assert len(shares.forked) == 0
        shares.assert_reaped()
    assert results == {(4, "", f"error: enumerating the sweep to length 8 on {first}"
                                f"{SWEEP_RULE}\n")}


def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "12", "--steps", "2,4")
    assert code == 0
    assert out.count("->") == 24


def test_graph_bad_steps_exit_2(capsys):
    for steps in ("4,1", "0,2", "1,5"):
        code, _, err = run_cli(capsys, "graph", "--n", "5", "--steps", steps)
        assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("lyndon", "list", "--length", "9", "--bcount", "3", "--steps", "5,x,2"),
     "--steps wants comma-separated integers, got '5,x,2'"),
    (("lyndon", "list", "--length", "9", "--bcount", "3", "--steps", "9,,4"),
     "--steps wants comma-separated integers, got '9,,4'"),
    (("lyndon", "list", "--length", "9", "--bcount", "3", "--steps", "9,1"),
     "--steps wants n,a,b (three integers), got '9,1'"),
    (("graph", "--n", "5", "--steps", "1,x"),
     "--steps wants comma-separated integers, got '1,x'"),
    (("graph", "--n", "5", "--steps", "1,,4"),
     "--steps wants comma-separated integers, got '1,,4'"),
    (("graph", "--n", "5", "--steps", ""),
     "--steps wants comma-separated integers, got ''"),
    # A value starting with '-' reaches the package only joined by '='.
    (("lyndon", "list", "--length", "9", "--bcount", "3", "--steps=-9,1,4"),
     "need 0 < a < b < n, got n=-9, a=1, b=4"),
    (("graph", "--n", "5", "--steps=-1,2"),
     "steps must be strictly increasing in 1..n-1, got [-1, 2]"),
], ids=["lyndon-letter", "lyndon-empty-part", "lyndon-two-parts",
        "graph-letter", "graph-empty-part", "graph-empty", "lyndon-leading-minus",
        "graph-leading-minus"])
def test_steps_errors_name_the_flag(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("steps", ["1,x,2", "9,4,1"])
def test_lyndon_list_checks_steps_before_generating(capsys, monkeypatch, steps):
    def fail(*args):
        raise AssertionError("list_lyndon called before --steps was checked")

    monkeypatch.setattr(cli, "list_lyndon", fail)
    code, out, _ = run_cli(capsys, "lyndon", "list", "--length", "22", "--bcount", "11",
                           "--steps", steps)
    assert code == 2
    assert out == ""


def test_unknown_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "5"])
    assert exc.value.code == 2
    capsys.readouterr()


_COUNT = "count --n 21 --a 4 --b 10 --length 15"
# Help and usage-error argv. Each is compared with the full parser in the
# same interpreter, because argparse's wording differs between versions.
_USAGE_ARGV = [
    "-h", *(f"{c} --help" for c in ("count", "lattice", "lyndon", "enumerate", "verify", "graph")),
    "", "bogus", "coun", "-h count", "count --n x", f"{_COUNT} extra", f"{_COUNT} --method x",
    "lyndon bad --length 5 --bcount 2", "graph --n 5 --steps -1,2",
    "verify --nmax 4 --lmax 2 graph",
    # Forms where a subcommand's own parser could part from the nested one:
    # an option before lyndon's positional, abbreviated, `=`-joined and
    # repeated flags, a `--`, a trailing -h, a missing flag with a stray token.
    "lyndon --length 5 count --bcount x", "count --len 15 --n 21 --a 4 --b 10 --meth x",
    "count --n=21 --a 4 --b 10 --length 15 extra", f"{_COUNT} --length 16 --length x",
    f"{_COUNT} -- 7", "lyndon --length 5 --bcount 2 -- count extra", f"{_COUNT} -h",
    "count extra",
]


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", _USAGE_ARGV)
def test_help_and_usage_errors_match_the_full_parser(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    results = []
    for call in (main, lambda a: cli.build_parser().parse_args(a)):
        with pytest.raises(SystemExit) as exc:
            call(argv.split())
        results.append((exc.value.code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == (0 if {"-h", "--help"} & set(argv.split()) else 2)


# Per subcommand: -h, a missing required flag, a non-integer value and a
# valid argv, with the exit code each gives (None: parsed).
_STOCK_ARGV = [
    (f"{name} {rest}", code) for name, missing, bad, valid in (
        ("count", "--n 21 --a 4 --b 10", "--n 21 --a 4 --b 10 --length x",
         "--n 21 --a 4 --b 10 --length 15"),
        ("lattice", "--n 21 --a 4 --b 10", "--n 21 --a x --b 10 --lmax 15",
         "--n 21 --a 4 --b 10 --lmax 15"),
        ("lyndon", "count --length 9", "count --length 9 --bcount x",
         "list --length 9 --bcount 3"),
        ("enumerate", "--n 9 --a 1 --b 4", "--n 9 --a 1 --b 4 --length 5 --bcount x",
         "--n 9 --a 1 --b 4 --length 5"),
        ("verify", "--lmax 3", "--nmax x --lmax 3", "--nmax 3 --lmax 3"),
        ("graph", "--steps 1,4", "--n x --steps 1,4", "--n 5 --steps 1,4"),
    ) for rest, code in (("-h", 0), (missing, 2), (bad, 2), (valid, None))
]


def _stock_parse(argv):
    """argv's subcommand parser as argparse builds it by default, parsing argv[1:]."""
    for name, _, add_flags, func in cli._COMMANDS:
        if argv[0] == name:
            parser = argparse.ArgumentParser(prog=f"circorbits {name}")
            add_flags(parser)
            parser.set_defaults(command=name, func=func)
            return parser.parse_args(argv[1:])


def _parse_outcome(parse, argv):
    """(exit code, stdout, stderr, vars of the namespace) of one parse; code None
    and a namespace when it parses, else the code and no namespace."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, parsed = None, vars(parse(argv))
        except SystemExit as exc:
            code, parsed = exc.code, None
    return code, out.getvalue(), err.getvalue(), parsed


@pytest.mark.parametrize("columns", [None, "40", "80", "200"])
@pytest.mark.parametrize("argv, code", _STOCK_ARGV, ids=[row[0] for row in _STOCK_ARGV])
def test_help_and_usage_errors_match_stock_argparse(monkeypatch, argv, code, columns):
    # Independent of build_parser, which would share any change to how the
    # CLI builds its parsers: the same flags on a parser with argparse's
    # default formatter must give the same bytes at any terminal width.
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    got = _parse_outcome(cli._parse, argv.split())
    assert got == _parse_outcome(_stock_parse, argv.split())
    assert got[0] == code
    if code is not None:
        assert (got[1] if code == 0 else got[2]).startswith(f"usage: circorbits {argv.split()[0]} ")


_FULL = ["circorbits", *(f"circorbits {c[0]}" for c in cli._COMMANDS)]
_BUILDS = {
    _COUNT: ["circorbits count"],
    "lattice --n 21 --a 4 --b 10 --lmax 15": ["circorbits lattice"],
    "lyndon count --length 9 --bcount 3": ["circorbits lyndon"],
    "enumerate --n 9 --a 1 --b 4 --length 5": ["circorbits enumerate"],
    "verify --nmax 3 --lmax 3": ["circorbits verify"],
    "graph --n 5 --steps 1,4": ["circorbits graph"],
    "-h": _FULL, "bogus": _FULL, f"{_COUNT} extra": ["circorbits count", *_FULL],
}


@pytest.mark.parametrize("argv, progs", _BUILDS.items(), ids=list(_BUILDS))
def test_each_call_constructs_the_parsers_it_needs(capsys, monkeypatch, argv, progs):
    # The prog of every ArgumentParser constructed: a call a subcommand's own
    # parser parses whole builds only that; the full parser is built only for
    # top-level help, an unknown command and left-over arguments.
    init, built = argparse.ArgumentParser.__init__, []

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    with contextlib.suppress(SystemExit):
        main(argv.split())
    capsys.readouterr()
    assert built == progs


_INT =st.integers(-2, 12).map(str)
_STEPS = st.lists(st.integers(-2, 12), min_size=1, max_size=4).map(
    lambda xs: ",".join(map(str, xs)))


def _flag(name, value=_INT):
    return value.map(lambda v: [name, v])


# A third of the graphs are drawn as sorted distinct ints, about half of
# which pass 0 < a < b < n, and a third are connected graphs with n <= 12, so
# the request reaches the command behind the check.
_GRAPH = st.one_of(
    st.tuples(_INT, _INT, _INT),
    st.lists(st.integers(-2, 12), min_size=3, max_size=3, unique=True).map(
        lambda v: [str(x) for x in sorted(v, reverse=True)]),
    st.sampled_from(list(oracle.connected_graphs(12))).map(
        lambda G: [str(x) for x in sorted(G, reverse=True)]),
).map(lambda nba: ["--n", nba[0], "--a", nba[2], "--b", nba[1]])


@st.composite
def _answerable_dot(draw):
    """--n in 2..12 and --steps of 1-4 sorted distinct steps in 1..n-1."""
    n = draw(st.integers(2, 12))
    steps = sorted(draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4, unique=True)))
    return ["--n", str(n), "--steps", ",".join(map(str, steps))]


# Half the graph requests draw --n and --steps apart, which few answer, and half
# draw steps that fit the drawn n.
_DOT = st.one_of(
    st.tuples(_flag("--n"), _flag("--steps", _STEPS)).map(lambda parts: parts[0] + parts[1]),
    _answerable_dot(),
)
# Per subcommand: the argv parts it requires, then the optional ones.
_GRAMMAR = {
    ("count",): ((_GRAPH, _flag("--length")), (
        _flag("--bcount"), _flag("--method", st.sampled_from(["reduced", "unreduced"])),
        st.just(["--show-skipped"]), _flag("--format", st.sampled_from(["json", "plain"])))),
    ("lattice",): ((_GRAPH, _flag("--lmax")),
                   (_flag("--format", st.sampled_from(["json", "csv"])),)),
    ("lyndon", "count"): ((_flag("--length"), _flag("--bcount")), ()),
    ("lyndon", "list"): ((_flag("--length"), _flag("--bcount")),
                         (_flag("--steps", _STEPS),)),
    ("enumerate",): ((_GRAPH, _flag("--length")), (
        _flag("--bcount"), st.just(["--primitive-only"]))),
    ("verify",): ((_flag("--nmax"), _flag("--lmax")), ()),
    ("graph",): ((_DOT,), ()),
}


@st.composite
def _small_argv(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    required, optional = _GRAMMAR[command]
    argv = list(command)
    for part in required:
        argv += draw(part)
    for part in optional:
        if draw(st.booleans()):
            argv += draw(part)
    # A stray trailing token is an "unrecognized arguments" usage error.
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["extra", "7"])))
    return argv


def _full_parse(argv):
    """vars() of the full parser's namespace, or its (exit code, stderr) on a usage error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, err.getvalue()


def _count_reference(args):
    """The stdout lines of an answered count request.

    Classes come from closed_lattice_scan, each class's count from its
    primitive orbits in enumerate_orbits_reference, the terms from naive
    divisor scans and scaled_binomial, and the skipped winding numbers from
    a scan of every winding number up to l*b/n.
    """
    n, a, b, l, k, method = (args[key] for key in ("n", "a", "b", "length", "bcount", "method"))
    primitive = Counter(w.count("b") for _, w, _, repetition
                        in enumerate_orbits_reference(n, a, b, l, k) if repetition == 1)
    classes = [(kk, omega) for kk, omega in closed_lattice_scan(n, a, b, l) if k in (None, kk)]
    reports = []
    for kk, omega in classes:
        gamma = math.gcd(l, kk)
        if method == "unreduced":
            blocks = [(q, m) for q in naive_divisors(gamma) if math.gcd(q, omega) == 1
                      for m in naive_divisors(gamma // q)]
        else:
            blocks = [(None, m) for m in naive_divisors(math.gcd(gamma, omega))]
        terms = [({} if q is None else {"q": q}) | {"m": m, "mu": naive_mu(m),
                                                    "binomial": scaled_binomial(l, kk, (q or 1) * m)}
                 for q, m in blocks if naive_mu(m)]
        reports.append({"l": l, "k": kk, "omega": omega, "count": primitive[kk], "terms": terms})
    if k is not None and not classes:  # the reduced count of a b-count off the lattice
        reports.append({"l": l, "k": k, "omega": None, "count": 0, "terms": []})

    def as_json(r):
        terms = [t | {"binomial": str(t["binomial"])} for t in r["terms"]]
        return {"n": n, "a": a, "b": b, **r, "count": str(r["count"]), "terms": terms,
                "method": method}

    def as_plain(r, indent):
        lines = [f"{indent}l={l} k={r['k']} omega={r['omega']} count={r['count']}"]
        for t in r["terms"]:
            q = f"q={t['q']} " if "q" in t else ""
            lines.append(f"{indent}  {q}m={t['m']} mu={t['mu']:+d} binomial={t['binomial']}")
        return lines

    if k is not None:
        if args["format"] == "json":
            return [json.dumps(as_json(reports[0]))]
        return [f"C_{n}({a},{b}) length {l} b-count {k} method {method}", *as_plain(reports[0], "")]
    total = sum(r["count"] for r in reports)
    windings = {omega for _, omega in classes}
    skipped = [w for w in range(l * b // n + 1) if w * n >= l * a and w not in windings]
    if args["format"] == "json":
        obj = {"n": n, "a": a, "b": b, "l": l, "method": method, "total": str(total)}
        if args["show_skipped"]:
            obj["skipped_omegas"] = skipped
        obj["classes"] = [as_json(r) for r in reports]
        return [json.dumps(obj)]
    lines = [f"C_{n}({a},{b}) length {l} method {method}"]
    for r in reports:
        lines += as_plain(r, "  ")
    if args["show_skipped"]:
        lines.append(f"  skipped omegas: {', '.join(map(str, skipped)) or 'none'}")
    return lines + [f"total {total}"]


def _lattice_points(args):
    """The (l, k, omega) of an answered lattice request, by closed_lattice_scan of each l."""
    return [(l, k, omega) for l in range(1, args["lmax"] + 1)
            for k, omega in closed_lattice_scan(args["n"], args["a"], args["b"], l)]


def _reference_stdout(args):
    """The stdout of an answered enumerate, lyndon list, lyndon count, count, CSV lattice or
    graph request, from tests/brute, else None."""
    if args["command"] == "enumerate":
        n, a, b, l = args["n"], args["a"], args["b"], args["length"]
        orbits = enumerate_orbits_reference(n, a, b, l, args["bcount"])
        primitive = sum(1 for *_, repetition in orbits if repetition == 1)
        lines = [json.dumps({"start": start, "steps": step_string(w, a, b), "l": l,
                             "k": w.count("b"), "omega": omega, "repetition": repetition})
                 for start, w, omega, repetition in orbits
                 if repetition == 1 or not args["primitive_only"]]
        lines.append(json.dumps({"orbits": len(orbits), "primitive": primitive,
                                 "nonprimitive": len(orbits) - primitive}))
    elif args["command"] == "lyndon" and args["action"] == "list":
        lines = lyndon_words_direct(args["length"], args["bcount"])
        if args["steps"] is not None:
            _, a, b = map(int, args["steps"].split(","))
            lines = [step_string(w, a, b) for w in lines]
    elif args["command"] == "lyndon":
        lines = [str(len(lyndon_words_direct(args["length"], args["bcount"])))]
    elif args["command"] == "count":
        lines = _count_reference(args)
    elif args["command"] == "lattice" and args["format"] == "csv":
        lines = ["l,k,omega", *(f"{l},{k},{omega}" for l, k, omega in _lattice_points(args))]
    elif args["command"] == "graph":
        lines = dot_lines(args["n"], [int(s) for s in args["steps"].split(",")])
    else:
        return None
    return "".join(line + "\n" for line in lines)


# No deadline: under the largest budget drawn, 10**6, verify --nmax 12 --lmax 12
# runs in full, in about 0.7 s. Half the budgets are drawn valid, either small
# enough to refuse some requests (exit 4) or not, and half invalid (exit 2
# wherever a budget is read); one sampled_from of all five would favour its
# first entries. The stdout of every answered enumerate, lyndon list, lyndon
# count, count, CSV lattice and graph request, the points and basis of every
# JSON lattice answer, and the graph and case counts of every verify answer
# are checked against the references of tests/brute; the
# examples make sure some of each are drawn, with nonprimitive orbits,
# comma-separated steps, skipped winding numbers, both count methods and
# formats, a b-count off the lattice, a basis with g = gcd(a, b) > 1,
# graphs of two and of three steps, and a verify sweep.
@settings(max_examples=500, deadline=None)
@given(_small_argv(), st.one_of(st.sampled_from([str(10**6), "1000", "10"]),
                                st.sampled_from(["abc", "0"])))
@example("enumerate --n 4 --a 1 --b 3 --length 8".split(), str(10**6))
@example("enumerate --n 4 --a 1 --b 3 --length 8 --primitive-only".split(), str(10**6))
@example("enumerate --n 12 --a 3 --b 10 --length 9 --bcount 3".split(), str(10**6))
@example("lyndon list --length 12 --bcount 4".split(), str(10**6))
@example("lyndon list --length 10 --bcount 5 --steps 12,1,11".split(), str(10**6))
@example("lyndon count --length 12 --bcount 4".split(), str(10**6))
@example("count --n 6 --a 1 --b 5 --length 12 --show-skipped".split(), str(10**6))
@example("count --n 6 --a 1 --b 5 --length 12 --method unreduced --show-skipped --format plain"
         .split(), str(10**6))
@example("count --n 4 --a 1 --b 3 --length 8 --bcount 4 --method unreduced".split(), str(10**6))
@example("count --n 4 --a 1 --b 3 --length 8 --bcount 3 --format plain".split(), str(10**6))
@example("lattice --n 12 --a 2 --b 5 --lmax 12".split(), str(10**6))
@example("lattice --n 7 --a 1 --b 3 --lmax 12 --format csv".split(), str(10**6))
@example("lattice --n 11 --a 4 --b 10 --lmax 11".split(), str(10**6))
@example("graph --n 5 --steps 1,4".split(), str(10**6))
@example("graph --n 8 --steps 1,2,3".split(), str(10**6))
@example("verify --nmax 6 --lmax 4".split(), str(10**6))
def test_every_small_request_is_answered_or_refused(argv, budget):
    full = _full_parse(argv)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        mp.setenv("CIRCORBITS_BUDGET", budget)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage error, byte for byte the full parser's
            assert (exc.code, err.getvalue()) == full
            assert exc.code == 2
            return
    assert vars(cli._parse(argv)) == full
    if code == 0:
        assert err.getvalue() == ""
        if full["command"] == "lattice" and full["format"] == "json":
            obj = json.loads(out.getvalue())
            assert [obj["n"], obj["a"], obj["b"]] == [full["n"], full["a"], full["b"]]
            assert lattice_basis_faults(full["n"], full["a"], full["b"], obj["basis"]) == []
            assert obj["points"] == [
                {"l": l, "k": k, "omega": omega} for l, k, omega in _lattice_points(full)]
        elif full["command"] == "verify":
            report = json.loads(out.getvalue())
            assert report["graphs"] == strongly_connected_count(full["nmax"])
            assert report["cases"] == report["graphs"] * full["lmax"]
            assert len(report["case_results"]) == report["cases"]
            assert report["passed"] is True
        else:
            expected = _reference_stdout(full)
            assert expected is None or first_difference(out.getvalue(), expected) is None
    else:
        assert code in (2, 3, 4)
        assert err.getvalue().startswith("error: ") and err.getvalue().endswith("\n")
        assert err.getvalue().count("\n") == 1


def test_closed_stdout_exits_141_without_traceback():
    # The listing is far larger than a pipe buffer, so the writer is still
    # printing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "circorbits", "lyndon", "list", "--length", "20",
         "--bcount", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"aaaaaaaaaabbbbbbbbbb\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_enumerate_closed_stdout_exits_141_without_traceback():
    # 3.66 MB of orbit lines: the reader goes away while they still stream.
    proc = subprocess.Popen(
        [sys.executable, "-m", "circorbits", "enumerate", "--n", "16", "--a", "3",
         "--b", "11", "--length", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert json.loads(proc.stdout.readline())["l"] == 16
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
