import hashlib
import json
import math
import subprocess
import sys
import time

import pytest

from circorbits import (
    BudgetExceeded,
    CirculantGraph,
    cli,
    counting,
    divisors,
    enumerate_orbits,
    moebius,
    oracle,
    to_step_string,
)
from circorbits.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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


def test_count_non_lattice_point_reports_zero(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "5", "--a", "1", "--b", "4",
                           "--length", "3", "--bcount", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == "0"
    assert obj["omega"] is None
    assert obj["terms"] == []


def test_count_disconnected_exits_3(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "12", "--a", "2", "--b", "4",
                           "--length", "6")
    assert code == 3
    assert "disconnected" in err


def test_count_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "5", "--a", "4", "--b", "1",
                           "--length", "5")
    assert code == 2
    assert "0 < a < b < n" in err
    code, _, err = run_cli(capsys, "count", "--n", "5", "--a", "1", "--b", "4",
                           "--length", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "count", "--n", "5", "--a", "1", "--b", "4",
                           "--length", "3", "--bcount", "7")
    assert code == 2


def test_count_unreduced_non_lattice_point_exits_2(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "5", "--a", "1", "--b", "4",
                           "--length", "3", "--bcount", "1", "--method", "unreduced")
    assert code == 2
    assert "lattice" in err


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


def test_lattice_lmax_zero_exits_2(capsys):
    code, _, err = run_cli(capsys, "lattice", "--n", "7", "--a", "1", "--b", "3",
                           "--lmax", "0")
    assert code == 2


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


def test_lyndon_count_big_class(capsys):
    code, out, _ = run_cli(capsys, "lyndon", "count", "--length", "360", "--bcount", "240")
    assert code == 0
    expected = sum(
        moebius(m) * math.comb(360 // m, 240 // m) for m in divisors(math.gcd(360, 240))
    )
    assert expected % 360 == 0
    assert out.strip() == str(expected // 360)
    assert len(out.strip()) >= 90  # roughly C(360,240)/360, far beyond 64-bit


def _moebius_comb_sum(l, k, g):
    return sum(moebius(m) * math.comb(l // m, k // m) for m in divisors(g))


@pytest.mark.parametrize("argv, expected", [
    (("lyndon", "count", "--length", "20000", "--bcount", "10000"),
     lambda: _moebius_comb_sum(20000, 10000, 10000) // 20000),
    # omega = (36000 * 5 + 24000 * 9) / 440 = 900, so the sum runs over gcd 300.
    (("count", "--n", "440", "--a", "5", "--b", "14", "--length", "36000", "--bcount", "24000"),
     lambda: 440 * _moebius_comb_sum(36000, 24000, 300) // 36000),
], ids=["lyndon", "count"])
def test_counts_past_the_int_str_digit_limit_are_printed(capsys, argv, expected):
    has_limit = hasattr(sys, "get_int_max_str_digits")
    if has_limit:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)
    try:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        printed = json.loads(out)["count"] if argv[0] == "count" else out.strip()
        if has_limit:
            assert sys.get_int_max_str_digits() == 4321
            sys.set_int_max_str_digits(0)
        assert printed == str(expected())
        assert len(printed) > 4321
    finally:
        if has_limit:
            sys.set_int_max_str_digits(limit)


def test_lyndon_bad_bcount_exits_2(capsys):
    code, _, err = run_cli(capsys, "lyndon", "count", "--length", "3", "--bcount", "5")
    assert code == 2
    assert "0 <= k <= l" in err


def test_lyndon_list_budget_exits_4(capsys, monkeypatch):
    monkeypatch.setenv("CIRCORBITS_BUDGET", "100")
    code, _, err = run_cli(capsys, "lyndon", "list", "--length", "20", "--bcount", "10")
    assert code == 4
    assert "budget" in err


def test_invariant_violation_exits_5(capsys, monkeypatch):
    # a wrong binomial makes 21 * C / 15 non-integral, which the count refuses to print
    monkeypatch.setattr(counting, "binomial", lambda x, y: 1)
    code, out, err = run_cli(capsys, "count", "--n", "21", "--a", "4", "--b", "10",
                             "--length", "15", "--bcount", "4")
    assert code == 5
    assert out == ""
    assert "invariant violated" in err and "non-integral" in err


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


@pytest.mark.parametrize("with_bcount", [False, True], ids=["every-bcount", "bcount"])
@pytest.mark.parametrize("primitive_only", [False, True], ids=["all", "primitive-only"])
@pytest.mark.parametrize("steps", [(9, 1, 4), (12, 1, 10)], ids=["b-below-10", "comma-steps"])
def test_enumerate_lines_are_json(capsys, steps, primitive_only, with_bcount):
    # b-count 3 closes at length 9 on both graphs
    G = CirculantGraph(*steps)
    argv = ["enumerate", "--n", str(G.n), "--a", str(G.a), "--b", str(G.b), "--length", "9"]
    argv += ["--bcount", "3"] * with_bcount + ["--primitive-only"] * primitive_only
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert all(json.dumps(json.loads(line)) == line for line in lines)
    orbits = enumerate_orbits(G, 9, 3 if with_bcount else None)
    shown = [o for o in orbits if o.is_primitive() or not primitive_only]
    assert [json.loads(line) for line in lines[:-1]] == [
        {"start": o.start, "steps": to_step_string(o.steps, G.a, G.b), "l": o.l, "k": o.k,
         "omega": o.omega, "repetition": o.repetition} for o in shown]
    assert len(shown) > 10
    assert any("," in json.loads(line)["steps"] for line in lines[:-1]) == (G.b >= 10)


def test_enumerate_budget_exits_4(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "9", "--a", "1", "--b", "4",
                           "--length", "9", "--budget", "10")
    assert code == 4
    assert "budget" in err


@pytest.mark.parametrize("argv, message", [
    # one word, but presented from 5 starts in 40000 ways as 40000-bit keys
    (("--n", "5", "--a", "1", "--b", "2", "--length", "40000", "--bcount", "0"),
     "costs at least 8000000000 > budget 268435456"),
    # refused on l*l*n before C(10^6, 5 * 10^5), which alone takes minutes
    (("--n", "5", "--a", "1", "--b", "2", "--length", "1000000", "--bcount", "500000"),
     "costs at least 5000000000000 > budget 268435456"),
    # l*l*n = 729 fits; 2**9 words charge 512 * 9 * 9
    (("--n", "9", "--a", "1", "--b", "4", "--length", "9", "--budget", "1000"),
     "costs at least 41472 > budget 1000 (max(W, l)*n*l for W candidate words)"),
], ids=["one-long-word", "huge-binomial", "word-count"])
def test_enumerate_budget_charge(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (4, "")
    assert message in err


@pytest.mark.parametrize("argv, env, message", [
    (("enumerate", "--n", "9", "--a", "1", "--b", "4", "--length", "9", "--budget", "0"),
     None, "budget must be >= 1, got 0"),
    (("verify", "--nmax", "5", "--lmax", "6", "--budget", "-1"),
     None, "budget must be >= 1, got -1"),
    (("enumerate", "--n", "9", "--a", "1", "--b", "4", "--length", "9"),
     "0", "CIRCORBITS_BUDGET must be >= 1, got 0"),
], ids=["enumerate-flag", "verify-flag", "environment"])
def test_nonpositive_budget_exits_2(capsys, monkeypatch, argv, env, message):
    if env is not None:
        monkeypatch.setenv("CIRCORBITS_BUDGET", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
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


@pytest.mark.parametrize("lmax", ["0", "-2"])
def test_verify_lmax_below_1_exits_2(capsys, lmax):
    code, out, err = run_cli(capsys, "verify", "--nmax", "5", "--lmax", lmax)
    assert code == 2
    assert out == ""
    assert f"l_max must be >= 1, got {lmax}" in err


def test_verify_budget_exits_4_with_the_enumeration_message(capsys):
    # C_3(1,2) is swept first; at length 12 it is charged 2**12 * 3 * 12 = 147456
    with pytest.raises(BudgetExceeded) as excinfo:
        enumerate_orbits(CirculantGraph(3, 1, 2), 12, budget=100000)
    code, out, err = run_cli(capsys, "verify", "--nmax", "8", "--lmax", "12",
                             "--budget", "100000")
    assert (code, out) == (4, "")
    assert err == f"error: {excinfo.value}\n"
    assert "enumerating length 12 on C_3(1,2) costs at least 147456 > budget 100000" in err


def test_verify_failure_report_is_unchanged(capsys, monkeypatch):
    # Each formula the sweep checks is off by one on a few (graph, length)
    # cases, so all five mismatch kinds are reported. The digest pins the
    # whole failing report: check count, mismatch entries and their key
    # order, first_mismatch and every case's ok flag.
    def off_by_one(fn, targets, bump):
        def patched(G, l, *rest):
            result = fn(G, l, *rest)
            return bump(result) if (G.n, G.a, G.b, l) in targets else result
        return patched

    def bump_report(report):
        return report._replace(count=report.count + 1)

    monkeypatch.setattr(oracle, "count_orbits_lk", off_by_one(
        oracle.count_orbits_lk, {(4, 1, 3, 4), (5, 1, 2, 5)}, bump_report))
    monkeypatch.setattr(oracle, "count_orbits_lk_unreduced", off_by_one(
        oracle.count_orbits_lk_unreduced, {(5, 2, 3, 5)}, bump_report))
    monkeypatch.setattr(oracle, "count_orbits_l", off_by_one(
        oracle.count_orbits_l, {(4, 1, 2, 4)}, lambda r: (r[0] + 1, r[1])))
    predicted = oracle.predicted_repetition
    monkeypatch.setattr(oracle, "predicted_repetition", lambda G, w: predicted(G, w) + (
        (G.n, G.a, G.b, len(w)) == (5, 1, 4, 4)))

    code, out, _ = run_cli(capsys, "verify", "--nmax", "5", "--lmax", "5")
    assert code == 1
    report = json.loads(out)
    assert {m["kind"] for m in report["mismatches"]} == {
        "reduced-vs-oracle", "unreduced-vs-reduced", "total-vs-oracle",
        "total-vs-classes", "repetition-law"}
    assert (report["checks"], len(report["mismatches"])) == (491, 30)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "eaa104054259472ff5548443e44d667c9717a3ee301bcc9eed452e010816c3ec")


def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "5", "--steps", "1,4")
    assert code == 0
    assert out.count("->") == 10

    code, out, _ = run_cli(capsys, "graph", "--n", "8", "--steps", "1,2,3")
    assert code == 0
    assert out.count("->") == 24

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
], ids=["lyndon-letter", "lyndon-empty-part", "lyndon-two-parts",
        "graph-letter", "graph-empty-part", "graph-empty"])
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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "circorbits", "count", "--n", "21", "--a", "4",
         "--b", "10", "--length", "15"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == "3822"
