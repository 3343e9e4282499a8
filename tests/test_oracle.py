import json
import math
import os
import pickle
import sys
import threading
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from circorbits import (
    BudgetExceeded,
    CirculantGraph,
    InvariantViolated,
    NotLatticePoint,
    RejectedParameters,
    bcounts_for_length,
    count_lyndon,
    count_orbits_lk,
    decompose,
    enumerate_orbits,
    list_lyndon,
    connected_graphs,
    counting,
    numtheory,
    oracle,
    phi,
    verify_range,
    words,
)
from circorbits.cli import main

from brute import enumerate_orbits_reference, is_lyndon, string_rotations, walk


def test_phi_examples():
    G9 = CirculantGraph(9, 1, 4)
    o = phi(G9, "aab" * 3, 0)
    assert (len(o.steps), o.steps.count("b"), o.omega, o.repetition) == (9, 3, 2, 1)
    assert o.is_primitive()

    # same bond multiset, different step orders: distinct orbits
    assert phi(G9, "aaaaaabbb", 0) != phi(G9, "aaaababab", 8)

    G5 = CirculantGraph(5, 1, 4)
    assert phi(G5, "a" * 10, 0).repetition == 2


def test_phi_rejects_open_words():
    with pytest.raises(NotLatticePoint):
        phi(CirculantGraph(9, 1, 4), "aab", 0)


def test_phi_refuses_presentations_that_disagree_with_the_repetition(monkeypatch):
    # A circuit has l / repetition presentations; correct code cannot reach
    # the check, so a repetition one too large is injected.
    circuit = oracle._circuit

    def off_by_one(G, l, x):
        rots, res, repetition = circuit(G, l, x)
        return rots, res, repetition + 1

    monkeypatch.setattr(oracle, "_circuit", off_by_one)
    with pytest.raises(InvariantViolated, match="presentations"):
        phi(CirculantGraph(9, 1, 4), "aaaaaabbb", 0)


def test_phi_is_rotation_invariant():
    # On C_7(1,3) a word closes when l + 2k = 0 (mod 7): k = 1, 4, 3, 0 (mod 7)
    # at l = 5, 6, 8, 7. "abbabb" and "aaaaaaa" are proper powers.
    G = CirculantGraph(7, 1, 3)
    words = ("aaaab", "ababbb", "abbabb", "aabaabab", "aaaaaaa")
    checked = 0
    for w in words:
        if (len(w) * G.a + w.count("b") * G.d) % G.n:
            continue
        base = phi(G, w, 2)
        path = walk(*G, 2, w)
        for s, rotated in enumerate(string_rotations(w)):
            assert phi(G, rotated, path[s]) == base
        checked += 1
    assert checked == len(words)


def test_enumerate_class_examples():
    G9 = CirculantGraph(9, 1, 4)
    orbits = enumerate_orbits(G9, 9, 3)
    assert len(orbits) == 84
    assert all(o.is_primitive() for o in orbits)

    G5 = CirculantGraph(5, 1, 4)
    assert [(o.start, o.steps) for o in enumerate_orbits(G5, 5)] == [
        (0, "aaaaa"),
        (0, "bbbbb"),
    ]
    assert enumerate_orbits(G5, 1) == []


def test_enumerate_lyndon_representatives():
    # orbits whose canonical presentation starts at 0 with a Lyndon word
    # are exactly the images of the Lyndon words based at vertex 0
    G9 = CirculantGraph(9, 1, 4)
    orbits = enumerate_orbits(G9, 9, 3)
    lyndon_orbits = {o for o in orbits if o.start == 0 and is_lyndon(o.steps)}
    expected = {phi(G9, w, 0) for w in list_lyndon(9, 3)}
    assert lyndon_orbits == expected
    assert len(lyndon_orbits) == 9


def test_enumerate_counts_presentations_once():
    # every orbit of length l has exactly l / repetition raw presentations
    for G in (CirculantGraph(6, 1, 2), CirculantGraph(7, 2, 5)):
        for l in range(1, 9):
            orbits = enumerate_orbits(G, l)
            presentations = sum(l // o.repetition for o in orbits)
            closed_words = sum(
                1
                for k in range(l + 1)
                if (l * G.a + k * G.d) % G.n == 0
                for _ in combinations(range(l), k)
            )
            assert presentations == closed_words * G.n


def test_repetition_divides_length_bcount_winding():
    for G in (CirculantGraph(5, 1, 4), CirculantGraph(9, 1, 4), CirculantGraph(8, 2, 3)):
        for l in range(1, 11):
            for o in enumerate_orbits(G, l):
                assert len(o.steps) % o.repetition == 0
                assert o.steps.count("b") % o.repetition == 0
                assert o.omega % o.repetition == 0


def test_enumerate_dedup_soundness():
    # rotations of a circuit land in the same orbit, and each canonical
    # form appears exactly once in the output
    G = CirculantGraph(6, 1, 2)
    orbits = enumerate_orbits(G, 6)
    assert len(orbits) == len(set(orbits))
    for o in orbits:
        path = walk(*G, o.start, o.steps)
        for s, rotated in enumerate(string_rotations(o.steps)):
            assert phi(G, rotated, path[s]) == o


def test_enumerate_budget(monkeypatch):
    G = CirculantGraph(9, 1, 4)
    monkeypatch.setenv("CIRCORBITS_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        enumerate_orbits(G, 9)
    monkeypatch.setenv("CIRCORBITS_BUDGET", str(10**6))
    assert len(enumerate_orbits(G, 9, 3)) == 84


def test_enumerate_validates_arguments():
    G = CirculantGraph(9, 1, 4)
    with pytest.raises(ValueError):
        enumerate_orbits(G, 0)
    with pytest.raises(ValueError):
        enumerate_orbits(G, 4, 5)


def test_phi_injective_on_lyndon_pairs():
    # distinct (Lyndon word, start vertex) pairs give distinct orbits
    for n in range(3, 10):
        for a in range(1, n - 1):
            for b in range(a + 1, n):
                G = CirculantGraph(n, a, b)
                if not G.is_strongly_connected():
                    continue
                for l in range(1, 11):
                    for c in bcounts_for_length(G, l):
                        pairs = [(w, v) for w in list_lyndon(c.l, c.k) for v in range(n)]
                        images = {phi(G, w, v) for w, v in pairs}
                        assert len(images) == len(pairs), (G, c)


def test_phi_bijective_on_repetition_blocks():
    # powers of Lyndon words with repetition coprime to the winding number,
    # based at the reduced vertex set, hit every primitive orbit exactly once
    for n in range(3, 10):
        for a in range(1, n - 1):
            for b in range(a + 1, n):
                G = CirculantGraph(n, a, b)
                if not G.is_strongly_connected():
                    continue
                for l in range(1, 11):
                    for c in bcounts_for_length(G, l):
                        gamma = math.gcd(c.l, c.k)
                        domain = []
                        for q in (d for d in range(1, gamma + 1) if gamma % d == 0):
                            if math.gcd(q, c.omega) != 1:
                                continue
                            for x in list_lyndon(c.l // q, c.k // q):
                                for v in range(n // q):
                                    domain.append((x * q, v))
                        images = [phi(G, w, v) for w, v in domain]
                        primitive = {
                            o for o in enumerate_orbits(G, c.l, c.k) if o.is_primitive()
                        }
                        assert len(set(images)) == len(domain), (G, c)
                        assert set(images) == primitive, (G, c)


def test_verify_range_small_all_pass():
    report = verify_range(5, 6)
    assert report["passed"]
    assert report["mismatches"] == []
    assert report["first_mismatch"] is None
    assert report["graphs"] == 10
    assert all(case["ok"] for case in report["case_results"])


def test_verify_range_degenerate_is_empty():
    report = verify_range(2, 5)
    assert report["passed"]
    assert report["graphs"] == 0
    assert report["cases"] == 0


@pytest.mark.parametrize("l_max", [0, -2])
def test_verify_range_refuses_l_max_below_1(monkeypatch, l_max):
    monkeypatch.setattr(oracle, "connected_graphs", None)  # refused before the sweep starts
    with pytest.raises(RejectedParameters, match=f"l_max must be >= 1, got {l_max}"):
        verify_range(5, l_max)
    # the budget is resolved first
    monkeypatch.setenv("CIRCORBITS_BUDGET", "0")
    with pytest.raises(ValueError, match="CIRCORBITS_BUDGET must be >= 1"):
        verify_range(5, l_max)


SWEEP_RULE = " (max(W, l)*n*l for W candidate words, summed over cases)"


def test_verify_range_with_a_huge_l_max_refuses_or_ends_at_once(monkeypatch):
    # The lengths are charged one by one: 3 * (21 * 2**23 + 2) by length 22.
    monkeypatch.delenv("CIRCORBITS_BUDGET", raising=False)
    started = time.perf_counter()
    with pytest.raises(BudgetExceeded) as refused:
        verify_range(3, 10**12)
    assert str(refused.value) == ("enumerating the sweep to length 22 on C_3(1,2) costs at least "
                                  f"528482310 > budget 268435456{SWEEP_RULE}")
    assert verify_range(2, 10**12)["graphs"] == 0
    assert time.perf_counter() - started < 5  # the lengths are not listed up front


def test_verify_range_covers_the_84_class():
    report = verify_range(9, 9)
    assert report["passed"]
    row = [c for c in report["case_results"]
           if (c["n"], c["a"], c["b"], c["l"]) == (9, 1, 4, 9)]
    assert len(row) == 1
    # 84 primitive orbits at k=3 plus the other admissible classes
    assert row[0]["orbits"] >= 84
    assert count_orbits_lk(CirculantGraph(9, 1, 4), 9, 3).count == 84


def test_verify_sums_each_swept_class_once(shares, monkeypatch):
    # One reduced Moebius sum (omega = 0) per (graph, length, b-count) class,
    # all from the one count_orbits_l call of each case, and one unreduced
    # sum per class; in process, so every call is seen.
    calls = []
    moebius_binomials = counting._moebius_binomials

    def counting_sum(l, k, g, omega):
        calls.append((l, k, omega == 0))
        return moebius_binomials(l, k, g, omega)

    monkeypatch.setattr(counting, "_moebius_binomials", counting_sum)
    shares.force(1)
    assert verify_range(9, 9)["passed"]
    assert shares.forked == []
    swept = [(c.l, c.k) for G in connected_graphs(9) for l in range(1, 10)
             for c in bcounts_for_length(G, l)]
    assert [(l, k) for l, k, reduced in calls if reduced] == swept
    assert len(swept) == 620
    assert sorted((l, k) for l, k, reduced in calls if not reduced) == sorted(swept)


def test_verify_reports_a_class_missing_from_the_class_list(monkeypatch):
    # C_5(1,2) has 5 primitive orbits of length 4, all of b-count 1. A class
    # list without (4, 1) fails that class's row as well as the length total.
    listed = counting._classes

    def without_4_1(G, lengths):
        return (c for c in listed(G, lengths) if (G.n, G.a, G.b, c.l, c.k) != (5, 1, 2, 4, 1))

    monkeypatch.setattr(counting, "_classes", without_4_1)
    case = {"n": 5, "a": 1, "b": 2, "l": 4}
    assert verify_range(5, 5)["mismatches"] == [
        {**case, "kind": "reduced-vs-oracle", "expected": "0", "actual": "5", "k": 1},
        {**case, "kind": "total-vs-oracle", "expected": "0", "actual": "5"},
    ]


def _as_tuples(orbits):
    return [(o.start, o.steps, o.omega, o.repetition) for o in orbits]


def test_enumerate_matches_string_reference_exhaustively():
    # every b-count, every connected graph with n <= 10, lengths up to 10
    for G in connected_graphs(10):
        for l in range(1, 11):
            assert _as_tuples(enumerate_orbits(G, l)) == enumerate_orbits_reference(
                G.n, G.a, G.b, l), (G, l)


@st.composite
def _graph_length_bcount(draw):
    n = draw(st.integers(min_value=3, max_value=16), label="n")
    a = draw(st.integers(min_value=1, max_value=n - 2), label="a")
    b = draw(st.integers(min_value=a + 1, max_value=n - 1), label="b")
    l = draw(st.integers(min_value=1, max_value=14), label="l")
    closing = [k for k in range(l + 1) if (l * a + k * (b - a)) % n == 0]
    k = draw(st.sampled_from(closing or list(range(l + 1))), label="k")
    return CirculantGraph(n, a, b), l, k


@settings(max_examples=100, deadline=None)
@given(_graph_length_bcount())
def test_enumerate_matches_string_reference_for_one_bcount(case):
    # connectivity is not required; k is a closing b-count whenever one exists
    G, l, k = case
    assert _as_tuples(enumerate_orbits(G, l, k)) == enumerate_orbits_reference(
        G.n, G.a, G.b, l, k)


def test_enumerate_matches_string_reference_on_disconnected_graphs():
    # every b-count, every C_n(a, b) with gcd(n, a, b) > 1 and n <= 12
    graphs = [CirculantGraph(n, a, b) for n in range(3, 13) for a in range(1, n - 1)
              for b in range(a + 1, n) if math.gcd(n, a, b) > 1]
    assert len(graphs) == 24
    for G in graphs:
        for l in range(1, 11):
            assert _as_tuples(enumerate_orbits(G, l)) == enumerate_orbits_reference(
                G.n, G.a, G.b, l), (G, l)


def test_enumerate_every_bcount_is_the_concatenation_of_single_bcounts():
    # every C_n(a, b) with n <= 10, disconnected ones included, lengths up to 10
    graphs = [CirculantGraph(n, a, b) for n in range(3, 11) for a in range(1, n - 1)
              for b in range(a + 1, n)]
    assert len(graphs) == 120
    for G in graphs:
        for l in range(1, 11):
            assert enumerate_orbits(G, l) == [
                o for k in range(l + 1) for o in enumerate_orbits(G, l, k)], (G, l)


def test_enumeration_needs_no_formula_routine(monkeypatch, capsys):
    # The oracle's independence: with every numtheory function, the Moebius
    # sums and the Lyndon generator made to raise wherever the package binds
    # them, enumerate_orbits and the CLI enumerate answer as before.
    cases = [(CirculantGraph(9, 1, 4), 9, None), (CirculantGraph(4, 1, 3), 8, None),
             (CirculantGraph(12, 3, 10), 9, 3), (CirculantGraph(10, 2, 5), 10, 0)]

    def answers():
        out = []
        for G, l, k in cases:
            bcount = [] if k is None else ["--bcount", str(k)]
            code = main(["enumerate", "--n", str(G.n), "--a", str(G.a), "--b", str(G.b),
                         "--length", str(l), *bcount])
            out.append((enumerate_orbits(G, l, k), code, capsys.readouterr()))
        return out

    unpatched = answers()

    def refuse(*args):
        raise AssertionError("enumeration called a formula routine")

    banned = [f for f in vars(numtheory).values()
              if callable(f) and getattr(f, "__module__", None) == numtheory.__name__]
    banned += [words._moebius_binomials, words.list_lyndon]
    patched = set()
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "circorbits":
            for attr, value in list(vars(module).items()):
                if any(value is f for f in banned):
                    monkeypatch.setattr(module, attr, refuse)
                    patched.add(f"{name}.{attr}")
    assert {"circorbits.numtheory.binomial", "circorbits.numtheory.block_divisors",
            "circorbits.numtheory._factor", "circorbits.words.binomial",
            "circorbits.words._moebius_binomials", "circorbits.counting._moebius_binomials",
            "circorbits.words.list_lyndon", "circorbits.cli.list_lyndon"} <= patched
    with pytest.raises(AssertionError, match="formula routine"):
        count_lyndon(9, 3)
    assert answers() == unpatched


def test_repetition_law_mismatches_follow_enumeration_order(monkeypatch):
    # A prediction that is wrong for every orbit: the report must list one
    # repetition-law entry per orbit, in the order enumerate_orbits gives.
    predicted = oracle.predicted_repetition
    monkeypatch.setattr(oracle, "predicted_repetition",
                        lambda G, w: predicted(G, w) + decompose(w).repetition)
    report = verify_range(6, 8)
    expected = [
        {"n": G.n, "a": G.a, "b": G.b, "l": l, "kind": "repetition-law",
         "expected": str(predicted(G, o.steps) + decompose(o.steps).repetition),
         "actual": str(o.repetition), "k": o.steps.count("b")}
        for G in connected_graphs(6) for l in range(1, 9) for o in enumerate_orbits(G, l)
    ]
    got = [m for m in report["mismatches"] if m["kind"] == "repetition-law"]
    assert len(got) == len(expected) > 1000
    assert got == expected
    assert report["mismatches"] == got  # the formula rows still all agree


def test_verify_case_orbits_match_enumeration():
    report = verify_range(7, 9)
    graphs = {(G.n, G.a, G.b): G for G in connected_graphs(7)}
    assert len(report["case_results"]) == 9 * len(graphs)
    for case in report["case_results"]:
        G = graphs[case["n"], case["a"], case["b"]]
        assert case["orbits"] == len(enumerate_orbits(G, case["l"])), case


@pytest.mark.parametrize("n_max, l_max, graphs", [(9, 9, 79), (3, 7, 1), (2, 5, 0)])
def test_verify_report_is_the_same_in_every_share_count(shares, n_max, l_max, graphs):
    reports = set()
    for k in (1, 2, 3):
        shares.force(k)
        reports.add(json.dumps(verify_range(n_max, l_max)))
        assert len(shares.forked) == max(min(k, graphs) - 1, 0)  # no share is empty
        shares.assert_reaped()
    assert len(reports) == 1
    assert json.loads(reports.pop())["graphs"] == graphs


@pytest.mark.parametrize("failure", ["unpicklable", "fork"])
def test_share_without_a_worker_result_is_swept_here(shares, monkeypatch, failure):
    expected = verify_range(6, 5)
    shares.force(3)
    if failure == "unpicklable":
        def dumps(obj):
            raise pickle.PicklingError("no")

        monkeypatch.setattr(pickle, "dumps", dumps)
    else:  # the second fork fails as it does when the process limit is reached
        fork = os.fork

        def once():
            if shares.forked:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", once)
    assert verify_range(6, 5) == expected
    assert len(shares.forked) == (2 if failure == "unpicklable" else 1)
    shares.assert_reaped()


@pytest.mark.parametrize("host", ["threads", "no-fork", "below-break-even"])
def test_sweep_stays_in_process(shares, monkeypatch, host):
    expected, break_even = verify_range(6, 5), oracle._FORK_MIN_WORK
    shares.force(2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if host == "threads":  # fork would copy this thread's locks, not the thread
        thread.start()
    elif host == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:  # the sweep's 19 graphs at lengths 1..5 are charged 25542 in all
        monkeypatch.setattr(oracle, "_FORK_MIN_WORK", break_even)
    try:
        assert verify_range(6, 5) == expected
    finally:
        done.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert shares.forked == []
    shares.assert_reaped()


# Of the 19 graphs of verify_range(6, 8), 3 and 4 lie in shares 1 and 0 of
# two and in shares 0 and 1 of three; 5 and 7 lie in worker shares only.
@pytest.mark.parametrize("failing", [(3, 4), (5, 7)], ids=["share-0", "workers"])
def test_first_exception_in_sweep_order_is_raised_from_any_share(shares, monkeypatch,
                                                                failing):
    graphs = list(connected_graphs(6))
    names = {graphs[i]: f"graph {i}" for i in failing}
    check = oracle._check_graph

    def check_graph(G, l_max):
        if G in names:
            raise InvariantViolated(names[G])
        return check(G, l_max)

    monkeypatch.setattr(oracle, "_check_graph", check_graph)
    for k in (1, 2, 3):
        shares.force(k)
        with pytest.raises(InvariantViolated, match=f"^graph {failing[0]}$"):
            verify_range(6, 8)
        assert len(shares.forked) == k - 1
        shares.assert_reaped()


def test_fork_work_is_the_sum_of_the_case_charges(monkeypatch):
    work = []
    monkeypatch.setattr(oracle, "_shares", lambda graphs, w: work.append(w) or 1)
    monkeypatch.setattr(oracle, "_check_graph", lambda G, l_max: ([], [], 0))
    # the brute-force workload's verify requests, then the sweep of test_sweep_stays_in_process
    sweeps = [(n_max, l_max) for n_max in range(5, 10) for l_max in range(7, 12)] + [(6, 5)]
    for n_max, l_max in sweeps:
        verify_range(n_max, l_max)
    assert work == [sum(G.n for G in connected_graphs(n_max)) *
                    sum(l << l for l in range(1, l_max + 1)) for n_max, l_max in sweeps]
    assert work[-1] == 25542
    assert [s for s, w in zip(sweeps[:-1], work) if w <= oracle._FORK_MIN_WORK] == [(5, 7)]


def _listing(graphs, listed):
    """connected_graphs for a sweep that records each graph it lists."""
    def connected(n_max):
        for G in graphs(n_max):
            listed.append(G)
            yield G
    return connected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(0, 8), st.integers(1, 14))
def test_verify_refuses_the_first_case_enumeration_refuses(budget, n_max, l_max):
    # The sweep's charge is the running sum, case by case in sweep order, of
    # every case as enumerate_orbits charges it, max(2^l, l)*n*l. It refuses
    # at the first case that takes the sum past the budget, lists no graph
    # after that case's and checks none.
    graphs = list(connected_graphs(n_max))
    first, total = None, 0
    for i, G in enumerate(graphs):
        for l in range(1, l_max + 1):
            total += max(2**l, l) * G.n * l
            if first is None and total > budget:
                first = (i, f"enumerating the sweep to length {l} on C_{G.n}({G.a},{G.b}) costs "
                            f"at least {total} > budget {budget}{SWEEP_RULE}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CIRCORBITS_BUDGET", str(budget))
        listed = []
        mp.setattr(oracle, "connected_graphs", _listing(connected_graphs, listed))
        mp.setattr(oracle, "_sweep", lambda graphs, l_max, work: [])  # no case is checked
        if first is None:
            assert verify_range(n_max, l_max)["passed"]
            assert listed == graphs
        else:
            with pytest.raises(BudgetExceeded) as refused:
                verify_range(n_max, l_max)
            assert str(refused.value) == first[1]
            assert listed == graphs[:first[0] + 1]


def test_verify_charges_each_graph_as_it_is_listed(monkeypatch):
    # The default budget refuses C_3(1,2), the first graph, at length 22, so
    # the sweep must not list the other connected graphs up to 200 (seconds
    # and 100 MB). Under a budget of 1000 at l_max = 1 each graph adds 2n, and
    # the running sum first passes it at the 69th graph, C_9(3,8).
    listed = []
    monkeypatch.setattr(oracle, "connected_graphs", _listing(connected_graphs, listed))
    monkeypatch.delenv("CIRCORBITS_BUDGET", raising=False)
    with pytest.raises(BudgetExceeded) as refused:
        verify_range(200, 30)
    assert str(refused.value) == (
        "enumerating the sweep to length 22 on C_3(1,2) costs at least 528482310 > "
        f"budget 268435456{SWEEP_RULE}")
    assert listed == [CirculantGraph(3, 1, 2)]
    listed.clear()
    monkeypatch.setenv("CIRCORBITS_BUDGET", "1000")
    with pytest.raises(BudgetExceeded, match=r"^enumerating the sweep to length 1 on C_9\(3,8\) "
                                             r"costs at least 1002 > budget 1000 "):
        verify_range(200, 1)
    assert len(listed) == 69 and sum(2 * G.n for G in listed) == 1002


def test_interrupted_parent_kills_and_reaps_its_workers(shares, monkeypatch):
    parent = os.getpid()

    def check_graph(G, l_max):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    shares.force(3)
    monkeypatch.setattr(oracle, "_check_graph", check_graph)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify_range(5, 5)
    assert time.perf_counter() - start < 30
    assert len(shares.forked) == 2
    shares.assert_reaped()
