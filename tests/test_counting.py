import itertools
import math
import os
import random
import time
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from circorbits import (
    BudgetExceeded,
    CirculantGraph,
    CountTerm,
    DisconnectedGraph,
    InvariantViolated,
    NotLatticePoint,
    bcounts_for_length,
    binomial,
    connected_graphs,
    count_lyndon,
    count_nonprimitive,
    count_orbits_l,
    count_orbits_lk,
    count_orbits_lk_unreduced,
    divisors,
    numtheory,
    predicted_repetition,
    sum_reduction_check,
    words,
)
from circorbits.counting import OrbitCountReport, _finish

from brute import closed_walks_binomial, closed_walks_polynomial, naive_divisors, naive_mu


def test_reduced_big_example():
    G = CirculantGraph(440, 5, 14)
    report = count_orbits_lk(G, 360, 240)
    assert report.omega == 9
    assert [(t.m, t.mu) for t in report.terms] == [(1, 1), (3, -1)]
    expected = 440 * (math.comb(360, 240) - math.comb(120, 80)) // 360
    assert report.count == expected


def test_reduced_small_examples():
    G9 = CirculantGraph(9, 1, 4)
    report = count_orbits_lk(G9, 9, 3)
    assert report.count == 84
    assert report.omega == 2
    assert [(t.m, t.mu) for t in report.terms] == [(1, 1)]

    G5 = CirculantGraph(5, 1, 4)
    report = count_orbits_lk(G5, 3, 1)
    assert report.count == 0
    assert report.omega is None
    assert report.terms == ()


def test_reduced_requires_connected_and_valid_lk():
    with pytest.raises(DisconnectedGraph):
        count_orbits_lk(CirculantGraph(12, 2, 4), 6, 3)
    G = CirculantGraph(5, 1, 4)
    with pytest.raises(ValueError):
        count_orbits_lk(G, 0, 0)
    with pytest.raises(ValueError):
        count_orbits_lk(G, 3, 4)


def test_total_examples():
    total, reports = count_orbits_l(CirculantGraph(21, 4, 10), 15)
    assert total == 3822
    assert [(r.k, r.omega, r.count) for r in reports] == [(4, 4, 1911), (11, 6, 1911)]

    G5 = CirculantGraph(5, 1, 4)
    assert count_orbits_l(G5, 1)[0] == 0
    assert count_orbits_l(G5, 5)[0] == 2


def test_unreduced_big_example_q_blocks():
    G = CirculantGraph(440, 5, 14)
    reduced = count_orbits_lk(G, 360, 240)
    unreduced = count_orbits_lk_unreduced(G, 360, 240)
    assert unreduced.count == reduced.count
    assert sorted({t.q for t in unreduced.terms}) == [1, 2, 4, 5, 8, 10, 20, 40]


def test_unreduced_matches_lyndon_block_sum():
    G = CirculantGraph(9, 1, 4)
    report = count_orbits_lk_unreduced(G, 9, 3)
    assert report.count == 84
    # per-block totals are (n/q) * (Lyndon count at (l/q, k/q))
    assert 9 * count_lyndon(9, 3) + 3 * count_lyndon(3, 1) == 84

    G7 = CirculantGraph(7, 1, 3)
    single = count_orbits_lk_unreduced(G7, 3, 2)
    assert {t.q for t in single.terms} == {1}
    assert single.count == count_orbits_lk(G7, 3, 2).count


def test_unreduced_rejects_non_lattice_points():
    with pytest.raises(NotLatticePoint):
        count_orbits_lk_unreduced(CirculantGraph(5, 1, 4), 3, 1)


def test_reduced_equals_unreduced_sweep():
    for G in connected_graphs(12):
        for l in range(1, 25):
            for c in bcounts_for_length(G, l):
                red = count_orbits_lk(G, c.l, c.k)
                unred = count_orbits_lk_unreduced(G, c.l, c.k)
                assert red.count == unred.count, (G, c)
                # integrality guard: l divides n * (signed term sum) on both routes
                for rep in (red, unred):
                    assert G.n * sum(t.mu * t.binomial for t in rep.terms) == rep.count * c.l


def test_unreduced_terms_are_the_repetition_blocks():
    # Block q | gamma coprime to omega, then squarefree m | gamma/q, both increasing.
    for G in connected_graphs(12):
        for l in range(1, 25):
            for c in bcounts_for_length(G, l):
                gamma = math.gcd(l, c.k)
                expected = [(q, m, naive_mu(m), math.comb(l // (q * m), c.k // (q * m)))
                            for q in naive_divisors(gamma) if math.gcd(q, c.omega) == 1
                            for m in naive_divisors(gamma // q) if naive_mu(m)]
                terms = count_orbits_lk_unreduced(G, l, c.k).terms
                assert [(t.q, t.m, t.mu, t.binomial) for t in terms] == expected, (G, c)


def test_count_orbits_l_with_the_unreduced_counter():
    for G in connected_graphs(12):
        for l in range(1, 13):
            total, reports = count_orbits_l(G, l)
            u_total, u_reports = count_orbits_l(G, l, count_orbits_lk_unreduced)
            assert u_total == total, (G, l)
            assert ([(r.l, r.k, r.omega, r.count) for r in u_reports]
                    == [(r.l, r.k, r.omega, r.count) for r in reports]), (G, l)
            assert all(t.q is not None for r in u_reports for t in r.terms), (G, l)


def test_count_equals_lyndon_bijection_sum():
    for G in connected_graphs(12):
        for l in range(1, 25):
            for c in bcounts_for_length(G, l):
                gamma = math.gcd(c.l, c.k)
                expected = sum(
                    (G.n // q) * count_lyndon(c.l // q, c.k // q)
                    for q in divisors(gamma)
                    if math.gcd(q, c.omega) == 1
                )
                assert count_orbits_lk(G, c.l, c.k).count == expected, (G, c)


def test_totals_decompose_over_classes():
    for G in connected_graphs(10):
        for l in range(1, 13):
            total, reports = count_orbits_l(G, l)
            assert total == sum(r.count for r in reports)


def test_sum_reduction_examples():
    f = {t: binomial(360 // t, 240 // t) for t in divisors(120)}
    lhs, rhs = sum_reduction_check(120, 9, f)
    assert lhs == rhs == math.comb(360, 240) - math.comb(120, 80)

    f1 = {1: 7}
    assert sum_reduction_check(1, 5, f1) == (7, 7)

    f12 = {t: t for t in divisors(12)}
    assert sum_reduction_check(12, 4, f12) == (-1, -1)


def test_sum_reduction_validates_inputs():
    with pytest.raises(ValueError):
        sum_reduction_check(0, 1, {1: 1})
    with pytest.raises(ValueError):
        sum_reduction_check(1, 0, {1: 1})


def test_sum_reduction_random_functions():
    rng = random.Random(1729)
    for _ in range(200):
        gamma = rng.randint(1, 120)
        omega = rng.randint(1, 60)
        f = {t: rng.randint(-10**6, 10**6) for t in divisors(gamma)}
        lhs, rhs = sum_reduction_check(gamma, omega, f)
        assert lhs == rhs


def test_predicted_repetition_examples():
    G9 = CirculantGraph(9, 1, 4)
    assert predicted_repetition(G9, "aab" * 3) == 1

    G5 = CirculantGraph(5, 1, 4)
    assert predicted_repetition(G5, "a" * 10) == 2
    assert predicted_repetition(G5, "ab") == 1  # primitive closing word

    with pytest.raises(NotLatticePoint):
        predicted_repetition(G5, "aba")


def test_non_integral_finish_raises_invariant_violated():
    # 9 * 1 is not a multiple of l = 7: a formula bug, reported even under python -O
    G = CirculantGraph(9, 1, 4)
    with pytest.raises(InvariantViolated, match="non-integral"):
        _finish(G, 7, 2, 1, [CountTerm(1, 1, 1)])
    with pytest.raises(InvariantViolated):
        _finish(G, 9, 3, 2, [CountTerm(1, -1, 1)])
    assert _finish(G, 9, 3, 2, [CountTerm(1, 1, 84)]).count == 84


def test_negative_winding_number_raises_invariant_violated():
    # 0 < a < b makes every winding number positive; correct code cannot
    # break that, so a graph reports d = -b. On C_5(1,2) at l = k = 5 that
    # gives 5*1 + 5*(-2) = -5 = -1 * n.
    class NegativeD(CirculantGraph):
        d = property(lambda self: -self.b)

    with pytest.raises(InvariantViolated, match=r"^winding number -1 < 1 for l=5, k=5$"):
        count_orbits_lk(NegativeD(5, 1, 2), 5, 5)


def _closed_walks_from_counts(G, l):
    # Each primitive orbit of length m | l gives m closed walks of length l.
    return sum(m * count_orbits_l(G, m)[0] for m in divisors(l))


def test_closed_walk_identity_against_polynomial():
    for G in connected_graphs(9):
        for l in range(1, 40):
            expected = closed_walks_polynomial(G.n, G.a, G.b, l)
            assert _closed_walks_from_counts(G, l) == expected, (G, l)
            assert closed_walks_binomial(G.n, G.a, G.b, l) == expected, (G, l)


@st.composite
def _connected_graph_and_class_length(draw):
    # l is a multiple of gcd(n, b - a): any other length has no classes.
    n = draw(st.integers(min_value=3, max_value=300), label="n")
    a = draw(st.integers(min_value=1, max_value=n - 2), label="a")
    b = draw(st.integers(min_value=a + 1, max_value=n - 1), label="b")
    assume(math.gcd(n, a, b) == 1)
    h = math.gcd(n, b - a)
    return CirculantGraph(n, a, b), h * draw(st.integers(1, 10**4 // h), label="l // h")


@settings(max_examples=25, deadline=None)
@given(_connected_graph_and_class_length())
def test_closed_walk_identity_at_scale(case):
    # sum over m | l of m * P(m) = tr(A^l), with P(m) the formula total
    G, l = case
    assert _closed_walks_from_counts(G, l) == closed_walks_binomial(G.n, G.a, G.b, l)


@settings(max_examples=25, deadline=None)
@given(_connected_graph_and_class_length())
def test_reduced_equals_unreduced_at_scale(case):
    G, l = case
    for c in bcounts_for_length(G, l):
        assert count_orbits_lk(G, l, c.k).count == count_orbits_lk_unreduced(G, l, c.k).count, c


@pytest.mark.parametrize("l", [360, 720, 840, 1260, 2520])
def test_reduced_equals_unreduced_at_composite_lengths(l):
    # Highly composite lengths give classes with a large gcd(l, k), so the
    # unreduced route sums many repetition blocks q; random draws rarely do.
    # A block q divides l*a + k*d = omega*n and is coprime to omega, so q | n:
    # large blocks need an n with large divisors.
    for G in (CirculantGraph(7, 1, 3), CirculantGraph(13, 2, 7), CirculantGraph(21, 4, 10),
              CirculantGraph(11, 1, 2), CirculantGraph(30, 7, 13), CirculantGraph(40, 3, 7),
              CirculantGraph(60, 7, 13)):
        for c in bcounts_for_length(G, l):
            assert count_orbits_lk(G, l, c.k).count == count_orbits_lk_unreduced(G, l, c.k).count, (G, c)


def test_formula_charge_comes_after_the_existing_refusals(monkeypatch):
    # (15, 4) closes on C_21(4,10) and is charged min(4, 11) * bits(15) = 16.
    monkeypatch.setenv("CIRCORBITS_BUDGET", "16")
    G = CirculantGraph(21, 4, 10)
    assert count_lyndon(15, 4) == 91 and count_orbits_lk(G, 15, 4).count == 1911
    monkeypatch.setenv("CIRCORBITS_BUDGET", "15")
    line = r"^binomials of \(l=15, k=4\) charge 16 > budget 15 \(min\(k, l-k\) \* bits\(l\)\)$"
    for count in (count_lyndon, count_nonprimitive):
        with pytest.raises(BudgetExceeded, match=line):
            count(15, 4)
    for counter in (count_orbits_lk, count_orbits_lk_unreduced):
        with pytest.raises(BudgetExceeded, match=line):
            counter(G, 15, 4)
    # Range, connectivity and lattice-point refusals come first; off the
    # lattice the reduced count is a free zero report.
    monkeypatch.setenv("CIRCORBITS_BUDGET", "1")
    with pytest.raises(ValueError, match="0 <= k <= l"):
        count_lyndon(3, 5)
    with pytest.raises(DisconnectedGraph):
        count_orbits_lk(CirculantGraph(12, 2, 4), 6, 3)
    assert count_orbits_lk(G, 15, 5) == OrbitCountReport(15, 5, None, 0, ())
    with pytest.raises(NotLatticePoint):
        count_orbits_lk_unreduced(G, 15, 5)


def test_each_moebius_sum_factors_its_gcd_once(monkeypatch):
    calls = []
    factor = numtheory._factor

    def counting_factor(m, *rest):
        calls.append(m)
        return factor(m, *rest)

    monkeypatch.setattr(numtheory, "_factor", counting_factor)
    assert count_lyndon(360, 240) == sum(naive_mu(m) * math.comb(360 // m, 240 // m)
                                         for m in naive_divisors(120)) // 360
    assert calls == [120]
    calls.clear()
    # omega = 9, so the sum runs over gcd(360, 240, 9) = 3
    assert [(t.m, t.mu) for t in count_orbits_lk(CirculantGraph(440, 5, 14), 360, 240).terms] \
        == [(1, 1), (3, -1)]
    assert calls == [3]
    calls.clear()
    # the unreduced count's 8 repetition blocks q | 120 coprime to 9 share one factorisation
    report = count_orbits_lk_unreduced(CirculantGraph(440, 5, 14), 360, 240)
    assert report.count == 440 * (math.comb(360, 240) - math.comb(120, 80)) // 360
    assert sorted({t.q for t in report.terms}) == [1, 2, 4, 5, 8, 10, 20, 40]
    assert calls == [120]
    primitive = 360 * count_lyndon(360, 240)
    calls.clear()
    assert count_nonprimitive(360, 240) == math.comb(360, 240) - primitive
    assert calls == [120]
    # lhs walks the blocks of 120 for omega = 9; rhs is the Moebius sum over gcd(120, 9) = 3
    f = {d: d * d for d in divisors(120)}
    calls.clear()
    lhs, rhs = sum_reduction_check(120, 9, f)
    assert lhs == rhs
    assert calls == [120, 3]


@st.composite
def _small_connected_graph_and_length(draw):
    n = draw(st.integers(min_value=3, max_value=30), label="n")
    a = draw(st.integers(min_value=1, max_value=n - 2), label="a")
    b = draw(st.integers(min_value=a + 1, max_value=n - 1), label="b")
    assume(math.gcd(n, a, b) == 1)
    return CirculantGraph(n, a, b), draw(st.integers(1, 200), label="l")


@settings(max_examples=200, deadline=None)
@given(_small_connected_graph_and_length(), st.data())
def test_count_orbits_l_charges_the_sum_of_its_classes(case, data):
    # count_orbits_l refuses exactly when min(k, l-k) * bits(l), summed over
    # the length's classes, is over the budget, naming the running sum at the
    # class that passes it. Otherwise it answers as count_orbits_lk does class
    # by class, whose own charges (isqrt(gcd) at k = 0 or l) still apply.
    G, l = case
    classes = bcounts_for_length(G, l)
    charges = [min(c.k, l - c.k) * l.bit_length() for c in classes]
    total = sum(charges)
    budget = data.draw(st.one_of(st.integers(1, 40_000),
                                 st.sampled_from([max(total - 1, 1), max(total, 1)])),
                       label="budget")
    with mock.patch.dict(os.environ, {"CIRCORBITS_BUDGET": str(budget)}):
        if total > budget:
            passed = next(s for s in itertools.accumulate(charges) if s > budget)
            with pytest.raises(BudgetExceeded) as refused:
                count_orbits_l(G, l)
            assert str(refused.value) == (
                f"binomials of length {l} charge {passed} > budget {budget} "
                f"(sum of min(k, l-k) * bits(l))")
            return
        try:
            expected = [count_orbits_lk(G, l, c.k) for c in classes]
        except BudgetExceeded as exc:
            with pytest.raises(BudgetExceeded) as refused:
                count_orbits_l(G, l)
            assert str(refused.value) == str(exc)
        else:
            assert count_orbits_l(G, l) == (sum(r.count for r in expected), expected)


def test_count_orbits_l_refuses_a_huge_dense_length_before_any_binomial(monkeypatch):
    # C_3(1,2) has a class at every third b-count, about 3.3 * 10**11 of them
    # at l = 10**12. Their summed charge passes the default budget within the
    # first few thousand, so neither the class list nor a binomial is built.
    def no_binomial(*args):
        raise AssertionError("a binomial was built")

    monkeypatch.setattr(words, "binomial", no_binomial)  # the binding _moebius_binomials calls
    monkeypatch.delenv("CIRCORBITS_BUDGET", raising=False)
    started = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"^binomials of length 1000000000000 charge \d+ > "
                                             r"budget 268435456 "):
        count_orbits_l(CirculantGraph(3, 1, 2), 10**12)
    assert time.perf_counter() - started < 1


@settings(max_examples=50, deadline=None)
@given(_connected_graph_and_class_length(), st.data())
def test_charge_for_0_lt_k_lt_l_is_the_old_binomial_rule(case, data):
    # Only k = 0 and k = l are charged for factoring: for 0 < k < l every
    # counter refuses exactly when min(k, l-k) * bits(l) exceeds the budget.
    G, l = case
    ks = [c.k for c in bcounts_for_length(G, l) if 0 < c.k < l]
    assume(ks)
    k = data.draw(st.sampled_from(ks), label="k")
    cost = min(k, l - k) * l.bit_length()
    budget = data.draw(st.sampled_from([cost - 1, cost]), label="budget")
    line = f"binomials of (l={l}, k={k}) charge {cost} > budget {budget} (min(k, l-k) * bits(l))"
    with mock.patch.dict(os.environ, {"CIRCORBITS_BUDGET": str(budget)}):
        for count in (lambda: count_lyndon(l, k), lambda: count_nonprimitive(l, k),
                      lambda: count_orbits_lk(G, l, k), lambda: count_orbits_lk_unreduced(G, l, k)):
            if cost > budget:
                with pytest.raises(BudgetExceeded) as exc:
                    count()
                assert str(exc.value) == line
            else:
                count()
