import math

import pytest
from hypothesis import assume, given, strategies as st

from circorbits import (
    CirculantGraph,
    DisconnectedGraph,
    InvariantViolated,
    NotLatticePoint,
    OrbitClass,
    RejectedParameters,
    basis,
    bcounts_for_length,
    connected_graphs,
    lattice_points,
    skipped_windings,
    winding_bounds,
)

from brute import closed_lattice_scan, winding_scan


def test_basis_examples():
    B = basis(CirculantGraph(7, 1, 3))
    assert (B.a_prime, B.d_prime, B.l0, B.k0) == (1, 2, 1, 3)
    assert B.l0 * 1 + B.k0 * 2 == 7

    B = basis(CirculantGraph(5, 1, 4))
    assert (B.a_prime, B.d_prime, B.l0, B.k0) == (1, 3, 2, 1)
    assert B.l0 * 1 + B.k0 * 3 == 5

    B = basis(CirculantGraph(9, 1, 4))
    assert (B.a_prime, B.d_prime, B.l0, B.k0) == (1, 3, 0, 3)
    assert B.l0 * 1 + B.k0 * 3 == 9


def test_basis_normalization_range():
    for n in range(3, 16):
        for a in range(1, n - 1):
            for b in range(a + 1, n):
                G = CirculantGraph(n, a, b)
                if not G.is_strongly_connected():
                    continue
                B = basis(G)
                assert 0 <= B.l0 < max(B.d_prime, 1)
                if B.d_prime == 1:
                    assert B.l0 == 0
                assert B.l0 * G.a + B.k0 * G.d == G.g * G.n
                assert B.d_prime * B.k0 + B.a_prime * B.l0 == G.n


def test_basis_requires_connected():
    with pytest.raises(DisconnectedGraph):
        basis(CirculantGraph(12, 2, 4))


def test_to_coords_examples():
    B = basis(CirculantGraph(7, 1, 3))
    assert B.to_coords(3, 2) == (1, 1)
    assert B.to_coords(0, 0) == (0, 0)
    assert B.to_coords(2, -1) == (1, 0)
    assert B.to_coords(*B.from_coords(0, 1)) == (0, 1)


def test_to_coords_rejects_non_lattice_points():
    B = basis(CirculantGraph(7, 1, 3))
    with pytest.raises(NotLatticePoint):
        B.to_coords(1, 0)
    with pytest.raises(NotLatticePoint):
        B.to_coords(3, 1)


def test_bcounts_for_length_examples():
    G = CirculantGraph(21, 4, 10)
    assert bcounts_for_length(G, 15) == [OrbitClass(15, 4, 4), OrbitClass(15, 11, 6)]
    assert skipped_windings(G, 15) == [3, 5, 7]

    G5 = CirculantGraph(5, 1, 4)
    assert bcounts_for_length(G5, 5) == [OrbitClass(5, 0, 1), OrbitClass(5, 5, 4)]
    assert bcounts_for_length(G5, 1) == []

    G9 = CirculantGraph(9, 1, 4)
    assert OrbitClass(9, 3, 2) in bcounts_for_length(G9, 9)


def test_bcounts_requires_connected_and_positive_length():
    with pytest.raises(DisconnectedGraph):
        bcounts_for_length(CirculantGraph(12, 2, 4), 6)
    with pytest.raises(RejectedParameters):
        bcounts_for_length(CirculantGraph(5, 1, 4), 0)
    # A disconnected graph is refused before a bad length, by both entry points.
    for walk in (bcounts_for_length, lattice_points):
        with pytest.raises(DisconnectedGraph):
            walk(CirculantGraph(12, 2, 4), 0)


def test_bcounts_for_length_refuses_a_winding_number_off_the_class():
    # Every winding number is a multiple of g = gcd(a, b); correct code
    # cannot break that, so a graph reports a wrong g. On C_21(4,10) at
    # l = 15 the first class is k = 4 with omega = 4, not a multiple of 7.
    # Both entry points share one walk, and each must reach its check.
    class WrongG(CirculantGraph):
        g = property(lambda self: 7)

    with pytest.raises(InvariantViolated, match="is not a class"):
        bcounts_for_length(WrongG(21, 4, 10), 15)
    with pytest.raises(InvariantViolated, match="is not a class"):
        lattice_points(WrongG(21, 4, 10), 15)


def test_basis_refuses_a_wrong_inverse(monkeypatch):
    # pow(a', -1, d') is exact, so a modular inverse that is off by one stands
    # in for a bug: on C_7(1,3) it gives l0 = 0, and 7 - 0 is odd.
    monkeypatch.setattr("circorbits.lattice.pow", lambda x, e, m: (pow(x, e, m) + 1) % m,
                        raising=False)
    with pytest.raises(InvariantViolated, match=r"^basis \(0, 3\) fails for C_7\(1,3\)$"):
        basis(CirculantGraph(7, 1, 3))


def test_winding_bounds():
    G = CirculantGraph(21, 4, 10)
    assert winding_bounds(G, 15) == (3, 7)
    G5 = CirculantGraph(5, 1, 4)
    assert winding_bounds(G5, 1) == (1, 0)  # empty range: no closed walks of length 1


def test_lattice_points_examples():
    pts = lattice_points(CirculantGraph(21, 4, 10), 15)
    assert OrbitClass(15, 4, 4) in pts
    assert OrbitClass(15, 11, 6) in pts
    pts7 = lattice_points(CirculantGraph(7, 1, 3), 3)
    assert OrbitClass(3, 2, 1) in pts7
    with pytest.raises(RejectedParameters):
        lattice_points(CirculantGraph(7, 1, 3), 0)


def test_lattice_points_match_direct_scan():
    for G in (CirculantGraph(7, 1, 3), CirculantGraph(21, 4, 10), CirculantGraph(9, 1, 4),
              CirculantGraph(12, 2, 5)):
        expected = [(l, k, omega) for l in range(1, 201)
                    for k, omega in closed_lattice_scan(G.n, G.a, G.b, l)]
        assert lattice_points(G, 200) == expected, G


def test_bcounts_for_length_equals_the_bcount_scan():
    # Every b-count 0 <= k <= 90 is tested once per graph: k closes at
    # length l exactly when k*d = -l*a (mod n).
    for G in connected_graphs(40):
        n, a, d = G.n, G.a, G.d
        closing = {}
        for k in range(91):
            closing.setdefault(k * d % n, []).append(k)
        for l in range(1, 91):
            expected = [OrbitClass(l, k, (l * a + k * d) // n)
                        for k in closing.get(-l * a % n, ()) if k <= l]
            assert bcounts_for_length(G, l) == expected, (G, l)


def test_every_class_has_winding_divisible_by_g():
    for G in (CirculantGraph(21, 4, 10), CirculantGraph(12, 2, 5), CirculantGraph(15, 3, 9)):
        if not G.is_strongly_connected():
            continue
        for c in lattice_points(G, 40):
            assert c.omega % G.g == 0
            assert c.l * G.a + c.k * G.d == c.omega * G.n


def test_coordinate_round_trip_on_lattice_points():
    for G in (CirculantGraph(7, 1, 3), CirculantGraph(21, 4, 10), CirculantGraph(9, 1, 4)):
        B = basis(G)
        for c in lattice_points(G, 60):
            x, y = B.to_coords(c.l, c.k)
            assert B.from_coords(x, y) == (c.l, c.k)
            assert y == c.omega // G.g


def test_solution_family_shift():
    # moving one basis step along (d', -a') keeps the winding number
    for G in (CirculantGraph(7, 1, 3), CirculantGraph(21, 4, 10)):
        B = basis(G)
        for c in lattice_points(G, 30):
            l2, k2 = c.l + B.d_prime, c.k - B.a_prime
            assert l2 * G.a + k2 * G.d == c.omega * G.n
            x, y = B.to_coords(c.l, c.k)
            assert B.to_coords(l2, k2) == (x + 1, y)


@st.composite
def _connected_graph_and_length(draw):
    n = draw(st.integers(min_value=3, max_value=3000), label="n")
    a = draw(st.integers(min_value=1, max_value=n - 2), label="a")
    b = draw(st.integers(min_value=a + 1, max_value=n - 1), label="b")
    assume(math.gcd(n, a, b) == 1)
    return CirculantGraph(n, a, b), draw(st.integers(min_value=1, max_value=20000), label="l")


@given(_connected_graph_and_length())
def test_class_walk_equals_winding_scan(case):
    # bcounts_for_length walks one residue class of b-counts; both scans test them all
    G, l = case
    got = [(c.k, c.omega) for c in bcounts_for_length(G, l)]
    assert got == winding_scan(G.n, G.a, G.b, l)
    assert got == closed_lattice_scan(G.n, G.a, G.b, l)
