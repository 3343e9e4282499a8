import pytest
from hypothesis import given, strategies as st

from circorbits import (
    CirculantGraph,
    NotLatticePoint,
    RejectedParameters,
    dot_graph,
)

from brute import walk

words_st = st.text(alphabet="ab", min_size=1, max_size=30)


def small_graphs():
    out = []
    for n in range(3, 10):
        for a in range(1, n - 1):
            for b in range(a + 1, n):
                out.append(CirculantGraph(n, a, b))
    return out


def test_construction_examples():
    G = CirculantGraph(5, 1, 4)
    assert G.is_strongly_connected()
    assert (G.d, G.g) == (3, 1)
    H = CirculantGraph(12, 2, 4)
    assert not H.is_strongly_connected()
    assert (H.d, H.g) == (2, 2)


def test_construction_rejects_bad_parameters():
    with pytest.raises(RejectedParameters):
        CirculantGraph(5, 4, 1)
    with pytest.raises(RejectedParameters):
        CirculantGraph(5, 0, 3)
    with pytest.raises(RejectedParameters):
        CirculantGraph(5, 2, 5)
    with pytest.raises(RejectedParameters):
        CirculantGraph(5, 3, 3)


def test_connectivity_examples():
    assert not CirculantGraph(12, 2, 4).is_strongly_connected()
    assert CirculantGraph(5, 1, 4).is_strongly_connected()
    assert CirculantGraph(9, 1, 4).is_strongly_connected()
    assert not CirculantGraph(9, 3, 6).is_strongly_connected()


def test_transit_distance_examples():
    # The transit distance l*a + k*d is n times the winding number of a
    # closing word, and is named in the NotLatticePoint message otherwise.
    G = CirculantGraph(9, 1, 4)
    assert G.winding_number("aabaabaab") * G.n == 18
    G21 = CirculantGraph(21, 4, 10)
    assert G21.winding_number("a" * 11 + "b" * 4) * G21.n == 84 == 4 * 21
    with pytest.raises(NotLatticePoint, match=r"^word 'a' has transit distance 1, "
                                              r"not a multiple of n=9$"):
        G.winding_number("a")
    with pytest.raises(NotLatticePoint, match="transit distance 4,"):
        G.winding_number("b")
    with pytest.raises(NotLatticePoint, match="transit distance 74,"):
        G21.winding_number("a" * 11 + "b" * 3)


def test_winding_number_examples():
    G = CirculantGraph(9, 1, 4)
    assert G.winding_number("aabaabaab") == 2
    G21 = CirculantGraph(21, 4, 10)
    assert G21.winding_number("a" * 11 + "b" * 4) == 4
    G5 = CirculantGraph(5, 1, 4)
    assert G5.winding_number("ab") == 1
    G3 = CirculantGraph(3, 1, 2)
    assert [G3.winding_number(w) for w in ("aaa", "ab", "bbb")] == [1, 1, 2]
    with pytest.raises(NotLatticePoint):
        G5.winding_number("a")


def test_walk_examples():
    assert walk(9, 1, 4, 0, "aab") == [0, 1, 2, 6]
    assert walk(5, 1, 4, 3, "ab") == [3, 4, 3]
    assert walk(5, 1, 4, 2, "") == [2]
    assert walk(5, 1, 4, 12, "b") == [2, 1]


def _winding_or_none(G, w):
    try:
        return G.winding_number(w)
    except NotLatticePoint:
        return None


@given(words_st, st.integers(0, 40), st.data())
def test_path_end_matches_lattice_sum(w, v, data):
    G = data.draw(st.sampled_from(small_graphs()))
    path = walk(*G, v, w)
    assert len(path) == len(w) + 1
    delta = len(w) * G.a + w.count("b") * G.d
    assert path[-1] == (v + delta) % G.n
    assert _winding_or_none(G, w) == (None if delta % G.n else delta // G.n)


@given(words_st, st.integers(-10, 40))
def test_closing_and_winding_are_rotation_invariant(w, s):
    s %= len(w)
    for G in (CirculantGraph(7, 1, 3), CirculantGraph(21, 4, 10)):
        assert _winding_or_none(G, w[s:] + w[:s]) == _winding_or_none(G, w)


def test_closure_is_start_independent():
    G = CirculantGraph(9, 1, 4)
    w = "aabaabaab"
    assert G.winding_number(w) == 2
    for v in range(G.n):
        path = walk(*G, v, w)
        assert path[0] == path[-1]


def test_dot_graph_edge_counts():
    assert dot_graph(5, [1, 4]).count("->") == 10
    assert dot_graph(8, [1, 2, 3]).count("->") == 24
    assert dot_graph(12, [2, 4]).count("->") == 24


def test_dot_graph_two_step_labels():
    dot = dot_graph(5, [1, 4])
    assert 'label="a"' in dot and 'label="b"' in dot
    dot3 = dot_graph(8, [1, 2, 3])
    assert 'label="1"' in dot3 and 'label="3"' in dot3


def test_dot_graph_rejects_bad_steps():
    with pytest.raises(RejectedParameters):
        dot_graph(5, [4, 1])
    with pytest.raises(RejectedParameters):
        dot_graph(5, [0, 2])
    with pytest.raises(RejectedParameters):
        dot_graph(5, [1, 5])
    with pytest.raises(RejectedParameters):
        dot_graph(5, [])
