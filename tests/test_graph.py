import pytest
from hypothesis import given, strategies as st

from circorbits import (
    CirculantGraph,
    DoesNotClose,
    RejectedParameters,
    dot_graph,
)

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
    G = CirculantGraph(9, 1, 4)
    assert G.transit_distance("aabaabaab") == 18
    G21 = CirculantGraph(21, 4, 10)
    assert G21.transit_distance("a" * 11 + "b" * 4) == 84 == 4 * 21
    assert G.transit_distance("a") == 1
    assert G.transit_distance("b") == 4


def test_winding_number_examples():
    G = CirculantGraph(9, 1, 4)
    assert G.winding_number("aabaabaab") == 2
    G5 = CirculantGraph(5, 1, 4)
    assert G5.winding_number("ab") == 1
    with pytest.raises(DoesNotClose):
        G5.winding_number("a")


def test_path_from_examples():
    G = CirculantGraph(9, 1, 4)
    assert G.path_from(0, "aab") == [0, 1, 2, 6]
    G5 = CirculantGraph(5, 1, 4)
    assert G5.path_from(3, "ab") == [3, 4, 3]
    assert G5.path_from(2, "") == [2]


@given(words_st, st.integers(0, 40), st.data())
def test_path_end_matches_transit_distance(w, v, data):
    G = data.draw(st.sampled_from(small_graphs()))
    path = G.path_from(v, w)
    assert len(path) == len(w) + 1
    assert path[-1] == (v + G.transit_distance(w)) % G.n


@given(words_st, st.integers(-10, 40))
def test_transit_distance_is_rotation_invariant(w, s):
    s %= len(w)
    for G in (CirculantGraph(7, 1, 3), CirculantGraph(21, 4, 10)):
        assert G.transit_distance(w[s:] + w[:s]) == G.transit_distance(w)


def test_closure_is_start_independent():
    G = CirculantGraph(9, 1, 4)
    w = "aabaabaab"
    assert G.winding_number(w) == 2
    for v in range(G.n):
        path = G.path_from(v, w)
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
