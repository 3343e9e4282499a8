import math
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from circorbits import (
    BudgetExceeded,
    InvariantViolated,
    count_lyndon,
    count_nonprimitive,
    decompose,
    list_lyndon,
    to_step_string,
)
from circorbits.words import check_word

from brute import (
    count_nonprimitive_direct,
    is_lyndon,
    lyndon_words_direct,
    necklace_lyndon_total,
    step_string,
    string_is_primitive,
)

words_st = st.text(alphabet="ab", min_size=1, max_size=24)

# the nine fixed-content Lyndon words of length 9 with three b's,
# in the step notation of C_9(1,4)
FIG_WORDS_9_3 = [
    "111111444",
    "111114144",
    "111114414",
    "111141144",
    "111141414",
    "111144114",
    "111411144",
    "111411414",
    "111414114",
]


def test_decompose_examples():
    assert decompose("aabaabaab") == ("aab", 3)
    assert decompose("aabab") == ("aabab", 1)
    assert decompose("abb" * 10) == ("abb", 10)
    assert decompose("a") == ("a", 1)


@given(words_st)
def test_decompose_reconstructs_and_root_is_primitive(w):
    root, r = decompose(w)
    assert root * r == w
    assert string_is_primitive(root)
    assert decompose(root).repetition == 1


def test_is_lyndon_examples():
    assert is_lyndon("aaaaaabbb")
    assert not is_lyndon("aba")
    assert not is_lyndon("abab")
    assert is_lyndon("a") and is_lyndon("b")
    assert not is_lyndon("bb")


def test_count_lyndon_examples():
    assert count_lyndon(9, 3) == 9
    assert count_lyndon(1, 0) == 1
    for l in range(2, 41):
        assert count_lyndon(l, 0) == 0
        assert count_lyndon(l, l) == 0
    assert count_lyndon(1, 1) == 1
    assert count_lyndon(4, 2) == 1
    assert list_lyndon(4, 2) == ["aabb"]


def test_count_lyndon_validates_arguments():
    with pytest.raises(ValueError):
        count_lyndon(0, 0)
    with pytest.raises(ValueError):
        count_lyndon(3, 4)
    with pytest.raises(ValueError):
        count_lyndon(3, -1)


def test_count_lyndon_refuses_a_sum_that_l_does_not_divide(monkeypatch):
    # The Moebius sum is always a multiple of l; a binomial of 1 stands in
    # for a bug, and at (9, 2) the sum is 1.
    monkeypatch.setattr("circorbits.words.binomial", lambda x, y: 1)
    with pytest.raises(InvariantViolated, match=r"^non-integer Lyndon count for \(l=9, k=2\)$"):
        count_lyndon(9, 2)


def test_count_nonprimitive_examples():
    assert count_nonprimitive(9, 3) == 3
    assert count_nonprimitive(5, 2) == 0
    # confirmed against direct generation before freezing
    assert count_nonprimitive_direct(6, 4) == 3
    assert count_nonprimitive(6, 4) == 3
    # two-prime inclusion-exclusion done by hand with stdlib binomials
    expected_30_20 = math.comb(15, 10) + math.comb(6, 4) - math.comb(3, 2)
    assert count_nonprimitive(30, 20) == expected_30_20


@pytest.mark.parametrize("k", [0, 121])
def test_count_nonprimitive_charges_the_factorisation_when_k_is_0_or_l(monkeypatch, k):
    # Every binomial is 1, so the charge is isqrt(gcd(121, k)) = 11 trial divisions.
    monkeypatch.setenv("CIRCORBITS_BUDGET", "10")
    with pytest.raises(BudgetExceeded, match=rf"^factoring gcd 121 of \(l=121, k={k}\) "
                                             r"costs 11 > budget 10 \(isqrt\(gcd\)\)$"):
        count_nonprimitive(121, k)
    monkeypatch.setenv("CIRCORBITS_BUDGET", "11")
    assert count_nonprimitive(121, k) == 1


def test_word_count_identity_up_to_40():
    # l * (Lyndon count) + (nonprimitive count) accounts for every word
    for l in range(1, 41):
        for k in range(l + 1):
            assert l * count_lyndon(l, k) + count_nonprimitive(l, k) == math.comb(l, k)


def test_nonprimitive_counts_match_direct_generation_up_to_18():
    for l in range(1, 19):
        for k in range(l + 1):
            assert count_nonprimitive(l, k) == count_nonprimitive_direct(l, k), (l, k)


def test_lyndon_totals_match_classical_necklace_formula():
    for l in range(1, 31):
        assert sum(count_lyndon(l, k) for k in range(l + 1)) == necklace_lyndon_total(l)


def test_list_lyndon_fig_words():
    words = list_lyndon(9, 3)
    assert [to_step_string(w, 1, 4) for w in words] == FIG_WORDS_9_3
    assert words == sorted(words)
    assert list_lyndon(1, 1) == ["b"]
    assert list_lyndon(3, 1) == ["aab"]


def test_list_lyndon_exhaustive_consistency_up_to_18():
    for l in range(1, 19):
        for k in range(l + 1):
            words = list_lyndon(l, k)
            assert len(words) == count_lyndon(l, k), (l, k)
            assert all(is_lyndon(w) for w in words)
            assert all(decompose(w).repetition == 1 for w in words)
            assert words == sorted(words)
            assert all(len(w) == l and w.count("b") == k for w in words)


def test_list_lyndon_matches_direct_rotation_filter():
    for l in range(1, 15):
        for k in range(l + 1):
            assert list_lyndon(l, k) == lyndon_words_direct(l, k), (l, k)


def test_list_lyndon_budget(monkeypatch):
    monkeypatch.setenv("CIRCORBITS_BUDGET", "1000")
    with pytest.raises(BudgetExceeded):
        list_lyndon(60, 30)
    # a budget large enough still works
    monkeypatch.setenv("CIRCORBITS_BUDGET", str(10**6))
    assert len(list_lyndon(9, 3)) == 9


@pytest.mark.parametrize("l, k", [(20001, 1), (20001, 20000), (20001, 20001)])
def test_list_lyndon_one_b_uses_memory_of_its_output(l, k):
    # A letter that occurs at most once leaves at most one word, built
    # without the run-list search's state of about 115 bytes per letter.
    tracemalloc.start()
    try:
        words = list_lyndon(l, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words == ([] if k == l else ["a" * (l - k) + "b" * k])
    assert peak < 2**20


def _power_set(l, k, p):
    """{x^p : x in W_2(l/p, k/p)}, empty when p divides neither l nor k."""
    from itertools import combinations

    if l % p or k % p:
        return set()
    lp, kp = l // p, k // p
    out = set()
    for positions in combinations(range(lp), kp):
        letters = ["a"] * lp
        for q in positions:
            letters[q] = "b"
        out.add("".join(letters) * p)
    return out


def test_nonprimitive_power_containment():
    # containment of repeated-word sets follows divisibility of the exponents
    l, k = 12, 6
    common = [p for p in (2, 3, 6)]
    sets = {p: _power_set(l, k, p) for p in common + [4]}
    for p1 in common:
        for p2 in common:
            if p1 == p2:
                continue
            assert (sets[p1] <= sets[p2]) == (p1 % p2 == 0), (p1, p2)
    # 4 divides the length but not the b-count, so its power set is empty
    assert sets[4] == set()
    assert sets[4] <= sets[2]
    assert not sets[6] <= sets[4]


def test_coprime_power_sets_intersect_in_product():
    l, k = 12, 6
    assert _power_set(l, k, 2) & _power_set(l, k, 3) == _power_set(l, k, 6)
    l, k = 30, 20
    assert _power_set(l, k, 2) & _power_set(l, k, 5) == _power_set(l, k, 10)


def test_step_string_round_trip():
    assert to_step_string("aab", 1, 4) == "114"
    assert to_step_string("aba", 4, 10) == "4,10,4"
    for w in ("aab", "abba", "b"):
        assert to_step_string(w, 1, 4).translate(str.maketrans("14", "ab")) == w
        steps = to_step_string(w, 4, 10).split(",")
        assert "".join("a" if step == "4" else "b" for step in steps) == w


@st.composite
def _steps(draw):
    a = draw(st.integers(1, 999), label="a")
    return a, draw(st.integers(a + 1, 1000), label="b")


@given(st.text(alphabet="ab", min_size=1, max_size=40), _steps())
@example("abba", (8, 9))
@example("b", (3, 9))
@example("abba", (9, 10))
@example("b", (3, 10))
def test_step_string_matches_per_letter_reference(w, steps):
    assert to_step_string(w, *steps) == step_string(w, *steps)


@st.composite
def _word_with_other_letter(draw):
    w = draw(st.text(alphabet="ab", max_size=39))
    i = draw(st.integers(0, len(w)))
    return w[:i] + draw(st.characters().filter(lambda c: c not in "ab")) + w[i:]


@given(_word_with_other_letter(), _steps())
@example("abc", (1, 4))
@example("a,b", (4, 10))
def test_step_string_refuses_other_letters(w, steps):
    with pytest.raises(ValueError, match="only contain letters"):
        to_step_string(w, *steps)


@pytest.mark.parametrize("w, message", [
    ("", "word must be nonempty"),
    ("abc", "word may only contain letters 'a' and 'b', got ['c']"),
    ("zbaAab", "word may only contain letters 'a' and 'b', got ['A', 'z']"),
    ("a b", "word may only contain letters 'a' and 'b', got [' ']"),
])
def test_check_word_messages(w, message):
    with pytest.raises(ValueError) as excinfo:
        check_word(w)
    assert str(excinfo.value) == message
