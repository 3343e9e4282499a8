"""Binary step words over the alphabet {a, b}.

A word records the step sizes of a walk on a two-step circulant digraph:
letter 'a' for the smaller step, 'b' for the larger one. Lexicographic
order uses a < b, which Python string comparison gives natively. The
b-count of a word is the number of 'b' letters.
"""

from __future__ import annotations

import math
import os
from itertools import combinations
from typing import Iterator, NamedTuple

from .errors import BudgetExceeded
from .numtheory import binomial, moebius_divisors

DEFAULT_BUDGET = 2**28
_BUDGET_ENV = "CIRCORBITS_BUDGET"


def resolve_budget(budget: int | None) -> int:
    """The explicit budget, else CIRCORBITS_BUDGET, else DEFAULT_BUDGET; refuses values below 1."""
    name = "budget"
    if budget is None:
        raw = os.environ.get(_BUDGET_ENV)
        if raw is None:
            return DEFAULT_BUDGET
        name = _BUDGET_ENV
        try:
            budget = int(raw)
        except ValueError as exc:
            raise ValueError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if budget < 1:
        raise ValueError(f"{name} must be >= 1, got {budget}")
    return budget


class WordDecomposition(NamedTuple):
    root: str
    repetition: int


def check_word(w: str, allow_empty: bool = False) -> str:
    """Validate that w is a word over {a, b}; return it unchanged."""
    if not w:
        if allow_empty:
            return w
        raise ValueError("word must be nonempty")
    bad = set(w) - {"a", "b"}
    if bad:
        raise ValueError(f"word may only contain letters 'a' and 'b', got {sorted(bad)}")
    return w


def b_count(w: str) -> int:
    """Number of 'b' letters in the word."""
    return w.count("b")


def decompose(w: str) -> WordDecomposition:
    """Split w into its primitive root and repetition count, w == root * repetition."""
    check_word(w)
    # Smallest s > 0 with w[s:] + w[:s] == w; it divides len(w).
    p = (w + w).find(w, 1)
    return WordDecomposition(w[:p], len(w) // p)


def is_lyndon(w: str) -> bool:
    """True iff w strictly precedes all of its nontrivial rotations."""
    check_word(w)
    doubled = w + w
    l = len(w)
    return all(w < doubled[s : s + l] for s in range(1, l))


def check_lk(l: int, k: int) -> None:
    """Validate a length l >= 1 and a b-count 0 <= k <= l."""
    if l < 1:
        raise ValueError(f"length must be >= 1, got {l}")
    if not 0 <= k <= l:
        raise ValueError(f"b-count must satisfy 0 <= k <= l, got k={k}, l={l}")


def count_lyndon(l: int, k: int) -> int:
    """Number of Lyndon words of length l with b-count k.

    Moebius sum over the common divisors of l and k (all of l when k = 0),
    divided by l; the division is exact.
    """
    check_lk(l, k)
    total = sum(mu * binomial(l // m, k // m) for m, mu in moebius_divisors(math.gcd(l, k)))
    assert total % l == 0, f"non-integer Lyndon count for (l={l}, k={k})"
    return total // l


def count_nonprimitive(l: int, k: int) -> int:
    """Number of nonprimitive words of length l with b-count k (inclusion-exclusion)."""
    check_lk(l, k)
    return -sum(
        mu * binomial(l // m, k // m) for m, mu in moebius_divisors(math.gcd(l, k)) if m > 1
    )


def list_lyndon(l: int, k: int, budget: int | None = None) -> list[str]:
    """All Lyndon words of length l with b-count k, in lexicographic order.

    Generates the C(l, k) fixed-content words by choosing b-positions and
    keeps the Lyndon survivors. Refuses instances whose generation cost
    l * C(l, k) exceeds the budget.
    """
    check_lk(l, k)
    budget = resolve_budget(budget)
    cost = l * binomial(l, k)
    if cost > budget:
        raise BudgetExceeded(
            f"generating W_2({l},{k}) costs {cost} > budget {budget}"
        )
    return sorted(w for w in fixed_content_words(l, k) if is_lyndon(w))


def fixed_content_words(l: int, k: int) -> Iterator[str]:
    """The C(l, k) words of length l with b-count k, one per choice of b-positions."""
    for positions in combinations(range(l), k):
        letters = ["a"] * l
        for p in positions:
            letters[p] = "b"
        yield "".join(letters)


def to_step_string(w: str, a: int, b: int) -> str:
    """Render a word using the graph's step sizes, e.g. 'aab' -> '114' on steps (1, 4).

    Single-digit steps concatenate; larger steps are comma-separated since
    concatenated digits would be ambiguous.
    """
    check_word(w)
    if b <= 9:
        return "".join(str(a) if c == "a" else str(b) for c in w)
    return ",".join(str(a) if c == "a" else str(b) for c in w)
