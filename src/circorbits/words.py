"""Binary step words over the alphabet {a, b}, and the home of the package's one work budget.

A word records the step sizes of a walk on a two-step circulant digraph:
letter 'a' for the smaller step, 'b' for the larger one. Lexicographic
order uses a < b, which Python string comparison gives natively. The
b-count of a word is the number of 'b' letters.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from .errors import BudgetExceeded, InvariantViolated, RejectedParameters
from .numtheory import binomial, moebius_divisors

DEFAULT_BUDGET = 2**28
_BUDGET_ENV = "CIRCORBITS_BUDGET"


def resolve_budget() -> int:
    """CIRCORBITS_BUDGET, else DEFAULT_BUDGET; refuses values below 1."""
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if budget < 1:
        raise ValueError(f"{_BUDGET_ENV} must be >= 1, got {budget}")
    return budget


def charge(cost: int, what: str, rule: str = "") -> None:
    """Refuse work of this cost above the budget, as "{what} {cost} > budget {budget}{rule}"."""
    budget = resolve_budget()
    if cost > budget:
        raise BudgetExceeded(f"{what} {cost} > budget {budget}{rule}")


def _charge_binomials(l: int, k: int, g: int) -> None:
    """Refuse a sum of C(l/m, k/m) over the m | g above the budget.

    When 0 < k < l, min(k, l-k) * bits(l) bounds log2 C(l, k), and also the
    isqrt(g) trial divisions that factor g, as g <= min(k, l-k). When k is
    0 or l every binomial is 1, and the charge is those isqrt(g) divisions.
    """
    if 0 < k < l:
        charge(min(k, l - k) * l.bit_length(), f"binomials of (l={l}, k={k}) charge",
               " (min(k, l-k) * bits(l))")
    else:
        charge(math.isqrt(g), f"factoring gcd {g} of (l={l}, k={k}) costs", " (isqrt(gcd))")


def _moebius_binomials(l: int, k: int, g: int) -> list[tuple[int, int, int]]:
    """(m, mu(m), C(l/m, k/m)) for each squarefree m | g, m increasing, charged first."""
    _charge_binomials(l, k, g)
    return [(m, mu, binomial(l // m, k // m)) for m, mu in moebius_divisors(g)]


WordDecomposition = namedtuple("WordDecomposition", "root repetition")
WordDecomposition.__doc__ = "A word split as root * repetition, with root primitive."


def check_word(w: str) -> None:
    """Validate that w is a nonempty word over {a, b}."""
    if not w:
        raise ValueError("word must be nonempty")
    if w.count("a") + w.count("b") != len(w):
        bad = set(w) - {"a", "b"}
        raise ValueError(f"word may only contain letters 'a' and 'b', got {sorted(bad)}")


def decompose(w: str) -> WordDecomposition:
    """Split w into its primitive root and repetition count, w == root * repetition."""
    check_word(w)
    # Smallest s > 0 with w[s:] + w[:s] == w; it divides len(w).
    p = (w + w).find(w, 1)
    return WordDecomposition(w[:p], len(w) // p)


def check_lk(l: int, k: int) -> None:
    """Validate a length l >= 1 and a b-count 0 <= k <= l."""
    if l < 1:
        raise RejectedParameters(f"length must be >= 1, got {l}")
    if not 0 <= k <= l:
        raise RejectedParameters(f"b-count must satisfy 0 <= k <= l, got k={k}, l={l}")


def count_lyndon(l: int, k: int) -> int:
    """Number of Lyndon words of length l with b-count k.

    Moebius sum over the common divisors of l and k (all of l when k = 0),
    divided by l; the division is exact.
    """
    check_lk(l, k)
    total = sum(mu * c for _, mu, c in _moebius_binomials(l, k, math.gcd(l, k)))
    if total % l:
        raise InvariantViolated(f"non-integer Lyndon count for (l={l}, k={k})")
    return total // l


def count_nonprimitive(l: int, k: int) -> int:
    """Number of nonprimitive words of length l with b-count k (inclusion-exclusion)."""
    check_lk(l, k)
    return -sum(mu * c for m, mu, c in _moebius_binomials(l, k, math.gcd(l, k)) if m > 1)


def list_lyndon(l: int, k: int) -> list[str]:
    """All Lyndon words of length l with b-count k, in lexicographic order.

    With m = l - k, a letter occurring once gives the one word a^m b^k, and
    a letter absent gives it only at l = 1. For 2 <= k <= l - 2 these are the
    words a^r_0 b ... a^r_{k-1} b whose run list r is Lyndon when a longer run
    is the smaller letter; the Fredricksen-Kessler-Maiorana recursion on run
    lists (Ruskey-Sawada fixed density), pruned by the a's left on a stack,
    tries longer runs first, so the order is lexicographic. For every (l, k)
    work and memory follow l * count_lyndon(l, k); above the budget it refuses.
    """
    check_lk(l, k)
    charge(l * count_lyndon(l, k), f"generating W_2({l},{k}) costs")
    m = l - k
    if min(k, m) < 2:
        return ["a" * m + "b" * k] if min(k, m) == 1 or l == 1 else []
    pieces = ["a" * i + "b" for i in range(m + 1)]
    out = []
    r = [0] * k
    period = [0] * (k + 1)  # period of the prenecklace r[:t]
    left = [m] * (k + 1)  # a's not placed in r[:t]
    stack = [iter(range(m, -(-m // k) - 1, -1))]  # r[0] is the longest run
    while stack:
        t = len(stack) - 1
        v = next(stack[t], None)
        if v is None:
            stack.pop()
            continue
        r[t] = v
        # Repeating the run one period back keeps the period; a shorter
        # run makes r[:t+1] a Lyndon word.
        p = 1 if t == 0 else period[t] if v == r[t - period[t]] else t + 1
        if t + 1 == k:
            if p == k:
                out.append("".join([pieces[i] for i in r]))
            continue
        period[t + 1] = p
        left[t + 1] = rest = left[t] - v
        # The last run takes the a's left; the others leave no more than
        # the runs after them can hold at r[0] each.
        lo = rest if t + 2 == k else max(0, rest - r[0] * (k - t - 2))
        stack.append(iter(range(min(r[t + 1 - p], rest), lo - 1, -1)))
    return out


def step_table(a: int, b: int) -> dict[int, str]:
    """The str.translate table that writes a word in the step notation of steps (a, b).

    This is the one definition of step notation: the steps are concatenated
    when b <= 9, since every step is then one digit, and otherwise each is
    followed by a comma, which the caller strips from the end with
    .removesuffix(",").
    """
    sep = "" if b <= 9 else ","
    return str.maketrans({"a": f"{a}{sep}", "b": f"{b}{sep}"})


def to_step_string(w: str, a: int, b: int) -> str:
    """Render a word using the graph's step sizes, e.g. 'aab' -> '114' on steps (1, 4).

    Notation as in step_table: concatenated when b <= 9, comma-separated
    otherwise.
    """
    check_word(w)
    return w.translate(step_table(a, b)).removesuffix(",")
