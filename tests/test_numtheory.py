import math

import pytest
from hypothesis import example, given, settings, strategies as st

from circorbits import binomial, divisors, numtheory
from circorbits.numtheory import block_divisors

from brute import binomial_mod, naive_divisors, naive_mu, pascal_table, scaled_binomial


# block_divisors at omega = 0 is the plain Moebius walk: a block q must be
# coprime to omega, and gcd(q, 0) = q, so q = 1 alone. These tests check it
# as such, the walk the reduced and Lyndon sums take.
def _mu(m):
    """mu(m) from the sign block_divisors(m, 0) gives m itself; 0 when m is not squarefree."""
    _, d, mu = block_divisors(m, 0)[-1]
    return mu if d == m else 0


def test_moebius_examples():
    assert _mu(1) == 1
    assert _mu(6) == 1
    assert _mu(12) == 0
    assert _mu(2) == -1
    assert _mu(30) == -1
    assert _mu(49) == 0


def test_moebius_divisor_sums_vanish():
    # sum of mu over the divisors of y is 0 for every y > 1, and 1 at y = 1
    for y in range(1, 10**4 + 1):
        total = sum(mu for _, _, mu in block_divisors(y, 0))
        assert total == (1 if y == 1 else 0), f"divisor sum failed at y={y}"


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=1000))
def test_moebius_multiplicative_on_coprime_pairs(u, v):
    if math.gcd(u, v) == 1:
        assert _mu(u * v) == _mu(u) * _mu(v)


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(120) == [1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120]
    assert divisors(9) == [1, 3, 9]


def test_divisors_rejects_zero():
    with pytest.raises(ValueError, match=r"^divisors needs m >= 1, got 0$"):
        divisors(0)


def _naive_signed(m):
    """The divisors of m and the (d, mu(d)) pairs of its squarefree ones, by naive scans."""
    divs = naive_divisors(m)
    return divs, [(d, mu) for d in divs if (mu := naive_mu(d))]


@given(st.integers(min_value=1, max_value=10**4))
def test_block_divisors_at_omega_0_match_naive_scan(m):
    assert block_divisors(m, 0) == [(1, d, mu) for d, mu in _naive_signed(m)[1]]


def test_block_divisors_at_omega_0_examples_and_rejects_nonpositive():
    assert block_divisors(1, 0) == [(1, 1, 1)]
    assert block_divisors(120, 0) == [(1, 1, 1), (1, 2, -1), (1, 3, -1), (1, 5, -1), (1, 6, 1),
                                      (1, 10, 1), (1, 15, 1), (1, 30, -1)]
    for m in (0, -4):
        with pytest.raises(ValueError, match=rf"^divisors needs m >= 1, got {m}$"):
            block_divisors(m, 0)


def _from_factorisation(factors):
    """Divisors and squarefree (d, mu(d)) pairs of prod p**e, built from the exponents."""
    divs, signed = [1], [(1, 1)]
    for p, e in factors.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
        signed += [(d * p, -mu) for d, mu in signed]
    return sorted(divs), sorted(signed)


def _blocks_per_q(gamma, omega, divs, signed):
    """The unreduced sum's terms by their definition, from the divisors and the signed
    squarefree divisors of gamma: one Moebius sum over the squarefree m | gamma/q per
    block q coprime to omega."""
    return [(q, m, mu) for q in divs if math.gcd(q, omega) == 1
            for m, mu in signed if gamma // q % m == 0]


@pytest.mark.parametrize("factors, omegas", [
    ({2: 4, 3: 2, 5: 1, 7: 1, 11: 1, 13: 1}, [0, 1, 17, 2, 30, 7 * 11 * 13, 720720]),
    ({2: 20}, [0, 1, 3, 2, 2**20]),
    ({3: 5, 5: 3, 7: 1}, [0, 1, 2, 3, 15, 105]),
    # 720720 * 50000000021; omega coprime to it gives 480 blocks (checked by size below)
    ({2: 4, 3: 2, 5: 1, 7: 1, 11: 1, 13: 1, 50000000021: 1}, [0, 6, 30030, 36036000015135120]),
], ids=["720720", "2^20", "3^5*5^3*7", "36036000015135120"])
def test_block_divisors_at_large_gcds(factors, omegas):
    gamma = math.prod(p**e for p, e in factors.items())
    for omega in omegas:
        assert block_divisors(gamma, omega) == _blocks_per_q(gamma, omega,
                                                             *_from_factorisation(factors)), omega


def test_block_divisors_of_the_480_block_gcd():
    triples = block_divisors(36036000015135120, 1)
    assert len(triples) == 10935
    assert len({q for q, _, _ in triples}) == 480
    assert triples[:3] == [(1, 1, 1), (1, 2, -1), (1, 3, -1)]


@st.composite
def _gcd_and_winding(draw):
    """gamma <= 10**6 and an omega that shares none, some or all of its primes."""
    gamma = draw(st.integers(min_value=1, max_value=10**6), label="gamma")
    shared = draw(st.sampled_from(divisors(gamma)), label="shared")
    other = draw(st.integers(min_value=1, max_value=3000), label="other")
    while math.gcd(other, gamma) > 1:
        other += 1
    return gamma, shared * other


# No deadline: the naive scans of a gamma near 10**6 take up to about 0.2 s.
@settings(deadline=None)
@given(_gcd_and_winding())
def test_block_divisors_match_the_blocks_one_by_one(case):
    gamma, omega = case
    assert block_divisors(gamma, omega) == _blocks_per_q(gamma, omega, *_naive_signed(gamma))


def test_binomial_examples():
    assert binomial(9, 3) == 84
    assert binomial(5, 0) == 1
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    big = binomial(360, 240)
    assert big == math.comb(360, 240)
    assert len(str(big)) == 99


def test_binomial_rejects_negative_x():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_satisfies_pascal_rule():
    table = pascal_table(64)
    for x in range(65):
        for y in range(x + 1):
            assert binomial(x, y) == table[x][y]
        if x:
            for y in range(1, x):
                assert binomial(x, y) == binomial(x - 1, y - 1) + binomial(x - 1, y)


@given(st.data())
def test_binomial_equals_math_comb(data):
    x = data.draw(st.integers(min_value=0, max_value=30000), label="x")
    y = data.draw(st.integers(min_value=-2, max_value=x + 2), label="y")
    assert binomial(x, y) == (math.comb(x, y) if 0 <= y <= x else 0)


@pytest.mark.parametrize("x, y", [
    (0, 0), (1, 1), (800, 399), (800, 400), (800, 401), (1000, 600), (1000, 1000),
    (5000, 399), (5000, 400), (5000, 4600), (5000, 4601),
    # 1000 * (14000).bit_length() == 14000: the prime method starts at equality.
    (14000, 999), (14000, 1000), (14001, 1000), (30030, 15015),
])
def test_binomial_edges_equal_math_comb(x, y):
    assert binomial(x, y) == math.comb(x, y)


def _threshold_ys(x):
    """y on both sides of y = 400 and of y * x.bit_length() = x, and at x +- 1 when reachable."""
    bits = x.bit_length()
    first = -(-x // bits)  # the least y with y * bits >= x
    ys = {399, 400, first - 1, first}
    ys.update(v // bits for v in (x - 1, x + 1) if v % bits == 0)
    return sorted(ys)


def test_binomial_at_powers_of_two_rising_then_falling():
    # x = 2^j - 1, 2^j, 2^j + 1 for j = 9..16: every second size going up,
    # then the others going down, so later calls reuse primes sieved earlier.
    sizes = [2**j + e for j in range(9, 17) for e in (-1, 0, 1)]
    for x in sizes[::2] + sizes[1::2][::-1]:
        for y in _threshold_ys(x):
            assert binomial(x, y) == math.comb(x, y), (x, y)


def _sieves(*calls):
    """Clear the sieve cache, run binomial on each (x, y) and return (misses, currsize)."""
    numtheory._primes_below.cache_clear()
    for x, y in calls:
        assert binomial(x, y) == math.comb(x, y)
    info = numtheory._primes_below.cache_info()
    return info.misses, info.currsize


def test_binomial_method_follows_the_size_rule():
    # The math.comb side: y < 400, or y * x.bit_length() < x.
    assert _sieves((800, 399), (5000, 399), (14001, 1000), (14000, 13001)) == (0, 0)
    # The Legendre side: one sieve per power of two above x.
    assert _sieves((800, 400)) == (1, 1)
    assert _sieves((800, 400), (14000, 1000)) == (2, 2)


def test_binomial_sieve_grows_and_is_reused():
    # 6000 and 7000 share the bound 8192, 1200 gets 2048, 25000 and 30000 share 32768:
    # six calls build three sieves, one per bound.
    assert _sieves((6000, 2500), (7000, 3000), (1200, 700), (25000, 12345),
                   (30000, 15000), (6500, 3000)) == (3, 3)
    held = numtheory._primes_below(8192)
    assert (len(held), held[-1]) == (1028, 8191)
    assert binomial(8000, 4000) == math.comb(8000, 4000)
    assert numtheory._primes_below(8192) is held and len(held) == 1028
    assert numtheory._primes_below.cache_info().currsize == 3


def test_binomial_small_y_with_huge_x_builds_no_sieve():
    assert _sieves((10**9, 500)) == (0, 0)


def test_binomial_small_y_with_huge_x_builds_no_node():
    numtheory._node.cache_clear()
    assert _sieves((10**9, 500)) == (0, 0)
    assert numtheory._node.cache_info()[:2] == (0, 0)


def _least_prime_from(v):
    while any(v % d == 0 for d in range(2, math.isqrt(v) + 1)):
        v += 1
    return v


def _run_edges():
    """(x, y, p, j) on the Legendre side where the prime p > y is at an edge of
    the run ((x-y)//j, x//j], or one off it: x//j = p + d (the upper edge, p in
    the run for d >= 0) with p the least prime from 12000 // j, or (x-y)//j =
    p + d (the lower edge, p in the run for d < 0) at x = 12000, with p the
    least prime from 10000 // j; d = -1, 0, 1 and j = 1, 2, 3."""
    cases = []
    for j in (1, 2, 3):
        p = _least_prime_from(12000 // j)
        cases += [(f"upper-j{j}-d{d:+d}", j * (p + d), 2000, p, j) for d in (-1, 0, 1)]
        p = _least_prime_from(10000 // j)
        cases += [(f"lower-j{j}-d{d:+d}", 12000, 12000 - j * (p + d), p, j) for d in (-1, 0, 1)]
    return cases


@pytest.mark.parametrize("x, y, p, j", [case[1:] for case in _run_edges()],
                         ids=[case[0] for case in _run_edges()])
def test_binomial_at_run_edges_equals_math_comb(x, y, p, j):
    assert 400 <= y < p and y * x.bit_length() >= x
    assert p - 1 <= x // j <= p + 1 or p - 1 <= (x - y) // j <= p + 1
    assert binomial(x, y) == math.comb(x, y)


# Calls of one bound, 2^14, whose runs overlap, the first three in all but a few primes.
_SAME_BOUND = [(12000, 2000), (12010, 2000), (12000, 2010), (16000, 5000), (9000, 4500),
               (12345, 6000), (12000, 2000)]


def test_binomial_does_not_depend_on_call_order():
    for order in (_SAME_BOUND, _SAME_BOUND[::-1], _SAME_BOUND[1::2] + _SAME_BOUND[::2]):
        numtheory._node.cache_clear()
        assert [binomial(x, y) for x, y in order] == [math.comb(x, y) for x, y in order]


def test_binomial_forms_each_node_once(monkeypatch):
    numtheory._node.cache_clear()
    products = []
    product = numtheory._product
    monkeypatch.setattr(numtheory, "_product", lambda factors: products.append(factors) or
                        product(factors))
    # Every _product call but the last (the result's) forms one node, which the
    # cache then holds; a later call forms only the nodes not yet held.
    assert binomial(12000, 2000) == math.comb(12000, 2000)
    first = numtheory._node.cache_info()
    assert len(products) - 1 == first.misses == first.currsize > 0
    products.clear()
    assert binomial(12010, 2000) == math.comb(12010, 2000)
    second = numtheory._node.cache_info()
    assert len(products) - 1 == second.misses - first.misses > 0
    assert second.currsize == second.misses and second.hits > first.hits
    products.clear()
    assert binomial(12010, 2000) == math.comb(12010, 2000)
    third = numtheory._node.cache_info()
    assert len(products) == 1 and third[1:] == second[1:] and third.hits > second.hits


_NEAR_2_16 = [65479, 65497, 65519, 65521, 65537, 65539, 65543, 65551, 65557, 65563]


@st.composite
def _large_binomial_args(draw):
    """x <= 10**6 and y at the method rule, anywhere on the Legendre side, or
    with x - y = j * p + d, d = -1, 0, 1, for a prime p near 2^16 and j = x // p,
    which puts (x-y)//j, the lower edge of the run ((x-y)//j, x//j], at p or one off it."""
    x = draw(st.integers(800, 10**6), label="x")
    first = -(-x // x.bit_length())  # the least y with y * bits(x) >= x
    kind = draw(st.sampled_from(["rule", "legendre", "edge"]), label="kind")
    if kind == "rule":
        y = first + draw(st.integers(-2, 1))
    elif kind == "legendre":
        y = draw(st.integers(first, x // 2))
    else:
        p = draw(st.sampled_from(_NEAR_2_16))
        j = x // p
        y = x - j * p - draw(st.integers(-1, 1)) if j else draw(st.integers(first, x // 2))
    return x, max(0, min(x, y))


# math.comb takes seconds at these sizes (8.9 s for C(10**6, 500000) on CPython
# 3.11), so each result is checked mod primes near 2^16 by Lucas' theorem. The
# residue is nonzero for a prime with no carry in y + (x - y) (Kummer), so a wrong
# prime power shows there; a prime with a carry divides both sides.
@settings(max_examples=20, deadline=None)
@given(_large_binomial_args())
@example((10**6, 300000))
@example((599999, 200000))
def test_binomial_past_2_16_matches_lucas(args):
    x, y = args
    result = binomial(x, y)
    assert [result % p for p in _NEAR_2_16] == [binomial_mod(x, y, p) for p in _NEAR_2_16]


def test_scaled_binomial_examples():
    assert scaled_binomial(9, 3, 3) == binomial(3, 1) == 3
    assert scaled_binomial(15, 4, 2) == 0
    assert scaled_binomial(30, 20, 10) == binomial(3, 2) == 3
    assert scaled_binomial(6, 4, 1) == binomial(6, 4)


def test_scaled_binomial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        scaled_binomial(0, 0, 1)
    with pytest.raises(ValueError):
        scaled_binomial(6, 4, 0)


@pytest.mark.parametrize("m, factors", [
    (10**12, {2: 12, 5: 12}),
    (2**40, {2: 40}),
    (720720 * 1000, {2: 7, 3: 2, 5: 4, 7: 1, 11: 1, 13: 1}),
    (999999999989, {999999999989: 1}),
], ids=["10^12", "2^40", "720720000", "prime"])
def test_large_arguments_match_their_factorisation(m, factors):
    divs, signed = _from_factorisation(factors)
    assert math.prod(p**e for p, e in factors.items()) == m
    assert divisors(m) == divs
    assert block_divisors(m, 0) == [(1, d, mu) for d, mu in signed]
    squarefree = all(e == 1 for e in factors.values())
    assert _mu(m) == ((-1) ** len(factors) if squarefree else 0)
    assert [_mu(d) for d, _ in signed] == [mu for _, mu in signed]
