"""Independent brute-force reference routes used as test oracles.

Deliberately written with different representations and algorithms than
the package (bitmask words, naive divisor scans, direct rotation sets)
so agreement is meaningful.
"""

from itertools import combinations, product
from math import comb, gcd


def naive_divisors(m):
    return [i for i in range(1, m + 1) if m % i == 0]


def naive_mu(m):
    if m == 1:
        return 1
    count = 0
    x = m
    p = 2
    while p <= x:
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            count += 1
        p += 1
    return (-1) ** count


def prime_divisors(m):
    return [p for p in range(2, m + 1) if m % p == 0 and naive_mu(p) == -1]


def rotl(x, s, l):
    """Rotate an l-bit word left by s."""
    s %= l
    mask = (1 << l) - 1
    return ((x << s) | (x >> (l - s))) & mask


def int_is_primitive(x, l):
    """True iff no proper rotation of the l-bit word x equals x."""
    return all(rotl(x, l // p, l) != x for p in prime_divisors(l))


def count_nonprimitive_direct(l, k):
    """Count nonprimitive fixed-content words by testing every one."""
    total = 0
    for positions in combinations(range(l), k):
        x = sum(1 << p for p in positions)
        if not int_is_primitive(x, l):
            total += 1
    return total


def string_rotations(w):
    return [w[s:] + w[:s] for s in range(len(w))]


def lyndon_words_direct(l, k):
    """Fixed-content Lyndon words via explicit rotation sets over all 2^l words."""
    out = []
    for letters in product("ab", repeat=l):
        w = "".join(letters)
        if w.count("b") != k:
            continue
        rots = string_rotations(w)
        if len(set(rots)) == l and w == min(rots):
            out.append(w)
    return sorted(out)


def string_is_primitive(w):
    l = len(w)
    return all(w != w[:p] * (l // p) for p in range(1, l) if l % p == 0)


def pascal_table(n_max):
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        rows.append(row)
    return rows


def scaled_binomial(l, k, m):
    """C(l/m, k/m) when m divides both l and k and 0 <= k <= l, else 0."""
    if l < 1:
        raise ValueError(f"scaled_binomial needs l >= 1, got {l}")
    if m < 1:
        raise ValueError(f"scaled_binomial needs m >= 1, got {m}")
    if l % m or k % m or not 0 <= k <= l:
        return 0
    return comb(l // m, k // m)


def closed_lattice_scan(n, a, b, l):
    """All (k, omega) with 0 <= k <= l and n | l*a + k*(b-a), by direct scan."""
    d = b - a
    out = []
    for k in range(l + 1):
        delta = l * a + k * d
        if delta % n == 0:
            out.append((k, delta // n))
    return out


def necklace_lyndon_total(l):
    """Classical count of binary Lyndon words of length l."""
    total = sum(naive_mu(m) * 2 ** (l // m) for m in naive_divisors(l))
    assert total % l == 0
    return total // l
