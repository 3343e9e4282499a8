"""Independent brute-force reference routes used as test oracles.

Deliberately written with different representations and algorithms than
the package (string words where it uses bitmasks and bitmasks where it
uses strings, naive divisor scans, direct rotation sets, full scans where
it walks a residue class) so agreement is meaningful.
"""

from functools import cache
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


def step_string(w, a, b):
    """w in the step notation of steps (a, b), letter by letter: the steps run
    together when b <= 9 and are comma-separated otherwise."""
    return ("" if b <= 9 else ",").join(str(a if c == "a" else b) for c in w)


def walk(n, a, b, v, w):
    """Vertices of the walk from v with step word w on C_n(a, b): the start, then one per letter.

    Vertex i is v plus the steps of the first i letters, counted afresh for each i.
    """
    return [(v + w[:i].count("a") * a + w[:i].count("b") * b) % n for i in range(len(w) + 1)]


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


@cache
def _factorials_mod(p):
    """[i! mod p for i < p]."""
    table = [1] * p
    for i in range(1, p):
        table[i] = table[i - 1] * i % p
    return table


def binomial_mod(x, y, p):
    """C(x, y) mod the prime p by Lucas' theorem: the product, over the base-p
    digits x_i and y_i of x and y, of C(x_i, y_i) mod p from one factorial table.
    It is 0 exactly when adding y and x - y in base p carries (Kummer)."""
    if not 0 <= y <= x:
        return 0
    fact = _factorials_mod(p)
    out = 1
    while y:
        xi, yi = x % p, y % p
        if yi > xi:
            return 0
        out = out * fact[xi] * pow(fact[yi] * fact[xi - yi], -1, p) % p
        x, y = x // p, y // p
    return out


def strongly_connected_count(n_max):
    """How many C_n(a, b) with 3 <= n <= n_max and 0 < a < b < n reach every
    vertex from 0, by a search along the edges from 0. The graph is
    vertex-transitive, so that is strong connectivity."""
    count = 0
    for n in range(3, n_max + 1):
        for a, b in combinations(range(1, n), 2):
            seen, todo = {0}, [0]
            while todo:
                v = todo.pop()
                for w in ((v + a) % n, (v + b) % n):
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            count += len(seen) == n
    return count


def closed_lattice_scan(n, a, b, l):
    """All (k, omega) with 0 <= k <= l and n | l*a + k*(b-a), by direct scan."""
    d = b - a
    out = []
    for k in range(l + 1):
        delta = l * a + k * d
        if delta % n == 0:
            out.append((k, delta // n))
    return out


def lattice_basis_faults(n, a, b, basis):
    """The properties that the `lattice` JSON basis of C_n(a, b) fails, by name.

    With d = b - a and g = gcd(a, d): a_prime = a/g, d_prime = d/g,
    l0*a + k0*d = g*n, 0 <= l0 < d_prime (so l0 = 0 when d_prime = 1), and
    the matrix numerators times the basis columns (d', -a') and (l0, k0) are
    the denominator n times the identity.
    """
    d = b - a
    g = gcd(a, d)
    a1, d1, l0, k0 = (basis[key] for key in ("a_prime", "d_prime", "l0", "k0"))
    columns = [[d1, l0], [-a1, k0]]
    product = [[sum(row[i] * columns[i][j] for i in range(2)) for j in range(2)]
               for row in basis["matrix_numerators"]]
    checks = {
        "a_prime": a1 * g == a,
        "d_prime": d1 * g == d,
        "l0*a + k0*d": l0 * a + k0 * d == g * n,
        "0 <= l0 < d_prime": 0 <= l0 < d1,
        "denominator": basis["denominator"] == n,
        "inverse": product == [[n, 0], [0, n]],
    }
    return [name for name, holds in checks.items() if not holds]


def dot_lines(n, steps):
    """The lines of the Graphviz DOT text of the digraph on Z_n with the given steps.

    The vertex lines, then each edge v -> (v+s) % n, step by step; two steps
    are labelled a and b, any other number of steps by the step itself.
    """
    labels = ["a", "b"] if len(steps) == 2 else [str(s) for s in steps]
    edges = [f'  {v} -> {(v + s) % n} [label="{label}"];'
             for s, label in zip(steps, labels) for v in range(n)]
    return [f"digraph circulant_{n} {{", "  layout=circo;",
            *(f"  {v};" for v in range(n)), *edges, "}"]


def necklace_lyndon_total(l):
    """Classical count of binary Lyndon words of length l."""
    total = sum(naive_mu(m) * 2 ** (l // m) for m in naive_divisors(l))
    # Not an assert: helper modules lose their asserts under python -O.
    if total % l:
        raise ValueError(f"non-integral necklace count for l={l}")
    return total // l


def winding_scan(n, a, b, l):
    """(k, omega) of every class of length l, testing each winding number in range."""
    d = b - a
    out = []
    for omega in range(-(-l * a // n), l * b // n + 1):
        num = omega * n - l * a
        if num % d == 0:
            out.append((num // d, omega))
    return out


def is_lyndon(w):
    """True iff w strictly precedes all of its nontrivial rotations."""
    return all(w < rotated for rotated in string_rotations(w)[1:])


def enumerate_orbits_reference(n, a, b, l, k=None):
    """Every periodic orbit of length l on C_n(a, b), by walking strings.

    Builds every fixed-content word of each closing b-count, starts it at
    every vertex, skips presentations already seen and keeps the least
    (start, word) presentation of each circuit. Returns (start, steps,
    omega, repetition) tuples sorted by (b-count, start, steps).
    """
    out = []
    for kk in range(l + 1) if k is None else [k]:
        omega, rest = divmod(l * a + kk * (b - a), n)
        if rest:
            continue
        seen = set()
        for positions in combinations(range(l), kk):
            letters = ["a"] * l
            for p in positions:
                letters[p] = "b"
            w = "".join(letters)
            rots = string_rotations(w)
            pre = [0]
            for c in w[:-1]:
                pre.append(pre[-1] + (a if c == "a" else b))
            repetition = sum(1 for s in range(l) if pre[s] % n == 0 and rots[s] == w)
            for v in range(n):
                if (v, w) in seen:
                    continue
                presentations = [((v + pre[s]) % n, rots[s]) for s in range(l)]
                seen.update(presentations)
                start, steps = min(presentations)
                out.append((start, steps, omega, repetition))
    out.sort(key=lambda o: (o[1].count("b"), o[0], o[1]))
    return out


def closed_walks_binomial(n, a, b, l):
    """tr(A^l) of C_n(a, b): n times the sum of C(l, k) over the closing b-counts k.

    Walks row l of Pascal's triangle, C(l, k+1) = C(l, k) * (l-k) / (k+1).
    """
    total, c = 0, 1
    for k in range(l + 1):
        if (l * a + k * (b - a)) % n == 0:
            total += c
        c = c * (l - k) // (k + 1)
    return n * total


def closed_walks_polynomial(n, a, b, l):
    """tr(A^l) of C_n(a, b) without binomials, by repeated squaring.

    It is n times the x^0 coefficient of (x^a + x^b)^l mod (x^n - 1).
    """
    def mul(p, q):
        out = [0] * n
        for i, pi in enumerate(p):
            if pi:
                for j, qj in enumerate(q):
                    out[(i + j) % n] += pi * qj
        return out

    power = [1] + [0] * (n - 1)
    base = [0] * n
    base[a] += 1
    base[b] += 1
    while l:
        if l & 1:
            power = mul(power, base)
        base = mul(base, base)
        l >>= 1
    return n * power[0]
