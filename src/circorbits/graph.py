"""Two-step circulant digraphs and walks on them.

A circulant digraph on n vertices with step sizes a < b has vertex set
Z_n and bonds v -> v+a, v -> v+b (mod n). Graphs are stored implicitly
as (n, a, b); adjacency is computed on demand. Vertices are residues
0..n-1 and all arithmetic reduces mod n eagerly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import DisconnectedGraph, NotLatticePoint, RejectedParameters
from .words import check_word


class CirculantGraph(namedtuple("CirculantGraph", "n a b")):
    """The circulant digraph C_n(a, b) with 0 < a < b < n."""

    __slots__ = ()

    def __new__(cls, n: int, a: int, b: int) -> CirculantGraph:
        if not (0 < a < b < n):
            raise RejectedParameters(f"need 0 < a < b < n, got n={n}, a={a}, b={b}")
        return super().__new__(cls, n, a, b)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> CirculantGraph:
        """Build through __new__, so _replace checks the steps too."""
        return cls(*iterable)

    @property
    def d(self) -> int:
        """Step gap b - a."""
        return self.b - self.a

    @property
    def g(self) -> int:
        """gcd(a, d), equal to gcd(a, b); every winding number is a multiple of it."""
        return math.gcd(self.a, self.d)

    def is_strongly_connected(self) -> bool:
        return math.gcd(self.n, self.a, self.b) == 1

    def require_connected(self) -> None:
        if not self.is_strongly_connected():
            raise DisconnectedGraph(
                f"C_{self.n}({self.a},{self.b}) is disconnected: "
                f"gcd({self.n},{self.a},{self.b}) = {math.gcd(self.n, self.a, self.b)} != 1"
            )

    def winding_number(self, w: str) -> int:
        """Transit distance l*a + k*d over n; raises NotLatticePoint unless the word closes."""
        check_word(w)
        delta = len(w) * self.a + w.count("b") * self.d
        if delta % self.n:
            raise NotLatticePoint(
                f"word {w!r} has transit distance {delta}, not a multiple of n={self.n}"
            )
        return delta // self.n


def dot_graph(n: int, steps: Sequence[int]) -> str:
    """Graphviz DOT text for the circulant digraph on n vertices with the given steps.

    Supports any number of step sizes for rendering; only two-step graphs
    take part in counting. Two-step graphs label bonds 'a' and 'b',
    larger families label each bond with its step size.
    """
    if n < 1:
        raise RejectedParameters(f"need n >= 1, got n={n}")
    if not steps:
        raise RejectedParameters("need at least one step size")
    if list(steps) != sorted(set(steps)) or steps[0] < 1 or steps[-1] >= n:
        raise RejectedParameters(
            f"steps must be strictly increasing in 1..n-1, got {list(steps)}"
        )
    if len(steps) == 2:
        labels = {steps[0]: "a", steps[1]: "b"}
    else:
        labels = {s: str(s) for s in steps}
    lines = [f"digraph circulant_{n} {{", "  layout=circo;"]
    for v in range(n):
        lines.append(f"  {v};")
    for s in steps:
        for v in range(n):
            lines.append(f'  {v} -> {(v + s) % n} [label="{labels[s]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
