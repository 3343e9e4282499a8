import copy
import pickle

import pytest

from circorbits import (
    CirculantGraph,
    CountTerm,
    LatticeBasis,
    Orbit,
    OrbitClass,
    OrbitCountReport,
    RejectedParameters,
    WordDecomposition,
    basis,
    count_orbits_lk,
)

from conftest import run_python

G = CirculantGraph(9, 1, 4)


@pytest.mark.parametrize("build", [
    lambda: CirculantGraph(9, 4, 1),
    lambda: CirculantGraph(n=9, a=4, b=1),
    lambda: CirculantGraph._make((3, 2, 1)),
    lambda: G._replace(b=9),
    lambda: G._replace(a=0),
], ids=["positional", "keyword", "_make", "_replace-b", "_replace-a"])
def test_every_construction_path_checks_the_steps(build):
    with pytest.raises(RejectedParameters, match="need 0 < a < b < n"):
        build()


def test_graph_copies_and_stays_immutable():
    for H in (pickle.loads(pickle.dumps(G)), copy.deepcopy(G), G._replace(b=5)._replace(b=4)):
        assert type(H) is CirculantGraph and H == G
    with pytest.raises(AttributeError):
        G.n = 10
    assert not hasattr(G, "__dict__")
    assert G == (9, 1, 4)


def test_public_shape_of_the_value_types():
    assert CirculantGraph._fields == ("n", "a", "b")
    assert OrbitClass._fields == ("l", "k", "omega")
    assert LatticeBasis._fields == ("n", "a_prime", "d_prime", "l0", "k0")
    assert OrbitCountReport._fields == ("l", "k", "omega", "count", "terms")
    assert repr(G) == "CirculantGraph(n=9, a=1, b=4)"
    assert repr(basis(CirculantGraph(21, 4, 10))) == \
        "LatticeBasis(n=21, a_prime=2, d_prime=3, l0=0, k0=7)"
    report = count_orbits_lk(G, 9, 3)
    # The count field shadows tuple.count.
    assert OrbitCountReport.count is not tuple.count
    assert report.count == 84 and isinstance(report.count, int)
    assert report._replace(count=85).count == 85


TERM = CountTerm(1, 1, 84)
VALUES = [
    (G, ("n", "a", "b"), "CirculantGraph(n=9, a=1, b=4)", {"n": 10}),
    (OrbitClass(9, 3, 2), ("l", "k", "omega"), "OrbitClass(l=9, k=3, omega=2)", {"omega": 3}),
    (LatticeBasis(21, 2, 3, 0, 7), ("n", "a_prime", "d_prime", "l0", "k0"),
     "LatticeBasis(n=21, a_prime=2, d_prime=3, l0=0, k0=7)", {"k0": 8}),
    (TERM, ("m", "mu", "binomial", "q"), "CountTerm(m=1, mu=1, binomial=84, q=None)", {"q": 2}),
    (OrbitCountReport(9, 3, 2, 84, (TERM,)), ("l", "k", "omega", "count", "terms"),
     "OrbitCountReport(l=9, k=3, omega=2, count=84, "
     "terms=(CountTerm(m=1, mu=1, binomial=84, q=None),))", {"count": 85}),
    (Orbit(0, "aab", 1, 1), ("start", "steps", "omega", "repetition"),
     "Orbit(start=0, steps='aab', omega=1, repetition=1)", {"start": 2}),
    (WordDecomposition("ab", 3), ("root", "repetition"),
     "WordDecomposition(root='ab', repetition=3)", {"repetition": 4}),
]


@pytest.mark.parametrize("value,fields,text,change", VALUES,
                         ids=[type(v[0]).__name__ for v in VALUES])
def test_every_value_type_is_a_slotted_tuple_with_a_fixed_shape(value, fields, text, change):
    cls = type(value)
    assert issubclass(cls, tuple)
    assert cls._fields == fields
    assert repr(value) == text
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value
    changed = value._replace(**change)
    assert type(changed) is cls
    assert changed._asdict() == {**value._asdict(), **change}
    # A subclass without __slots__ = () would give every instance a __dict__.
    assert not hasattr(value, "__dict__")


def test_only_count_term_has_a_default():
    assert CountTerm._field_defaults == {"q": None}
    assert CountTerm(1, 1, 2).q is None
    for value, *_ in VALUES:
        if type(value) is not CountTerm:
            assert type(value)._field_defaults == {}


def test_cold_import_of_the_cli_skips_heavy_stdlib_modules():
    # -S keeps site-packages .pth files from importing these modules first
    # and so hiding a regression in the package's own imports. The oracle is
    # imported only by the enumerate and verify handlers, decimal only to
    # print a count past cli._SPLIT_BITS.
    heavy = ("dataclasses", "inspect", "ast", "dis", "typing", "pickle", "decimal",
             "circorbits.oracle")
    listed = f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    proc = run_python("-c", f"import sys, circorbits.cli; {listed}", text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
