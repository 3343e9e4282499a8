import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import circorbits
from circorbits import (
    CirculantGraph,
    LatticeBasis,
    OrbitClass,
    OrbitCountReport,
    RejectedParameters,
    basis,
    count_orbits_lk,
)

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


def test_cold_import_of_the_cli_skips_heavy_stdlib_modules():
    # -S keeps site-packages .pth files from importing these modules first
    # and so hiding a regression in the package's own imports.
    src = Path(circorbits.__file__).resolve().parents[1]
    heavy = ("dataclasses", "inspect", "ast", "dis")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, circorbits.cli; print(sorted(m for m in {heavy!r} if m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
