"""Exact counting and enumeration of primitive periodic orbits on two-step circulant digraphs."""

from .counting import (
    CountTerm,
    OrbitCountReport,
    count_orbits_l,
    count_orbits_lk,
    count_orbits_lk_unreduced,
    predicted_repetition,
    sum_reduction_check,
)
from .errors import (
    BudgetExceeded,
    CircorbitsError,
    DisconnectedGraph,
    InvariantViolated,
    NotLatticePoint,
    RejectedParameters,
)
from .graph import CirculantGraph, dot_graph
from .lattice import (
    LatticeBasis,
    OrbitClass,
    basis,
    bcounts_for_length,
    lattice_points,
    skipped_windings,
    winding_bounds,
)
from .numtheory import binomial, divisors
from .oracle import Orbit, connected_graphs, enumerate_orbits, phi, verify_range
from .words import (
    WordDecomposition,
    count_lyndon,
    count_nonprimitive,
    decompose,
    list_lyndon,
    to_step_string,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CirculantGraph",
    "CircorbitsError",
    "CountTerm",
    "DisconnectedGraph",
    "InvariantViolated",
    "LatticeBasis",
    "NotLatticePoint",
    "Orbit",
    "OrbitClass",
    "OrbitCountReport",
    "RejectedParameters",
    "WordDecomposition",
    "basis",
    "bcounts_for_length",
    "binomial",
    "connected_graphs",
    "count_lyndon",
    "count_nonprimitive",
    "count_orbits_l",
    "count_orbits_lk",
    "count_orbits_lk_unreduced",
    "decompose",
    "divisors",
    "dot_graph",
    "enumerate_orbits",
    "lattice_points",
    "list_lyndon",
    "phi",
    "predicted_repetition",
    "skipped_windings",
    "sum_reduction_check",
    "to_step_string",
    "verify_range",
    "winding_bounds",
]
