"""Exact counting and enumeration of primitive periodic orbits on two-step circulant digraphs.

The names in `__all__` are exported lazily (PEP 562): `import circorbits`
imports no submodule, and `circorbits.<name>` or `from circorbits import
<name>` imports the one submodule `_EXPORTS` names for it. So a one-shot
`count` never imports the brute-force `oracle`. The import system caches
the submodule in `sys.modules`; the package namespace stays as written.
"""

__version__ = "0.1.0"

# Each exported name -> the submodule that defines it.
_EXPORTS = {
    "CountTerm": "counting",
    "OrbitCountReport": "counting",
    "count_orbits_l": "counting",
    "count_orbits_lk": "counting",
    "count_orbits_lk_unreduced": "counting",
    "predicted_repetition": "counting",
    "sum_reduction_check": "counting",
    "BudgetExceeded": "errors",
    "CircorbitsError": "errors",
    "DisconnectedGraph": "errors",
    "InvariantViolated": "errors",
    "NotLatticePoint": "errors",
    "RejectedParameters": "errors",
    "CirculantGraph": "graph",
    "dot_graph": "graph",
    "LatticeBasis": "lattice",
    "OrbitClass": "lattice",
    "basis": "lattice",
    "bcounts_for_length": "lattice",
    "lattice_points": "lattice",
    "skipped_windings": "lattice",
    "winding_bounds": "lattice",
    "binomial": "numtheory",
    "divisors": "numtheory",
    "Orbit": "oracle",
    "connected_graphs": "oracle",
    "enumerate_orbits": "oracle",
    "phi": "oracle",
    "verify_range": "oracle",
    "WordDecomposition": "words",
    "count_lyndon": "words",
    "count_nonprimitive": "words",
    "decompose": "words",
    "list_lyndon": "words",
    "to_step_string": "words",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        # The import system reads this AttributeError as "not an attribute"
        # and goes on to import a submodule of that name (`from circorbits import cli`).
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
