"""Tensor-train isogeometric Poisson solver on NURBS volumes.

Subpackages and modules:

* :mod:`ttiga.splines` -- B-spline/NURBS bases and their vectorized evaluation.
* :mod:`ttiga.geometry` -- exact NURBS patches for the benchmark solids.
* :mod:`ttiga.tensor_train` -- TT arithmetic, rounding, cross, AMEn solver.
* :mod:`ttiga.assembly` -- TT Galerkin stiffness/load assembly, Dirichlet
  elimination.
* :mod:`ttiga.driver` -- end-to-end solves, reference oracle, metrics.
* :mod:`ttiga.cli` -- command-line front end (``ttiga``).
"""

from .driver import SolveConfig, SolutionReport, full_grid_reference, solve_poisson

__version__ = "0.1.0"

__all__ = [
    "SolveConfig",
    "SolutionReport",
    "full_grid_reference",
    "solve_poisson",
    "__version__",
]
