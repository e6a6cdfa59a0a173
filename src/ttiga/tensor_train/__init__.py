"""Tensor-train vectors, operators, cross interpolation, and linear solver."""

from .amen import AmenResult, amen_solve
from .core import (
    TtMatrix,
    TtShapeError,
    TtTensor,
    tt_add,
    tt_from_full,
    tt_matvec,
    tt_norm,
    tt_round,
    tt_scale,
    tt_sub,
)
from .cross import CrossOracle, CrossResult, tt_cross
from .io import load_tt, save_tt, tt_info
from .maxvol import MaxvolError, maxvol

__all__ = [
    "AmenResult",
    "CrossOracle",
    "CrossResult",
    "MaxvolError",
    "TtMatrix",
    "TtShapeError",
    "TtTensor",
    "amen_solve",
    "load_tt",
    "maxvol",
    "save_tt",
    "tt_add",
    "tt_cross",
    "tt_from_full",
    "tt_info",
    "tt_matvec",
    "tt_norm",
    "tt_round",
    "tt_scale",
    "tt_sub",
]
