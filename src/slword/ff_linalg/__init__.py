"""Exact linear algebra over prime fields F_p."""

from .field import PrimeField, is_prime
from .matrix import GFMatrix, RrefResult, as_residues, mulmod, parse_rows, unit_vector, vec
from .maps import (
    AffineSet,
    pick_in_coset_avoiding,
    sl_map_frame,
    solve_block_map,
    solve_linear,
)
from .subspace import Subspace

__all__ = [
    "AffineSet",
    "GFMatrix",
    "PrimeField",
    "RrefResult",
    "Subspace",
    "as_residues",
    "is_prime",
    "mulmod",
    "parse_rows",
    "pick_in_coset_avoiding",
    "sl_map_frame",
    "solve_block_map",
    "solve_linear",
    "unit_vector",
    "vec",
]
