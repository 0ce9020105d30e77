"""
kommute: permutations at a given Hamming commutation distance.

Two permutations alpha and beta are at commutation distance k when
alpha*beta and beta*alpha disagree on exactly k points.  The package
computes these counts by closed formula where one exists, enumerates the
witnesses constructively for the single-cycle and fixed-point-free
involution cases, verifies everything against an exhaustive oracle at
small degree, and cross-checks the generating functions involved.
"""

from .perm import (
    CycleType,
    ParseError,
    Permutation,
    all_permutations,
    parse_permutation,
)

__all__ = [
    "CycleType",
    "ParseError",
    "Permutation",
    "all_permutations",
    "parse_permutation",
]
