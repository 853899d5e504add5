"""Probabilistic bits: exact distributions and column-stochastic matrices.

A state is a rational probability vector; dynamics are matrices whose
columns each sum to exactly 1, acting on column vectors from the left.
The family is closed under products but not under inverses, so it forms
a semigroup rather than a group.
"""

from __future__ import annotations

from fractions import Fraction

from ..linalg import SMatrix, SVector

__all__ = [
    "stochastic_violation",
    "distribution_violation",
]


def distribution_violation(v: SVector) -> str | None:
    """None if `v` is a distribution, else why not; the row checked its carrier."""
    for i, x in enumerate(v.entries):
        if not 0 <= x <= 1:
            return f"entry {i} is {x}, outside [0, 1]"
    total = sum(v.entries, Fraction(0))
    if total != 1:
        return f"entries sum to {total}, expected exactly 1"
    return None


def stochastic_violation(m: SMatrix) -> str | None:
    """None if `m` is column-stochastic, else the reason it is not.

    `m` is square and probability: the row (`models.gate_violation`) checks both.
    """
    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            if not 0 <= x <= 1:
                return f"entry ({i}, {j}) is {x}, outside [0, 1]"
    for j in range(m.cols):
        total = sum(m.column(j), Fraction(0))
        if total != 1:
            return f"column {j} sums to {total}, expected exactly 1"
    return None
