"""Probabilistic bits: exact distributions and column-stochastic matrices.

A state is a rational probability vector; dynamics are matrices whose
columns each sum to exactly 1, acting on column vectors from the left.
The family is closed under products but not under inverses, so it forms
a semigroup rather than a group.

`simulate` runs these programs on integer numerators: a gate G/g acting on
a state s/D gives (G s)/(g D), so the scale of the state grows by each
gate's common denominator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from ..algebra import NATURAL, PROBABILITY, common_denominator, format_rational, numerators
from ..linalg import SMatrix, SVector

__all__ = [
    "stochastic_violation",
    "distribution_violation",
    "encode_run",
    "scaled_distribution_ok",
    "decode",
]


def distribution_violation(v: SVector) -> str | None:
    """None if `v` is a distribution, else why not; the row checked its carrier."""
    for i, x in enumerate(v.entries):
        if not 0 <= x <= 1:
            return f"entry {i} is {format_rational(x, 'an entry')}, outside [0, 1]"
    total = sum(v.entries, Fraction(0))
    if total != 1:
        return (f"entries sum to {format_rational(total, 'the sum of the entries')}, "
                "expected exactly 1")
    return None


def stochastic_violation(m: SMatrix) -> str | None:
    """None if `m` is column-stochastic, else the reason it is not.

    `m` is square and probability: the row (`models.gate_violation`) checks both.
    """
    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            if not 0 <= x <= 1:
                return f"entry ({i}, {j}) is {format_rational(x, 'an entry')}, outside [0, 1]"
    for j in range(m.cols):
        total = sum(m.column(j), Fraction(0))
        if total != 1:
            return (f"column {j} sums to {format_rational(total, f'the sum of column {j}')}, "
                    "expected exactly 1")
    return None


def encode_run(initial: SVector, plans: Sequence[SMatrix]):
    """The run over NATURAL: the state's numerators over their common
    denominator D, and each gate's numerators over its own common denominator
    g, which is the factor a step multiplies the scale by."""
    steps = []
    for m in plans:
        g = common_denominator(itertools.chain.from_iterable(m.entries))
        steps.append((SMatrix(NATURAL, [numerators(row, g) for row in m.entries]), g))
    scale = common_denominator(initial.entries)
    return scale, SVector(NATURAL, numerators(initial.entries, scale)), steps


def scaled_distribution_ok(entries: Sequence[int], scale: int) -> bool:
    """Whether entries/scale is a distribution: each entry in [0, scale], sum scale.

    A nonnegative sum of `scale` bounds every entry by it, so this is
    exactly `distribution_violation(decode(entries, scale)) is None`.
    """
    return min(entries) >= 0 and sum(entries) == scale


def decode(entries: Sequence[int], scale: int) -> SVector:
    """The probability vector entries/scale."""
    return SVector(PROBABILITY, tuple(Fraction(x, scale) for x in entries))
