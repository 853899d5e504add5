"""Probabilistic bits: exact distributions and column-stochastic matrices.

A state is a rational probability vector; dynamics are matrices whose
columns each sum to exactly 1, acting on column vectors from the left.
The family is closed under products but not under inverses, so it forms
a semigroup rather than a group.

A request runs these programs on integers from the literal to the printed
line: literals parse to numerators over a common denominator (see
`linalg.ScaledMatrix`), gates and states are checked by the integer
predicates below, and a gate G/g acting on a state s/D gives (G s)/(g D).
The scale of the state grows by each gate's common denominator; `simulate`
then divides the numerators and the scale by their gcd, so the scale stays
the least common denominator of the state's entries.  A rejection is worded
by the rational predicate, which the integer one equals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..algebra import NATURAL, PROBABILITY, format_rational
from ..linalg import ScaledMatrix, ScaledVector, SMatrix, SVector

__all__ = [
    "stochastic_violation",
    "distribution_violation",
    "encode_run",
    "scaled_distribution_ok",
    "scaled_stochastic_ok",
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
    """The run over NATURAL: the state's numerators over their scale D, and
    each gate's numerators over its own scale g, which is the factor a step
    multiplies the scale by."""
    state = ScaledVector.of(initial)
    steps = [(SMatrix(NATURAL, m.numerators), m.scale) for m in map(ScaledMatrix.of, plans)]
    return state.scale, SVector(NATURAL, state.numerators), steps


def scaled_distribution_ok(entries: Sequence[int], scale: int) -> bool:
    """Whether entries/scale is a distribution: each entry in [0, scale], sum scale.

    A nonnegative sum of `scale` bounds every entry by it, so this is
    exactly `distribution_violation(decode(entries, scale)) is None`.
    """
    return min(entries) >= 0 and sum(entries) == scale


def scaled_stochastic_ok(rows: Sequence[Sequence[int]], scale: int) -> bool:
    """Whether rows/scale is column-stochastic: entries nonnegative, columns sum to scale.

    As for states, a nonnegative column sum of `scale` bounds each entry of
    the column by it, so this is exactly `stochastic_violation` of the
    matrix rows/scale returning None.
    """
    return min(map(min, rows)) >= 0 and all(sum(column) == scale for column in zip(*rows))


def decode(entries: Sequence[int], scale: int) -> SVector:
    """The probability vector entries/scale, whose rationals are built on first read."""
    return ScaledVector(PROBABILITY, entries, scale)
