"""Probabilistic bits: exact distributions and column-stochastic matrices.

A state is a rational probability vector; dynamics are matrices whose
columns each sum to exactly 1, acting on column vectors from the left.
The family is closed under products but not under inverses, so it forms
a semigroup rather than a group.

A request runs these programs on integers from the literal to the printed
line: literals parse to numerators over a common denominator (see
`linalg.literal_matrix`), builtins and basis kets are numerators at scale
1, and a gate G/g acting on a state s/D gives (G s)/(g D): the probability
carrier multiplies the scales (`algebra.PROBABILITY.scaled`).  The scale
of a run's state grows by each gate's common denominator; `simulate`
divides the numerators and the scale by their gcd, so the scale stays the
least common denominator of the state's entries.  Each predicate below
reads its operand's numerators over their scale: a member builds no
rational, and a rejection prints its values through `format_ratio`.
"""

from __future__ import annotations

from ..algebra import format_ratio
from ..linalg import SMatrix, SVector

__all__ = [
    "stochastic_violation",
    "distribution_violation",
]


def distribution_violation(v: SVector) -> str | None:
    """None if `v` is a distribution, else why not; the row checked its carrier.

    Read as numerators over a scale: a nonnegative sum equal to the scale
    bounds every entry by it, so a member is decided without a rational.
    """
    entries, scale = v.numerators, v.scale
    if min(entries) >= 0 and sum(entries) == scale:
        return None
    for i, x in enumerate(entries):
        if not 0 <= x <= scale:
            return f"entry {i} is {format_ratio(x, scale, 'an entry')}, outside [0, 1]"
    return (f"entries sum to {format_ratio(sum(entries), scale, 'the sum of the entries')}, "
            "expected exactly 1")


def stochastic_violation(m: SMatrix) -> str | None:
    """None if `m` is column-stochastic, else the reason it is not.

    `m` is square and probability: the row (`models.gate_violation`) checks
    both.  As for states, nonnegative numerators whose every column sums to
    the scale decide a member without a rational; a non-member has a negative
    entry or a column that does not, at which one of the loops below returns.
    """
    rows, scale = m.numerators, m.scale
    columns = list(zip(*rows))
    if min(map(min, rows)) >= 0 and all(sum(column) == scale for column in columns):
        return None
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not 0 <= x <= scale:
                return f"entry ({i}, {j}) is {format_ratio(x, scale, 'an entry')}, outside [0, 1]"
    for j, column in enumerate(columns):
        total = sum(column)
        if total != scale:
            return (f"column {j} sums to {format_ratio(total, scale, f'the sum of column {j}')}, "
                    "expected exactly 1")

