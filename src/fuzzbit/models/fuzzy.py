"""Fuzzy bits: states with a vanishing minimum, gates with vanishing columns.

A fuzzy register of length N is a [0, 1] vector whose minimum entry is 0,
together with the adjoined all-ones vector (the zero of the ambient
semiring module).  Gates are N x N matrices over the same carrier in which
every column attains 0, plus the all-ones matrix.  The matrix action
(A v)_i = min_k (A_ik (+) v_k) uses the min/truncated-sum semiring, so the
identity matrix has 0 on the diagonal and 1 elsewhere, and the coordinate
swap J = [[1, 0], [0, 1]] is an involution.

A request runs these programs on integers from the literal to the printed
line: literals parse to numerators over a common denominator (see
`linalg.ScaledMatrix`), gates and states are checked by the integer
predicates below, and `simulate` runs over one scale L for the whole run,
the lcm of the state's and every gate's scale: the multiples of 1/L are
closed under min and the truncated sum (the finite MV-chain of order L), so
no step changes the scale.  A rejection is worded by the rational
predicate, which the integer one equals.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..algebra import FUZZ_MV, ONE, ZERO, format_rational, mv_chain, neg
from ..linalg import ScaledMatrix, ScaledVector, SMatrix, SVector

__all__ = [
    "fuzzy_state_violation",
    "fuzzy_gate_violation",
    "encode_run",
    "scaled_state_ok",
    "scaled_gate_ok",
    "decode",
    "complement",
]


def fuzzy_state_violation(v: SVector) -> str | None:
    """None for a vanishing minimum or all ones; the row checked the fuzz-mv carrier."""
    low = min(v.entries)
    if low == ZERO or all(x == ONE for x in v.entries):
        return None
    return (f"minimum entry is {format_rational(low, 'the minimum entry')}, "
            "expected 0 (or all entries 1)")


def fuzzy_gate_violation(m: SMatrix) -> str | None:
    """None for column-wise vanishing minima or the all-ones matrix.

    `m` is square and fuzz-mv: the row (`models.gate_violation`) checks both.
    """
    if all(x == ONE for row in m.entries for x in row):
        return None
    for j in range(m.cols):
        low = min(m.column(j))
        if low != ZERO:
            return f"column {j} has minimum {format_rational(low, 'a column minimum')}, expected 0"
    return None


def encode_run(initial: SVector, plans: Sequence[SMatrix]):
    """The run over the MV-chain of order L, the lcm of the scales of the
    state and every gate; a step keeps the scale, so each factor is 1."""
    state = ScaledVector.of(initial)
    plans = [ScaledMatrix.of(m) for m in plans]
    scale = math.lcm(state.scale, *(m.scale for m in plans))
    chain = mv_chain(scale)

    def rescaled(values: Sequence[int], own: int) -> Sequence[int]:
        k = scale // own
        return values if k == 1 else tuple(x * k for x in values)

    steps = [(SMatrix(chain, [rescaled(row, m.scale) for row in m.numerators]), 1)
             for m in plans]
    return scale, SVector(chain, rescaled(state.numerators, state.scale)), steps


def scaled_state_ok(entries: Sequence[int], scale: int) -> bool:
    """Whether entries/scale is a fuzzy state: every entry in [0, scale], and the
    minimum is 0 or every entry is `scale`.

    This is exactly `fuzzy_state_violation(decode(entries, scale)) is None`,
    where reading the decoded entries rejects one outside [0, scale].
    """
    low = min(entries)
    return (low == 0 or low == scale) and max(entries) <= scale


def scaled_gate_ok(rows: Sequence[Sequence[int]], scale: int) -> bool:
    """Whether rows/scale is a fuzzy gate: every entry in [0, scale], and every
    column's minimum 0 or every entry `scale` (the all-ones matrix).

    This is exactly `fuzzy_gate_violation` of the matrix rows/scale
    returning None, where building that matrix rejects an entry outside
    [0, scale].
    """
    if max(map(max, rows)) > scale:
        return False
    return min(map(min, rows)) == scale or all(min(column) == 0 for column in zip(*rows))


def decode(entries: Sequence[int], scale: int) -> SVector:
    """The fuzz-mv vector entries/scale, whose scalars are built on first read;
    reading them raises ValueError for an entry outside [0, scale]."""
    return ScaledVector(FUZZ_MV, entries, scale)


def complement(v: SVector) -> SVector:
    """Entrywise 1 - x.  Not closed on fuzzy states: (0, 1/2) maps to (1, 1/2)."""
    if v.instance != FUZZ_MV:
        raise ValueError("complement is defined on the fuzz-mv carrier")
    return SVector(FUZZ_MV, tuple(neg(x) for x in v.entries))
