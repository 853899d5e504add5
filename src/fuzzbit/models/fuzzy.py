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
`linalg.literal_matrix`), builtins and basis kets are numerators at scale
1, and a gate over the scale g acts on a state over D at L = lcm(g, D)
(`algebra.FUZZ_MV.scaled`): the multiples of 1/L are closed under min and
the truncated sum (the finite MV-chain of order L).  Each predicate below
reads its operand's numerators over their scale: a member builds no
rational, and a rejection prints its values through `format_ratio`.
"""

from __future__ import annotations

from ..algebra import FUZZ_MV, format_ratio, neg
from ..linalg import SMatrix, SVector

__all__ = [
    "fuzzy_state_violation",
    "fuzzy_gate_violation",
    "complement",
]


def fuzzy_state_violation(v: SVector) -> str | None:
    """None for a vanishing minimum or all ones; the row checked the fuzz-mv carrier."""
    entries, scale = v.numerators, v.scale
    low = min(entries)
    if (low == 0 or low == scale) and max(entries) <= scale:
        return None
    for i, x in enumerate(entries):
        if not 0 <= x <= scale:  # only a faulty kernel gives one
            return f"entry {i} is {format_ratio(x, scale, 'an entry')}, outside [0, 1]"
    return (f"minimum entry is {format_ratio(low, scale, 'the minimum entry')}, "
            "expected 0 (or all entries 1)")


def fuzzy_gate_violation(m: SMatrix) -> str | None:
    """None for column-wise vanishing minima or the all-ones matrix.

    `m` is square and fuzz-mv: the row (`models.gate_violation`) checks both.
    """
    rows, scale = m.numerators, m.scale
    lows = [min(column) for column in zip(*rows)]
    if max(map(max, rows)) <= scale and (min(lows) == scale or not any(lows)):
        return None
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not 0 <= x <= scale:  # only a faulty kernel gives one
                return f"entry ({i}, {j}) is {format_ratio(x, scale, 'an entry')}, outside [0, 1]"
    for j, low in enumerate(lows):
        if low != 0:
            return (f"column {j} has minimum {format_ratio(low, scale, 'a column minimum')}, "
                    "expected 0")
    return None


def complement(v: SVector) -> SVector:
    """Entrywise 1 - x.  Not closed on fuzzy states: (0, 1/2) maps to (1, 1/2)."""
    if v.instance != FUZZ_MV:
        raise ValueError("complement is defined on the fuzz-mv carrier")
    return SVector(FUZZ_MV, tuple(neg(x) for x in v.entries))
