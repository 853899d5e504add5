"""Fuzzy bits: states with a vanishing minimum, gates with vanishing columns.

A fuzzy register of length N is a [0, 1] vector whose minimum entry is 0,
together with the adjoined all-ones vector (the zero of the ambient
semiring module).  Gates are N x N matrices over the same carrier in which
every column attains 0, plus the all-ones matrix.  The matrix action
(A v)_i = min_k (A_ik (+) v_k) uses the min/truncated-sum semiring, so the
identity matrix has 0 on the diagonal and 1 elsewhere, and the coordinate
swap J = [[1, 0], [0, 1]] is an involution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..algebra import FUZZ_MV, ONE, ZERO, neg
from ..linalg import SMatrix, SVector, kron_vec

if TYPE_CHECKING:
    from . import VectorState

__all__ = [
    "fuzzy_state_violation",
    "fuzzy_gate_violation",
    "fuzzy_tensor",
    "fuzzy_basis_ket",
    "complement",
]


def fuzzy_state_violation(v: SVector) -> str | None:
    """None for a vanishing minimum or all ones; the row checked the fuzz-mv carrier."""
    low = min(v.entries)
    if low == ZERO or all(x == ONE for x in v.entries):
        return None
    return f"minimum entry is {low}, expected 0 (or all entries 1)"


def fuzzy_gate_violation(m: SMatrix) -> str | None:
    """None for column-wise vanishing minima or the all-ones matrix.

    `m` is square and fuzz-mv: the row (`models.gate_violation`) checks both.
    """
    if all(x == ONE for row in m.entries for x in row):
        return None
    for j in range(m.cols):
        low = min(m.column(j))
        if low != ZERO:
            return f"column {j} has minimum {low}, expected 0"
    return None


def fuzzy_tensor(states: Sequence[VectorState]) -> VectorState:
    """Kronecker product of fuzzy states, first factor most significant."""
    from . import VectorState  # the package imports this module first
    if not states:
        raise ValueError("empty tensor product")
    acc = states[0].vector
    for st in states[1:]:
        acc = kron_vec(acc, st.vector)
    return VectorState("fuzzy", acc)


def fuzzy_basis_ket(bits: Sequence[int]) -> VectorState:
    """|b_{n-1} ... b_0> with |0> = (0, 1) and |1> = (1, 0), leftmost first."""
    from . import VectorState  # the package imports this module first
    if not bits:
        raise ValueError("empty bit list")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    singles = [VectorState("fuzzy", SVector(FUZZ_MV, (ONE, ZERO) if b else (ZERO, ONE)))
               for b in bits]
    return fuzzy_tensor(singles)


def complement(v: SVector) -> SVector:
    """Entrywise 1 - x.  Not closed on fuzzy states: (0, 1/2) maps to (1, 1/2)."""
    if v.instance.name != "fuzz-mv":
        raise ValueError("complement is defined on the fuzz-mv carrier")
    return SVector(FUZZ_MV, tuple(neg(x) for x in v.entries))
