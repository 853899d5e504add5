"""Qubits: unit-norm complex state vectors, unitary gates, seeded measurement.

All comparisons use the package-wide absolute tolerance of 1e-9 per
component; `compounded` bounds how far products of accepted values may
fail it.  Measurement is reproducible: a 64-bit seed is mixed by the
splitmix64 finalizer into one uniform double, which is inverted through
the cumulative distribution of squared amplitude magnitudes.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat
from typing import TYPE_CHECKING

from ..algebra import COMPLEX_TOL
from ..linalg import SMatrix, SVector

if TYPE_CHECKING:
    from . import VectorState

__all__ = [
    "state_norm_violation",
    "unitary_violation",
    "compounded",
    "H",
    "Z",
    "splitmix64",
    "checked_seed",
    "measure",
]

_H = 1.0 / math.sqrt(2.0)

# Rows of the two builtins that are not permutation matrices; the model
# table builds X, CNOT and SWAP from their permutations.
H = ((_H + 0j, _H + 0j), (_H + 0j, -_H + 0j))
Z = ((1 + 0j, 0j), (0j, -1 + 0j))


def state_norm_violation(v: SVector) -> str | None:
    """None if `v` is finite with unit norm within `COMPLEX_TOL`; the row checked its carrier.

    A non-finite entry makes the squared norm inf or NaN, which fails the
    bound, so only a rejection looks for one to name.
    """
    try:
        norm_sq = sum(map(pow, map(abs, v.entries), repeat(2)))
    except OverflowError:  # a finite entry such as 1e200: the norm is past any double
        norm_sq = math.inf
    if abs(norm_sq - 1.0) <= COMPLEX_TOL:
        return None
    for i, a in enumerate(v.entries):
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            return f"entry {i} is not finite"
    return f"squared norm is {norm_sq!r}, expected 1 within {COMPLEX_TOL}"


def _gram(m: SMatrix):
    """The rows of U†U: entry (i, j) sums conj(m[k][i]) * m[k][j] over k in order."""
    columns = tuple(zip(*m.entries))
    for column in columns:
        left = [x.conjugate() for x in column]
        yield [sum(map(operator.mul, left, right)) for right in columns]


def unitary_violation(m: SMatrix) -> str | None:
    """None if the conjugate transpose inverts `m` within `COMPLEX_TOL`.

    `m` is square and complex: the row (`models.gate_violation`) checks both.
    """
    for i, row in enumerate(_gram(m)):
        for j, acc in enumerate(row):
            want = 1.0 if i == j else 0.0
            if abs(acc.real - want) > COMPLEX_TOL or abs(acc.imag) > COMPLEX_TOL:
                return f"columns {i} and {j} are not orthonormal (deviation {abs(acc - want):.3e})"
    return None


def _deviation(x: SVector | SMatrix) -> float:
    """|‖v‖² − 1| for a state.  For a gate, the largest row sum of |U†U − I|,
    real and imaginary parts taken apart, which bounds its spectral norm.
    NaN or inf where an entry is not finite."""
    if isinstance(x, SVector):
        return abs(sum(a.real * a.real + a.imag * a.imag for a in x.entries) - 1.0)
    return max(sum(abs(z.real - (i == j)) + abs(z.imag) for j, z in enumerate(row))
               for i, row in enumerate(_gram(x)))


def compounded(result: SVector | SMatrix, operands: tuple) -> bool:
    """Whether `result`, a product of the accepted `operands` (U v, a block step,
    u ⊗ v or A ⊗ B), deviates no further than their deviations d and e allow:
    (1 + d)(1 + e) − 1, and 2^-48 per entry for double rounding."""
    entries = len(result) if isinstance(result, SVector) else result.rows * result.cols
    allowed = math.prod(1.0 + _deviation(x) for x in operands) - 1.0 + entries * 2.0 ** -48
    return _deviation(result) <= allowed


_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> int:
    """The splitmix64 finalizer: one 64-bit mix of the seed."""
    z = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def checked_seed(seed: int) -> int:
    """`seed` itself if it fits in an unsigned 64-bit integer, else ValueError.

    The one range check of a seed: a program's `measure seed` and the CLI's
    `--seed` raise its message as their own parse errors.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


def measure(state: VectorState, seed: int) -> int:
    """Sample a basis index from |amplitude|^2 via one seeded uniform draw.

    The draw is (splitmix64(seed) >> 11) / 2^53; the inverse CDF walk
    resolves a draw landing exactly on a boundary to the lower index.  A
    seed outside [0, 2^64) is a ValueError, not a draw modulo 2^64.
    """
    u = (splitmix64(checked_seed(seed)) >> 11) * 2.0 ** -53
    acc = 0.0
    fallback = 0
    for i, a in enumerate(state.vector.entries):
        p = abs(a) ** 2
        if p == 0.0:
            continue  # an empty interval can never be drawn
        acc += p
        fallback = i
        if u <= acc:
            return i
    return fallback
