"""The four computation models and their shared gate descriptor.

Each model pairs a scalar carrier with a membership predicate for states
and for gates:

    classical   boolean      basis vectors        permutation matrices
    stochastic  probability  distributions        column-stochastic matrices
    quantum     complex      unit-norm vectors    unitary matrices
    fuzzy       fuzz-mv      min-0 (or all-ones)  column-min-0 (or all-ones)

Each model is one row of `MODELS`: its carrier, predicates, builtin gates,
dense run and measurement are lookups in that row, so a new model is a new
row.  A `dense` row's states run as vectors over its own carrier, through
`linalg`'s kernels on numerators: stochastic and fuzzy as integers over a
scale, quantum as its complex entries at scale 1.  Classical runs on a
basis index; only quantum measures.  The row checks carrier and
squareness; each model module states only its own property, one
predicate per set.  Every row
builds its builtins over its own carrier, which `linalg` holds as
numerators at scale 1, like file gates over theirs, and the classical,
stochastic and fuzzy predicates read numerators over a scale, so a member
builds no rational.  Classical gates that are not invertible (AND, OR,
XOR, NAND, NOR, FANOUT) appear through their reversible embedding: one
extra target wire receives y XOR f(x), so every registered matrix passes
its model's predicate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping

from ..algebra import BOOLEAN, COMPLEX, FUZZ_MV, PROBABILITY, SemiringInstance
from ..errors import MembershipError
from ..linalg import SMatrix, SVector, matrix_from_permutation, zeros
from . import classical, fuzzy, quantum, stochastic

__all__ = [
    "Model",
    "MODELS",
    "MODEL_NAMES",
    "GateDescriptor",
    "VectorState",
    "builtin_gate",
    "gate_violation",
    "state_violation",
]


@dataclass(frozen=True)
class Model:
    """A model of computation: its carrier, membership predicates and named gates.

    The predicates see only values over `instance` (and square gates); the
    lookups `state_violation` and `gate_violation` check that first.
    `gates` maps each builtin name to a zero-argument constructor of its
    matrix; `builtin_gate` runs it on first lookup, not at import.
    `dense` says that `simulate` runs the model's states as vectors over
    `instance` (False: a basis-index run).  `measure(state, seed)` draws a
    basis index from a state and a seed in [0, 2^64) (None: no measurement).
    `compounded(result, operands)`: whether a non-member product of members
    fails only as far as their accepted tolerance allows (exact rows: never).
    """

    name: str
    instance: SemiringInstance
    state_violation: Callable[[SVector], str | None]
    gate_violation: Callable[[SMatrix], str | None]
    gates: Mapping[str, Callable[[], SMatrix]]
    dense: bool = True
    measure: Callable[[VectorState, int], int] | None = None
    compounded: Callable[[SVector | SMatrix, tuple], bool] = lambda result, operands: False


# The reversible builtins as permutations of basis indices: e_j -> e_perm[j].
_ID, _NOT, _CNOT, _SWAP = (0, 1), (1, 0), (0, 1, 3, 2), (0, 2, 1, 3)


def _permutation_gates(instance: SemiringInstance,
                       **perms: tuple[int, ...]) -> dict[str, Callable[[], SMatrix]]:
    return {name: functools.partial(matrix_from_permutation, perm, instance)
            for name, perm in perms.items()}


def _embedded_gate(name: str) -> Callable[[], SMatrix]:
    return lambda: classical.reversible_embed(classical.classical_gate(name))


# Row callables are looked up in their module at call time, not captured
# here, so that replacing a module attribute (as a tracer does) reaches them.
MODELS = {m.name: m for m in (
    Model("classical", BOOLEAN,
          lambda v: classical.basis_vector_violation(v),
          lambda m: classical.permutation_violation(m),
          {**_permutation_gates(BOOLEAN, NOT=_NOT, CNOT=_CNOT, SWAP=_SWAP),
           **{name: _embedded_gate(name) for name in ("AND", "OR", "XOR", "NAND", "NOR")},
           # copying onto a 0 ancilla is the embedding of the identity table
           "FANOUT": lambda: classical.reversible_embed(classical.TruthTable(1, 1, (0, 1)))},
          dense=False),
    Model("stochastic", PROBABILITY,
          lambda v: stochastic.distribution_violation(v),
          lambda m: stochastic.stochastic_violation(m),
          _permutation_gates(PROBABILITY, NOT=_NOT, CNOT=_CNOT, SWAP=_SWAP)),
    Model("quantum", COMPLEX,
          lambda v: quantum.state_norm_violation(v),
          lambda m: quantum.unitary_violation(m),
          {**_permutation_gates(COMPLEX, X=_NOT, CNOT=_CNOT, SWAP=_SWAP),
           "H": functools.partial(SMatrix, COMPLEX, quantum.H),
           "Z": functools.partial(SMatrix, COMPLEX, quantum.Z)},
          measure=lambda state, seed: quantum.measure(state, seed),
          compounded=lambda result, operands: quantum.compounded(result, operands)),
    Model("fuzzy", FUZZ_MV,
          lambda v: fuzzy.fuzzy_state_violation(v),
          lambda m: fuzzy.fuzzy_gate_violation(m),
          {**_permutation_gates(FUZZ_MV, FID=_ID, FNOT=_NOT, FSWAP=_SWAP),
           "FZERO": functools.partial(zeros, FUZZ_MV, 2)}),
)}

MODEL_NAMES = tuple(MODELS)


def _model(name: str) -> Model:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}") from None


def _carrier_violation(row: Model, x: SMatrix | SVector) -> str | None:
    if x.instance != row.instance:
        return f"instance {x.instance.name} is not the {row.instance.name} carrier"
    return None


def gate_violation(model: str, m: SMatrix) -> str | None:
    """Why `m` is no gate of the model, or None: carrier, shape, then the row's predicate."""
    row = _model(model)
    reason = _carrier_violation(row, m)
    if reason is None and m.rows != m.cols:
        reason = f"not square ({m.rows}x{m.cols})"
    return reason or row.gate_violation(m)


def state_violation(model: str, v: SVector) -> str | None:
    """Why `v` is no state of the model, or None: carrier, then the row's predicate."""
    row = _model(model)
    return _carrier_violation(row, v) or row.state_violation(v)


@dataclass(frozen=True)
class GateDescriptor:
    """A member gate of a model: its name and 2^k x 2^k matrix, checked here.

    This is the one place a gate's shape and membership are checked, for
    builtins and user matrices alike; code holding a descriptor relies on it.
    """

    model: str
    name: str
    matrix: SMatrix

    def __post_init__(self):
        n = self.matrix.rows
        if self.matrix.cols != n:
            raise MembershipError(f"gate {self.name!r}: matrix must be square")
        if n < 2 or n & (n - 1):
            raise MembershipError(
                f"gate {self.name!r}: dimension {n} is not a power of two >= 2")
        violation = gate_violation(self.model, self.matrix)
        if violation is not None:
            raise MembershipError(f"{self.model} gate {self.name!r}: {violation}")

    @property
    def arity(self) -> int:
        """The number of wires the gate acts on: log2 of its dimension."""
        return self.matrix.rows.bit_length() - 1


@dataclass(frozen=True)
class VectorState:
    """A member state of a model that keeps the whole vector (all but classical)."""

    model: str
    vector: SVector

    def __post_init__(self):
        violation = state_violation(self.model, self.vector)
        if violation is not None:
            raise MembershipError(violation)

    @classmethod
    def known_member(cls, model: str, vector: SVector) -> VectorState:
        """The state of a vector its caller has already checked, without a second check."""
        state = object.__new__(cls)
        object.__setattr__(state, "model", model)
        object.__setattr__(state, "vector", vector)
        return state


@functools.lru_cache(maxsize=None)
def builtin_gate(model: str, name: str) -> GateDescriptor:
    """Look up a named gate; raises ValueError for names the model lacks."""
    try:
        make = _model(model).gates[name]
    except KeyError:
        raise ValueError(f"unknown {model} gate {name!r}") from None
    return GateDescriptor(model, name, make())
