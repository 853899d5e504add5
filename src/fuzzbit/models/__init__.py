"""The four computation models and their shared gate descriptor.

Each model pairs a scalar carrier with a membership predicate for states
and for gates:

    classical   boolean      basis vectors        permutation matrices
    stochastic  probability  distributions        column-stochastic matrices
    quantum     complex      unit-norm vectors    unitary matrices
    fuzzy       fuzz-mv      min-0 (or all-ones)  column-min-0 (or all-ones)

Each model is one row of `MODELS`: its carrier, predicates and builtin
gates are lookups in that row, so a new model is a new row.  Classical
gates that are not invertible (AND, OR, XOR, NAND, NOR, FANOUT) appear
through their reversible embedding: one extra target wire receives
y XOR f(x), so every registered matrix passes its model's predicate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

from ..algebra import BOOLEAN, COMPLEX, FUZZ_MV, PROBABILITY, SemiringInstance
from ..errors import MembershipError
from ..linalg import SMatrix, SVector
from . import classical, fuzzy, quantum, stochastic

__all__ = [
    "Model",
    "MODELS",
    "MODEL_NAMES",
    "GateDescriptor",
    "VectorState",
    "model_instance",
    "builtin_gate",
    "gate_violation",
    "state_violation",
    "gate_descriptor_from_matrix",
]


@dataclass(frozen=True)
class Model:
    """A model of computation: its carrier, membership predicates and named gates.

    `gates` maps each builtin name to a zero-argument constructor of its
    matrix; `builtin_gate` runs it on first lookup, not at import.
    """

    name: str
    instance: SemiringInstance
    state_violation: Callable[[SVector], str | None]
    gate_violation: Callable[[SMatrix], str | None]
    gates: Mapping[str, Callable[[], SMatrix]]


_SWAP = (0, 2, 1, 3)  # exchanges the two bits of a 2-bit index


def _permutation_gates(instance: SemiringInstance) -> dict[str, Callable[[], SMatrix]]:
    perms = {"NOT": (1, 0), "CNOT": (0, 1, 3, 2), "SWAP": _SWAP}
    return {name: functools.partial(classical.matrix_from_permutation, perm, instance)
            for name, perm in perms.items()}


def _embedded_gate(name: str) -> Callable[[], SMatrix]:
    return lambda: classical.reversible_embed(classical.classical_gate(name))


# The predicates are looked up in their module at call time, not captured
# here, so that replacing a module attribute (as a tracer does) reaches them.
MODELS = {m.name: m for m in (
    Model("classical", BOOLEAN,
          lambda v: classical.basis_vector_violation(v),
          lambda m: classical.permutation_violation(m),
          {**_permutation_gates(BOOLEAN),
           **{name: _embedded_gate(name) for name in ("AND", "OR", "XOR", "NAND", "NOR")},
           # copying onto a 0 ancilla is the embedding of the identity table
           "FANOUT": lambda: classical.reversible_embed(classical.TruthTable(1, 1, (0, 1)))}),
    Model("stochastic", PROBABILITY,
          lambda v: stochastic.distribution_violation(v),
          lambda m: stochastic.stochastic_violation(m),
          _permutation_gates(PROBABILITY)),
    Model("quantum", COMPLEX,
          lambda v: quantum.state_norm_violation(v),
          lambda m: quantum.unitary_violation(m),
          {name: functools.partial(quantum.quantum_gate, name)
           for name in quantum.QUANTUM_GATE_NAMES}),
    Model("fuzzy", FUZZ_MV,
          lambda v: fuzzy.fuzzy_state_violation(v),
          lambda m: fuzzy.fuzzy_gate_violation(m),
          {"FID": lambda: fuzzy.fuzzy_identity(2),
           "FNOT": fuzzy.fuzzy_not,
           "FZERO": lambda: fuzzy.fuzzy_zero_gate(2),
           "FSWAP": lambda: fuzzy.fuzzy_permutation(_SWAP)}),
)}

MODEL_NAMES = tuple(MODELS)


def _model(name: str) -> Model:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}") from None


def model_instance(model: str) -> SemiringInstance:
    return _model(model).instance


def gate_violation(model: str, m: SMatrix) -> str | None:
    """The model's gate membership predicate, as a reason string or None."""
    return _model(model).gate_violation(m)


def state_violation(model: str, v: SVector) -> str | None:
    """The model's state membership predicate applied to a column vector."""
    return _model(model).state_violation(v)


@dataclass(frozen=True)
class GateDescriptor:
    """A gate usable in circuits: its model, name, wire arity and matrix."""

    model: str
    name: str
    arity: int
    matrix: SMatrix

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("gate matrix must be square")
        if self.matrix.rows != 1 << self.arity:
            raise ValueError(
                f"arity {self.arity} needs a {1 << self.arity}-dimensional matrix")
        violation = gate_violation(self.model, self.matrix)
        if violation is not None:
            raise MembershipError(f"{self.model} gate {self.name!r}: {violation}")


@dataclass(frozen=True)
class VectorState:
    """A member state of a model that keeps the whole vector (all but classical)."""

    model: str
    vector: SVector

    def __post_init__(self):
        violation = state_violation(self.model, self.vector)
        if violation is not None:
            raise MembershipError(violation)


@functools.lru_cache(maxsize=None)
def builtin_gate(model: str, name: str) -> GateDescriptor:
    """Look up a named gate; raises ValueError for names the model lacks."""
    try:
        make = _model(model).gates[name]
    except KeyError:
        raise ValueError(f"unknown {model} gate {name!r}") from None
    matrix = make()
    return GateDescriptor(model, name, int(math.log2(matrix.rows)), matrix)


def gate_descriptor_from_matrix(model: str, name: str, matrix: SMatrix) -> GateDescriptor:
    """Wrap a user-supplied matrix, checking shape and membership."""
    if matrix.rows != matrix.cols:
        raise MembershipError(f"gate {name!r}: matrix must be square")
    arity = matrix.rows.bit_length() - 1
    if 1 << arity != matrix.rows or arity < 1:
        raise MembershipError(
            f"gate {name!r}: dimension {matrix.rows} is not a power of two >= 2")
    return GateDescriptor(model, name, arity, matrix)
