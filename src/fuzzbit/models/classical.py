"""Classical bits: truth tables, permutation matrices, circuit synthesis.

Basis indices pack bit values little-endian: bit i of the index is the
value of wire i, so the ket |b_{n-1} ... b_0> reads most significant bit
first.  Deterministic reversible dynamics on n bits are exactly the
2^n x 2^n permutation matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra import BOOLEAN, format_ratio
from ..errors import MembershipError
from ..linalg import SMatrix, SVector, matrix_from_permutation

__all__ = [
    "ClassicalState",
    "TruthTable",
    "classical_gate",
    "basis_vector_violation",
    "permutation_violation",
    "permutation_from_matrix",
    "SynthStep",
    "SynthCircuit",
    "synthesize_circuit",
    "circuit_truth_table",
    "reversible_embed",
]


@dataclass(frozen=True)
class ClassicalState:
    """A definite configuration of n bits, stored as its basis index."""

    n_bits: int
    basis_index: int

    def __post_init__(self):
        if self.n_bits < 1:
            raise MembershipError("classical state needs at least one bit")
        if not 0 <= self.basis_index < (1 << self.n_bits):
            raise MembershipError(
                f"basis index {self.basis_index} out of range for {self.n_bits} bits")

    def bits(self) -> tuple[int, ...]:
        """Wire values, index 0 first (least significant)."""
        return tuple((self.basis_index >> i) & 1 for i in range(self.n_bits))

    def ket(self) -> str:
        return "".join(str(b) for b in reversed(self.bits()))


@dataclass(frozen=True)
class TruthTable:
    """A total function {0,1}^n -> {0,1}^m listed in input-index order.

    outputs[i] packs the m output bits for input index i; for the common
    single-output case the entries are plain 0/1 bits.
    """

    n_inputs: int
    n_outputs: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.n_inputs < 1 or self.n_outputs < 1:
            raise ValueError("truth table needs at least one input and output")
        if len(self.outputs) != 1 << self.n_inputs:
            raise ValueError(f"expected {1 << self.n_inputs} rows, got {len(self.outputs)}")
        if any(not 0 <= v < (1 << self.n_outputs) for v in self.outputs):
            raise ValueError("output value out of range")


_GATE_TABLES = {
    "NOT": TruthTable(1, 1, (1, 0)),
    "AND": TruthTable(2, 1, (0, 0, 0, 1)),
    "OR": TruthTable(2, 1, (0, 1, 1, 1)),
    "XOR": TruthTable(2, 1, (0, 1, 1, 0)),
    "NAND": TruthTable(2, 1, (1, 1, 1, 0)),
    "NOR": TruthTable(2, 1, (1, 0, 0, 0)),
    "FANOUT": TruthTable(1, 2, (0, 3)),
}


def classical_gate(name: str) -> TruthTable:
    """Truth table of a named gate; FANOUT copies its input to two outputs."""
    try:
        return _GATE_TABLES[name]
    except KeyError:
        raise ValueError(f"unknown classical gate {name!r}") from None


def basis_vector_violation(v: SVector) -> str | None:
    """None if `v` is a basis vector, else why not; the row checked its boolean carrier.

    Read as numerators over a scale, where 1 is the scale itself.
    """
    entries, scale = v.numerators, v.scale
    if any(x != 0 and x != scale for x in entries):
        return "entries must be 0 or 1"
    ones = entries.count(scale)
    if ones != 1:
        return f"basis vector needs exactly one 1, found {ones}"
    return None


# --- permutation matrices -----------------------------------------------------

def permutation_violation(m: SMatrix) -> str | None:
    """None if `m` is a permutation matrix, else a human-readable reason.

    `m` is square and boolean: the row (`models.gate_violation`) checks both.
    As for states, it is read as numerators over a scale.
    """
    rows, scale = m.numerators, m.scale
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x != 0 and x != scale:
                return f"entry ({i}, {j}) is {format_ratio(x, scale, 'an entry')}, expected 0 or 1"
        ones = row.count(scale)
        if ones != 1:
            return f"row {i} has {ones} ones, expected exactly 1"
    for j, column in enumerate(zip(*rows)):
        ones = column.count(scale)
        if ones != 1:
            return f"column {j} has {ones} ones, expected exactly 1"
    return None


def permutation_from_matrix(m: SMatrix) -> tuple[int, ...]:
    """perm[j] = i where column j has its single `one`: the image of basis j.

    `m` must be a member permutation matrix, as the bound matrix of every
    validated `GateDescriptor` is; nothing here checks it again.  The
    `one` of the boolean carrier is the numerator equal to the scale.
    """
    scale = m.scale
    return tuple(column.index(scale) for column in zip(*m.numerators))


# --- synthesis ----------------------------------------------------------------

@dataclass(frozen=True)
class SynthStep:
    """One straight-line assignment; every target is a fresh wire."""

    op: str  # CONST | NOT | AND | OR | XOR
    target: int
    args: tuple[int, ...] = ()
    value: int = 0  # CONST only


@dataclass(frozen=True)
class SynthCircuit:
    """Straight-line program over {AND, OR, XOR, NOT, constant ancilla}.

    Wires 0 .. n_inputs-1 hold the inputs; each step writes one fresh wire;
    the function value ends up on output_wire.
    """

    n_inputs: int
    n_wires: int
    steps: tuple[SynthStep, ...]
    output_wire: int


def synthesize_circuit(table: TruthTable) -> SynthCircuit:
    """Cofactor decomposition of a single-output table into basic gates.

    Splitting on the most significant input x of a sub-table gives
    f = (NOT x AND f0) XOR (x AND f1).  As in a reduced ordered BDD (Bryant
    1986), equal sub-tables share one wire, a split whose halves are equal is
    skipped, and each input is negated at most once.  A constant or
    complementary half shortens the split to one gate: x AND f1, NOT x OR f1,
    NOT x AND f0, x OR f0, or x XOR f0.  Only a constant table emits a CONST.
    """
    if table.n_outputs != 1:
        raise ValueError("synthesis is defined for single-output tables")
    steps: list[SynthStep] = []
    wires: dict[tuple[int, ...], int] = {}  # sub-table -> the wire holding it
    negated: dict[int, int] = {}  # input -> the wire holding its NOT

    def emit(op: str, args: tuple[int, ...] = (), value: int = 0) -> int:
        w = table.n_inputs + len(steps)
        steps.append(SynthStep(op, w, args, value))
        return w

    def negation(x: int) -> int:
        if x not in negated:
            negated[x] = emit("NOT", (x,))
        return negated[x]

    def build(outputs: tuple[int, ...]) -> int:
        # a sub-table's length fixes its inputs, so the table alone is the key
        if outputs not in wires:
            wires[outputs] = split(outputs)
        return wires[outputs]

    def split(outputs: tuple[int, ...]) -> int:
        if len(outputs) == 1:
            return emit("CONST", value=outputs[0])
        half = len(outputs) // 2
        f0, f1 = outputs[:half], outputs[half:]
        if f0 == f1:
            return build(f0)
        x = half.bit_length() - 1
        c0 = f0[0] if f0.count(f0[0]) == half else None  # None: not constant
        c1 = f1[0] if f1.count(f1[0]) == half else None
        if c0 is not None and c1 is not None:
            return x if c1 else negation(x)
        if c0 is not None:
            return emit("OR", (build(f1), negation(x))) if c0 else emit("AND", (build(f1), x))
        if c1 is not None:
            return emit("OR", (build(f0), x)) if c1 else emit("AND", (build(f0), negation(x)))
        if all(a != b for a, b in zip(f0, f1)):
            return emit("XOR", (build(f0), x))
        t0 = emit("AND", (build(f0), negation(x)))
        return emit("XOR", (t0, emit("AND", (build(f1), x))))

    out = build(table.outputs)
    return SynthCircuit(table.n_inputs, table.n_inputs + len(steps), tuple(steps), out)


def circuit_truth_table(circuit: SynthCircuit) -> TruthTable:
    """Evaluate on all inputs at once, one bitmask per wire."""
    n = circuit.n_inputs
    width = 1 << n
    full = (1 << width) - 1
    values = [0] * circuit.n_wires
    for i in range(n):
        # bit x of values[i] is the value of input wire i on assignment x
        block = (1 << (1 << i)) - 1
        period = 1 << (i + 1)
        mask = 0
        for start in range(1 << i, width, period):
            mask |= block << start
        values[i] = mask
    for step in circuit.steps:
        if step.op == "CONST":
            values[step.target] = full if step.value else 0
        elif step.op == "NOT":
            values[step.target] = values[step.args[0]] ^ full
        elif step.op == "AND":
            values[step.target] = values[step.args[0]] & values[step.args[1]]
        elif step.op == "OR":
            values[step.target] = values[step.args[0]] | values[step.args[1]]
        elif step.op == "XOR":
            values[step.target] = values[step.args[0]] ^ values[step.args[1]]
    out = values[circuit.output_wire]
    return TruthTable(n, 1, tuple((out >> x) & 1 for x in range(width)))


def reversible_embed(table: TruthTable) -> SMatrix:
    """Permutation on n+1 bits sending (x, y) to (x, y XOR f(x)).

    The ancilla y is the least significant bit; starting it at 0 leaves
    f(x) there.  The embedding is its own inverse.
    """
    if table.n_outputs != 1:
        raise ValueError("reversible embedding is defined for single-output tables")
    size = 1 << (table.n_inputs + 1)
    perm = [0] * size
    for idx in range(size):
        x, y = idx >> 1, idx & 1
        perm[idx] = (x << 1) | (y ^ table.outputs[x])
    return matrix_from_permutation(perm, BOOLEAN)
