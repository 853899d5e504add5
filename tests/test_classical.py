"""Classical bits: truth tables, permutation matrices, synthesis, embedding."""

import random

import pytest

from fuzzbit.algebra import BOOLEAN, UnitScalar
from fuzzbit.errors import MembershipError
from fuzzbit.linalg import SMatrix, identity, mat_mul, matrix_from_permutation
from fuzzbit.models import gate_violation
from fuzzbit.models.classical import (
    ClassicalState,
    TruthTable,
    circuit_truth_table,
    classical_gate,
    permutation_from_matrix,
    permutation_violation,
    reversible_embed,
    synthesize_circuit,
)

U = UnitScalar


def test_classical_state():
    s = ClassicalState(3, 5)
    assert s.bits() == (1, 0, 1)  # wire 0 first
    assert s.ket() == "101"
    with pytest.raises(MembershipError):
        ClassicalState(2, 4)
    with pytest.raises(MembershipError):
        ClassicalState(0, 0)


def test_gate_tables():
    assert classical_gate("AND").outputs == (0, 0, 0, 1)
    assert classical_gate("XOR").outputs == (0, 1, 1, 0)
    assert classical_gate("NOT").outputs == (1, 0)
    assert classical_gate("NAND").outputs == (1, 1, 1, 0)
    assert classical_gate("NOR").outputs == (1, 0, 0, 0)
    assert classical_gate("OR").outputs == (0, 1, 1, 1)
    fanout = classical_gate("FANOUT")
    assert (fanout.n_inputs, fanout.n_outputs) == (1, 2)
    assert fanout.outputs == (0, 3)
    with pytest.raises(ValueError):
        classical_gate("XNOR")


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, 1, (0, 1, 1))  # wrong length
    with pytest.raises(ValueError):
        TruthTable(1, 1, (0, 2))  # output out of range


def test_permutation_violation_reasons():
    assert permutation_violation(identity(BOOLEAN, 4)) is None
    bad_row = SMatrix(BOOLEAN, ((U(1), U(1)), (U(0), U(0))))
    assert "row" in permutation_violation(bad_row)
    bad_col = SMatrix(BOOLEAN, ((U(1), U(0)), (U(1), U(0))))
    assert "row 0" in permutation_violation(bad_col) or "column" in permutation_violation(bad_col)
    not_01 = SMatrix(BOOLEAN, ((U(1, 2), U(1, 2)), (U(1, 2), U(1, 2))))
    assert permutation_violation(not_01) is not None
    non_square = SMatrix(BOOLEAN, ((U(1), U(0)),))
    assert gate_violation("classical", non_square) == "not square (1x2)"
    assert permutation_violation(identity(BOOLEAN, 2)) is None
    assert permutation_violation(bad_row) is not None


def test_permutation_round_trip():
    cnot = matrix_from_permutation((0, 1, 3, 2), BOOLEAN)
    assert permutation_from_matrix(cnot) == (0, 1, 3, 2)
    assert permutation_violation(cnot) is None
    # column j holds the image of basis vector j
    assert cnot.column(2) == (U(0), U(0), U(0), U(1))


def test_synthesis_matches_table_small():
    # all 4 one-input, 16 two-input and 256 three-input tables
    for n in (1, 2, 3):
        for code in range(1 << (1 << n)):
            bits = tuple((code >> i) & 1 for i in range(1 << n))
            table = TruthTable(n, 1, bits)
            circ = synthesize_circuit(table)
            assert circuit_truth_table(circ) == table


def seeded_table(n, seed=3):
    """One `randint(0, 1)` per entry from `random.Random(seed)`."""
    rng = random.Random(seed)
    return TruthTable(n, 1, tuple(rng.randint(0, 1) for _ in range(1 << n)))


def parity(n):
    return TruthTable(n, 1, tuple(bin(x).count("1") & 1 for x in range(1 << n)))


def majority(n):
    return TruthTable(n, 1, tuple(int(2 * bin(x).count("1") > n) for x in range(1 << n)))


@pytest.mark.parametrize("n", range(4, 9))
def test_synthesis_matches_seeded_tables(n):
    for seed in range(4):
        table = seeded_table(n, seed)
        assert circuit_truth_table(synthesize_circuit(table)) == table
    for table in (parity(n), majority(n)):
        assert circuit_truth_table(synthesize_circuit(table)) == table


@pytest.mark.parametrize("table, ops", [
    # one wire per distinct sub-table; a tree of cofactors took 670, 572 and 694
    (seeded_table(8), 172),
    (parity(8), 7),
    (majority(8), 49),
])
def test_synthesis_shares_equal_cofactors(table, ops):
    circ = synthesize_circuit(table)
    assert len(circ.steps) == ops
    assert circ.n_wires == table.n_inputs + ops
    # each input is negated at most once
    negated = [step.args for step in circ.steps if step.op == "NOT"]
    assert len(negated) == len(set(negated))


def test_a_constant_table_is_one_const():
    for value in (0, 1):
        circ = synthesize_circuit(TruthTable(3, 1, (value,) * 8))
        assert [(step.op, step.value) for step in circ.steps] == [("CONST", value)]
        assert circuit_truth_table(circ) == TruthTable(3, 1, (value,) * 8)


def test_synthesis_gate_vocabulary():
    circ = synthesize_circuit(TruthTable(2, 1, (1, 0, 0, 1)))
    assert {step.op for step in circ.steps} <= {"CONST", "NOT", "AND", "OR", "XOR"}


def test_identity_table_is_wire():
    circ = synthesize_circuit(TruthTable(1, 1, (0, 1)))
    assert circ.steps == ()
    assert circ.output_wire == 0


def test_reversible_embed():
    m = reversible_embed(classical_gate("AND"))
    assert m.rows == 8
    assert permutation_violation(m) is None
    assert mat_mul(m, m) == identity(BOOLEAN, 8)
    perm = permutation_from_matrix(m)
    # |x, 0> -> |x, f(x)>: ancilla is the least significant bit
    for x in range(4):
        f = 1 if x == 3 else 0
        assert perm[2 * x] == 2 * x + f
    not_embed = reversible_embed(classical_gate("NOT"))
    assert permutation_from_matrix(not_embed) == (1, 0, 2, 3)
