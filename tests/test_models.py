"""The model table: every row's gates, states and lookups, and the exported names."""

import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from fuzzbit.algebra import BOOLEAN, COMPLEX, FUZZ_MV, PROBABILITY, UnitScalar
from fuzzbit.errors import MembershipError
from fuzzbit.linalg import SMatrix, SVector, identity, mat_vec
from fuzzbit.models import (
    MODEL_NAMES,
    MODELS,
    GateDescriptor,
    VectorState,
    builtin_gate,
    gate_violation,
    state_violation,
)

NON_MEMBERS = {
    "stochastic": SVector(PROBABILITY, (Fraction(1, 2), Fraction(1, 3))),
    "quantum": SVector(COMPLEX, (1 + 0j, 1 + 0j)),
    "fuzzy": SVector(FUZZ_MV, (UnitScalar(1, 4), UnitScalar(3, 4))),
}

PREDICATES = {
    "classical": ("classical.basis_vector_violation", "classical.permutation_violation"),
    "stochastic": ("stochastic.distribution_violation", "stochastic.stochastic_violation"),
    "quantum": ("quantum.state_norm_violation", "quantum.unitary_violation"),
    "fuzzy": ("fuzzy.fuzzy_state_violation", "fuzzy.fuzzy_gate_violation"),
}


_NOT, _CNOT, _SWAP = (1, 0), (0, 1, 3, 2), (0, 2, 1, 3)


def _embedding(outputs):
    """(x, y) -> (x, y XOR f(x)), with the ancilla y as the low index bit."""
    return tuple(i ^ outputs[i >> 1] for i in range(2 * len(outputs)))


# Each reversible builtin as the permutation of basis indices it performs.
PERMUTATIONS = {
    "classical": {"NOT": _NOT, "CNOT": _CNOT, "SWAP": _SWAP,
                  "AND": _embedding((0, 0, 0, 1)), "OR": _embedding((0, 1, 1, 1)),
                  "XOR": _embedding((0, 1, 1, 0)), "NAND": _embedding((1, 1, 1, 0)),
                  "NOR": _embedding((1, 0, 0, 0)), "FANOUT": _embedding((0, 1))},
    "stochastic": {"NOT": _NOT, "CNOT": _CNOT, "SWAP": _SWAP},
    "quantum": {"X": _NOT, "CNOT": _CNOT, "SWAP": _SWAP},
    "fuzzy": {"FID": (0, 1), "FNOT": _NOT, "FSWAP": _SWAP},
}


def test_the_table_lists_every_model_once():
    assert MODEL_NAMES == ("classical", "stochastic", "quantum", "fuzzy")
    assert all(MODELS[name].name == name for name in MODEL_NAMES)


@pytest.mark.parametrize("model, name", [(m.name, g) for m in MODELS.values() for g in m.gates])
def test_every_builtin_gate_is_a_member(model, name):
    gate = builtin_gate(model, name)
    assert (gate.model, gate.name) == (model, name)
    assert gate.matrix.instance == MODELS[model].instance
    assert gate_violation(model, gate.matrix) is None
    assert gate.matrix.rows == gate.matrix.cols == 1 << gate.arity


@pytest.mark.parametrize("model, name",
                         [(model, name) for model in PERMUTATIONS for name in PERMUTATIONS[model]])
def test_permutation_builtins_move_basis_vectors(model, name):
    perm = PERMUTATIONS[model][name]
    instance = MODELS[model].instance

    def basis(j):  # built by role: `one` at j, `zero` elsewhere
        return SVector(instance, tuple(instance.one if i == j else instance.zero
                                       for i in range(len(perm))))

    matrix = builtin_gate(model, name).matrix
    for j, image in enumerate(perm):
        assert mat_vec(matrix, basis(j)) == basis(image)


def test_only_h_z_and_fzero_are_not_permutations():
    rest = {(m.name, g) for m in MODELS.values() for g in m.gates
            if g not in PERMUTATIONS[m.name]}
    assert rest == {("quantum", "H"), ("quantum", "Z"), ("fuzzy", "FZERO")}


def test_gate_descriptor_checks_shape_then_membership():
    half = UnitScalar(1, 2)
    rejected = [
        (SMatrix(FUZZ_MV, ((half, half),)), "gate 'g': matrix must be square"),
        (identity(FUZZ_MV, 1), "gate 'g': dimension 1 is not a power of two >= 2"),
        (identity(FUZZ_MV, 3), "gate 'g': dimension 3 is not a power of two >= 2"),
        (SMatrix(FUZZ_MV, ((half, half), (half, half))),
         "fuzzy gate 'g': column 0 has minimum 1/2, expected 0"),
    ]
    for matrix, message in rejected:
        with pytest.raises(MembershipError) as exc:
            GateDescriptor("fuzzy", "g", matrix)
        assert str(exc.value) == message
    assert GateDescriptor("fuzzy", "g", identity(FUZZ_MV, 8)).arity == 3


@pytest.mark.parametrize("model", sorted(NON_MEMBERS))
def test_vector_state_rejects_a_non_member(model):
    bad = NON_MEMBERS[model]
    assert state_violation(model, bad) is not None
    with pytest.raises(MembershipError):
        VectorState(model, bad)


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_predicates_are_read_from_their_module_at_call_time(monkeypatch, model):
    state_target, gate_target = PREDICATES[model]
    monkeypatch.setattr(f"fuzzbit.models.{state_target}", lambda v: "patched state")
    monkeypatch.setattr(f"fuzzbit.models.{gate_target}", lambda m: "patched gate")
    instance = MODELS[model].instance
    assert state_violation(model, SVector(instance, (instance.one, instance.zero))) \
        == "patched state"
    assert gate_violation(model, identity(instance, 2)) == "patched gate"


# For each model, a carrier it does not use.
FOREIGN = {"classical": PROBABILITY, "stochastic": BOOLEAN, "quantum": FUZZ_MV, "fuzzy": COMPLEX}


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_the_row_checks_carrier_and_squareness(monkeypatch, model):
    def unreachable(x):
        raise AssertionError("the row must answer before the model's predicate")

    for target in PREDICATES[model]:
        monkeypatch.setattr(f"fuzzbit.models.{target}", unreachable)
    own, other = MODELS[model].instance, FOREIGN[model]
    carrier = f"instance {other.name} is not the {own.name} carrier"
    assert gate_violation(model, identity(other, 2)) == carrier
    assert state_violation(model, SVector(other, (other.one, other.zero))) == carrier
    # the carrier is checked before the shape
    assert gate_violation(model, SMatrix(other, ((other.one, other.zero),))) == carrier
    assert gate_violation(model, SMatrix(own, ((own.one, own.zero),))) == "not square (1x2)"


def test_unknown_names_raise_value_error():
    v = SVector(FUZZ_MV, (UnitScalar(0), UnitScalar(1)))
    for call in (lambda: gate_violation("analog", identity(FUZZ_MV, 2)),
                 lambda: state_violation("analog", v),
                 lambda: builtin_gate("analog", "NOT"),
                 lambda: builtin_gate("fuzzy", "NOT"),
                 lambda: builtin_gate("quantum", "FANOUT")):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("module", [
    "fuzzbit", "fuzzbit.linalg", "fuzzbit.circuit", "fuzzbit.models",
    "fuzzbit.models.classical", "fuzzbit.models.stochastic",
    "fuzzbit.models.quantum", "fuzzbit.models.fuzzy",
])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


# --- the integer predicates against the rational definitions ----------------------

# The standard grid, 5/4, which lies outside the fuzz-mv carrier, and -1/4,
# which no literal writes but which makes each range check needed.
GRID = tuple(Fraction(x) for x in ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1", "5/4", "-1/4"))


def _in_range(values):
    return all(0 <= x <= 1 for x in values)


# Each set's definition over `Fraction`s, for a state (its entries) or a
# gate (a tuple of columns): stochastic entries in [0, 1] summing to 1 per
# state or column; fuzzy entries in [0, 1] with minimum 0, per state or
# column, or all ones.
ORACLES = {
    "stochastic": (lambda v: _in_range(v) and sum(v) == 1,
                   lambda columns: all(_in_range(c) and sum(c) == 1 for c in columns)),
    "fuzzy": (lambda v: _in_range(v) and (min(v) == 0 or min(v) == 1),
              lambda columns: all(map(_in_range, columns)) and (
                  all(min(c) == 1 for c in columns) or all(min(c) == 0 for c in columns))),
}


def _verdicts(model, vectors, as_gate):
    """Pairs (predicate verdict, definition's verdict) for each state or gate
    (a tuple of columns), given to the predicate as numerators over a scale."""
    row = MODELS[model]
    state_oracle, gate_oracle = ORACLES[model]
    pairs = []
    for columns in vectors:
        rows = tuple(zip(*columns)) if as_gate else (columns,)
        scale = math.lcm(*(x.denominator for r in rows for x in r))
        numerators = [[x.numerator * (scale // x.denominator) for x in r] for r in rows]
        if as_gate:
            verdict = row.gate_violation(SMatrix.over(row.instance, numerators, scale))
            pairs.append((verdict is None, gate_oracle(columns)))
        else:
            verdict = row.state_violation(SVector.over(row.instance, numerators[0], scale))
            pairs.append((verdict is None, state_oracle(columns)))
    return pairs


@pytest.mark.parametrize("model", ["stochastic", "fuzzy"])
def test_integer_predicates_equal_the_rational_ones(model):
    rng = random.Random(f"predicates/{model}")
    state_oracle = ORACLES[model][0]
    twos, fours = list(itertools.product(GRID, repeat=2)), list(itertools.product(GRID, repeat=4))
    members = [v for v in fours if state_oracle(v)]
    ones = (Fraction(1),) * 4
    gates2 = list(itertools.product(twos, repeat=2))  # every 2x2 matrix, all-ones included
    # 4x4 gates: the all-ones one, and columns mostly drawn from member states,
    # so that members occur
    gates4 = [(ones,) * 4] + [
        tuple(rng.choice(members if rng.random() < 0.8 else fours) for _ in range(4))
        for _ in range(3000)]
    for vectors, as_gate in ((twos, False), (fours + [ones], False), (gates2, True),
                             (gates4, True)):
        verdicts = _verdicts(model, vectors, as_gate)
        assert all(verdict == definition for verdict, definition in verdicts)
        assert {definition for _, definition in verdicts} == {True, False}  # both occur
