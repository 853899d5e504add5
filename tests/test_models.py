"""The model table: every row's gates, states and lookups, and the exported names."""

import importlib
from fractions import Fraction

import pytest

from fuzzbit.algebra import COMPLEX, FUZZ_MV, PROBABILITY, UnitScalar
from fuzzbit.errors import MembershipError
from fuzzbit.linalg import SVector, identity
from fuzzbit.models import (
    MODEL_NAMES,
    MODELS,
    VectorState,
    builtin_gate,
    gate_violation,
    model_instance,
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


def test_the_table_lists_every_model_once():
    assert MODEL_NAMES == ("classical", "stochastic", "quantum", "fuzzy")
    assert all(MODELS[name].name == name for name in MODEL_NAMES)


@pytest.mark.parametrize("model, name", [(m.name, g) for m in MODELS.values() for g in m.gates])
def test_every_builtin_gate_is_a_member(model, name):
    gate = builtin_gate(model, name)
    assert (gate.model, gate.name) == (model, name)
    assert gate.matrix.instance == model_instance(model)
    assert gate_violation(model, gate.matrix) is None
    assert gate.matrix.rows == gate.matrix.cols == 1 << gate.arity


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
    instance = model_instance(model)
    assert state_violation(model, SVector(instance, (instance.one, instance.zero))) \
        == "patched state"
    assert gate_violation(model, identity(instance, 2)) == "patched gate"


def test_unknown_names_raise_value_error():
    v = SVector(FUZZ_MV, (UnitScalar(0), UnitScalar(1)))
    for call in (lambda: model_instance("analog"),
                 lambda: gate_violation("analog", identity(FUZZ_MV, 2)),
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
