"""Fuzzy bits: membership, gate action, tensors, and the complement caveat."""

import pytest

from fuzzbit.algebra import FUZZ_MV, UnitScalar
from fuzzbit.errors import MembershipError
from fuzzbit.linalg import (
    SMatrix,
    SVector,
    basis_vector,
    kron_vec,
    mat_mul,
    mat_vec,
    matrix_from_permutation,
)
from fuzzbit.models import GateDescriptor, VectorState, builtin_gate, gate_violation
from fuzzbit.models.fuzzy import complement, fuzzy_gate_violation, fuzzy_state_violation
from test_linalg import SCALAR_OPS

U = UnitScalar


def fvec(*xs):
    return SVector(FUZZ_MV, tuple(U(x) for x in xs))


def fmat(rows):
    return SMatrix(FUZZ_MV, tuple(tuple(U(x) for x in row) for row in rows))


def builtin(name):
    return builtin_gate("fuzzy", name).matrix


def test_state_membership():
    assert fuzzy_state_violation(fvec(0, "3/4")) is None
    assert fuzzy_state_violation(fvec(1, 1)) is None
    assert fuzzy_state_violation(fvec(1, 1, 1, 1)) is None
    assert "minimum" in fuzzy_state_violation(fvec("1/2", "1/2"))
    assert fuzzy_state_violation(fvec(1, "1/2")) is not None
    with pytest.raises(MembershipError):
        VectorState("fuzzy", fvec("1/4", "3/4"))


def test_gate_membership():
    assert fuzzy_gate_violation(builtin("FID")) is None
    assert fuzzy_gate_violation(builtin("FNOT")) is None
    assert fuzzy_gate_violation(builtin("FZERO")) is None
    bad = fmat([[0, 1], [1, "1/2"]])
    assert "column 1" in fuzzy_gate_violation(bad)
    assert gate_violation("fuzzy", fmat([[0, 1]])) == "not square (1x2)"


def test_identity_and_involution():
    ident = builtin("FID")
    assert ident == fmat([[0, 1], [1, 0]])
    j = builtin("FNOT")
    assert j == fmat([[1, 0], [0, 1]])
    assert mat_mul(j, j) == ident
    assert matrix_from_permutation((1, 0), FUZZ_MV) == j


def test_apply():
    # the action is mat_vec; VectorState re-checks that the result is a state
    j = builtin("FNOT")
    a = fmat([["3/10", 1], [0, 0]])
    assert fuzzy_gate_violation(a) is None
    out = VectorState("fuzzy", mat_vec(j, fvec(0, "3/4")))
    assert out.vector == fvec("3/4", 0)
    assert VectorState("fuzzy", mat_vec(a, fvec(0, "1/2"))).vector == fvec("3/10", 0)
    absorb = VectorState("fuzzy", mat_vec(builtin("FZERO"), fvec(0, "2/3")))
    assert absorb.vector == fvec(1, 1)
    with pytest.raises(MembershipError):
        GateDescriptor("fuzzy", "bad", fmat([[0, 1], [1, "1/2"]]))


def test_basis_kets_and_tensor():
    assert basis_vector(FUZZ_MV, 2, 0) == fvec(0, 1)
    assert basis_vector(FUZZ_MV, 2, 1) == fvec(1, 0)
    assert basis_vector(FUZZ_MV, 4, 0b00) == fvec(0, 1, 1, 1)
    assert basis_vector(FUZZ_MV, 4, 0b01) == fvec(1, 0, 1, 1)
    assert basis_vector(FUZZ_MV, 4, 0b10) == fvec(1, 1, 0, 1)
    assert basis_vector(FUZZ_MV, 4, 0b11) == fvec(1, 1, 1, 0)
    # a basis ket is the tensor of its one-wire kets, leftmost bit first
    for index in range(4):
        high, low = (basis_vector(FUZZ_MV, 2, (index >> k) & 1) for k in (1, 0))
        assert kron_vec(high, low) == basis_vector(FUZZ_MV, 4, index)
    mixed = kron_vec(fvec(0, "1/2"), fvec(0, "1/3"))
    assert mixed == fvec(0, "1/3", "1/2", "5/6")
    assert fuzzy_state_violation(mixed) is None
    three = basis_vector(FUZZ_MV, 8, 0b011)
    assert len(three) == 8 and three.entries[3] == 0
    with pytest.raises(ValueError):
        basis_vector(FUZZ_MV, 2, 2)


def test_pointwise_product():
    # componentwise min is the fuzz-mv addition
    add = SCALAR_OPS["fuzz-mv"][0]
    u, v = fvec(0, "3/4"), fvec(0, "1/2")
    p = VectorState("fuzzy", SVector(FUZZ_MV, tuple(map(add, u.entries, v.entries))))
    assert p.vector == fvec(0, "1/2")


def test_complement_counterexample():
    v = fvec(0, "1/2")
    c = complement(v)
    assert c == fvec(1, "1/2")
    assert complement(c) == v
    # the complement of a state need not be a state
    assert fuzzy_state_violation(c) is not None
