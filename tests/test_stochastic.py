"""Probability vectors and column-stochastic matrices, exact throughout."""

from fractions import Fraction

import pytest

from fuzzbit.algebra import PROBABILITY
from fuzzbit.errors import MembershipError
from fuzzbit.linalg import SMatrix, SVector, mat_mul, mat_vec
from fuzzbit.models import GateDescriptor, VectorState, gate_violation
from fuzzbit.models.stochastic import distribution_violation, stochastic_violation

F = Fraction


def pvec(*xs):
    return SVector(PROBABILITY, tuple(F(x) for x in xs))


def pmat(rows):
    return SMatrix(PROBABILITY, tuple(tuple(F(x) for x in row) for row in rows))


FAULTY_NOT = pmat([["9/10", "2/10"], ["1/10", "8/10"]])


def test_distribution_membership():
    assert distribution_violation(pvec("1/2", "1/2")) is None
    assert distribution_violation(pvec(1, 0, 0, 0)) is None
    assert "sum" in distribution_violation(pvec("1/2", "1/3"))
    # the constructor refuses a negative entry; a faulty kernel's result, held
    # `over` its scale, is caught by the predicate
    with pytest.raises(ValueError):
        pvec("3/2", "-1/2")
    assert distribution_violation(SVector.over(PROBABILITY, (3, -1), 2)) is not None
    VectorState("stochastic", pvec("2/3", "1/3"))
    with pytest.raises(MembershipError):
        VectorState("stochastic", pvec("1/2", "1/3"))


def test_stochastic_violation_reasons():
    assert stochastic_violation(FAULTY_NOT) is None
    bad_sum = pmat([["1/2", "1/2"], ["1/2", 0]])
    assert "column 1" in stochastic_violation(bad_sum)
    with pytest.raises(ValueError):
        pmat([["3/2", 0], ["-1/2", 1]])
    bad_entry = SMatrix.over(PROBABILITY, ((3, 0), (-1, 2)), 2)
    assert stochastic_violation(bad_entry) is not None
    non_square = pmat([["1/2", "1/2"]])
    assert gate_violation("stochastic", non_square) == "not square (1x2)"


def test_markov_step_exact():
    # one step is mat_vec; VectorState re-checks that the result is a distribution
    assert stochastic_violation(FAULTY_NOT) is None
    one = VectorState("stochastic", mat_vec(FAULTY_NOT, pvec(1, 0)))
    assert one.vector.entries == (F(9, 10), F(1, 10))
    two = VectorState("stochastic", mat_vec(FAULTY_NOT, one.vector))
    assert two.vector.entries == (F(83, 100), F(17, 100))
    assert sum(two.vector.entries) == 1
    with pytest.raises(MembershipError):
        GateDescriptor("stochastic", "bad", pmat([["1/2", "1/2"], ["1/2", 0]]))


def test_semigroup_not_group():
    # products stay stochastic...
    assert stochastic_violation(mat_mul(FAULTY_NOT, FAULTY_NOT)) is None
    # ...but inverses need not exist
    uniform = pmat([["1/2", "1/2"], ["1/2", "1/2"]])
    det = uniform.entries[0][0] * uniform.entries[1][1] \
        - uniform.entries[0][1] * uniform.entries[1][0]
    assert det == 0
    # ...and when they do, they can leave the family
    # (not probabilities: the constructor refuses the negative entries)
    with pytest.raises(ValueError):
        pmat([["8/7", "-2/7"], ["-1/7", "9/7"]])
    inv = SMatrix.over(PROBABILITY, ((8, -2), (-1, 9)), 7)
    assert mat_mul(FAULTY_NOT, inv).entries == ((1, 0), (0, 1))
    assert stochastic_violation(inv) is not None
