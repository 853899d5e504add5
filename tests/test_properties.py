"""Law checks driven by hypothesis, complementing the enumerated harness."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzbit.algebra import FUZZ_MV, UnitScalar, neg, odot, oplus, vee, wedge
from fuzzbit.circuit import lift_gate
from fuzzbit.linalg import SMatrix, SVector, kron_mat, kron_vec, mat_mul, mat_vec
from fuzzbit.models import VectorState, builtin_gate
from fuzzbit.models.quantum import measure

units = st.fractions(min_value=0, max_value=1, max_denominator=60).map(UnitScalar)
grid9 = st.sampled_from([UnitScalar(Fraction(k, 8)) for k in range(9)])


def fmat_strategy(n):
    return st.lists(grid9, min_size=n * n, max_size=n * n).map(
        lambda xs: SMatrix(FUZZ_MV, tuple(tuple(xs[i * n + j] for j in range(n))
                                          for i in range(n))))


def fvec_strategy(n):
    return st.lists(grid9, min_size=n, max_size=n).map(
        lambda xs: SVector(FUZZ_MV, tuple(xs)))


@given(units, units)
def test_mv_identity(x, y):
    # x (.) (~x (+) y) = x /\ y
    assert odot(x, oplus(neg(x), y)) == wedge(x, y)


@given(units, units, units)
def test_oplus_distributes_over_wedge(x, y, z):
    assert oplus(x, wedge(y, z)) == wedge(oplus(x, y), oplus(x, z))


@given(units, units, units)
def test_scalar_monoid_laws(x, y, z):
    assert oplus(x, y) == oplus(y, x)
    assert oplus(oplus(x, y), z) == oplus(x, oplus(y, z))
    assert odot(odot(x, y), z) == odot(x, odot(y, z))
    assert wedge(x, x) == x and vee(x, x) == x


@given(units, units)
def test_de_morgan(x, y):
    assert neg(wedge(x, y)) == vee(neg(x), neg(y))
    assert neg(neg(x)) == x


@settings(max_examples=60)
@given(fmat_strategy(2), fmat_strategy(2), fmat_strategy(2))
def test_mat_mul_associative(a, b, c):
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@settings(max_examples=60)
@given(fmat_strategy(2), fvec_strategy(2), fvec_strategy(2))
def test_action_is_linear_over_meet(a, u, v):
    meet = SVector(FUZZ_MV, tuple(wedge(x, y) for x, y in zip(u.entries, v.entries)))
    left = mat_vec(a, meet)
    right = SVector(FUZZ_MV, tuple(
        wedge(x, y) for x, y in zip(mat_vec(a, u).entries, mat_vec(a, v).entries)))
    assert left == right


@settings(max_examples=60)
@given(fvec_strategy(2), fvec_strategy(3))
def test_kron_vec_symmetry_is_a_permutation(u, v):
    uv = kron_vec(u, v)
    vu = kron_vec(v, u)
    for i in range(2):
        for j in range(3):
            assert uv.entries[i * 3 + j] == vu.entries[j * 2 + i]


@settings(max_examples=40)
@given(fvec_strategy(2), fvec_strategy(2), fvec_strategy(3))
def test_kron_vec_associative(u, v, w):
    assert kron_vec(kron_vec(u, v), w) == kron_vec(u, kron_vec(v, w))


@settings(max_examples=40)
@given(fmat_strategy(2), fmat_strategy(2), fmat_strategy(2), fmat_strategy(2))
def test_mixed_product_law(a, b, c, d):
    left = mat_mul(kron_mat(a, b), kron_mat(c, d))
    right = kron_mat(mat_mul(a, c), mat_mul(b, d))
    assert left == right


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False))
def test_measure_lands_on_support(seed, theta):
    state = VectorState("quantum", SVector(
        builtin_gate("quantum", "H").matrix.instance,
        (complex(math.cos(theta)), complex(0, math.sin(theta)))))
    outcome = measure(state, seed)
    assert abs(state.vector.entries[outcome]) > 0.0
    assert measure(state, seed) == outcome


@settings(max_examples=30)
@given(st.permutations([0, 1]), st.integers(min_value=1, max_value=3))
def test_single_wire_lift_is_gate_membership_preserving(perm, n):
    gate = builtin_gate("fuzzy", "FNOT" if perm == [1, 0] else "FID")
    for wire in range(n):
        lifted = lift_gate(gate, (wire,), n)
        assert lifted.rows == 2 ** n
