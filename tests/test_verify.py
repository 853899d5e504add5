"""The brute-force law harness: green on healthy code, red under mutation."""

import dataclasses
import functools
import hashlib
import itertools
import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import fuzzbit.verify as verify
from fuzzbit.algebra import (
    FUZZ_MV, SemiringInstance, UnitScalar, _product_rule, _shared_rule)
from fuzzbit.cli import main
from fuzzbit.linalg import SMatrix, SVector, mat_vec
from fuzzbit.verify import (
    check_action_laws,
    check_mv_gate_laws,
    check_oracle_agreement,
    check_semiring_axioms,
    check_stochastic_semigroup,
    check_tensor_laws,
    grid_values,
    run_all,
)

U = UnitScalar

EXPECTED_NAMES = [
    "semiring-axioms-fuzz-mv",
    "semiring-axioms-max-min",
    "semiring-axioms-viterbi",
    "semiring-axioms-boolean",
    "mv-gate-laws-2",
    "mv-gate-laws-4",
    "action-laws-2",
    "action-laws-4",
    "tensor-laws",
    "stochastic-semigroup",
    "oracle-agreement",
]


def test_grid_values():
    assert grid_values("coarse") == (U(0), U(1, 2), U(1))
    assert len(grid_values("standard")) == 7
    assert grid_values("fine")[1] == U(1, 6)
    with pytest.raises(ValueError):
        grid_values("galactic")


@pytest.fixture(scope="module")
def coarse_reports(runs):
    """The healthy `run_all("coarse")` reports by name, run once (see `runs`)."""
    return runs("coarse", "healthy")


def test_run_all_coarse_green(coarse_reports):
    assert list(coarse_reports) == EXPECTED_NAMES
    for r in coarse_reports.values():
        assert r.failures == [], f"{r.name}: {r.failures[:3]}"
        assert r.passed
        assert r.cases > 0
        assert r.elapsed >= 0.0


def test_reports_are_deterministic():
    grid = grid_values("coarse")
    a = check_mv_gate_laws(grid, 2)
    b = check_mv_gate_laws(grid, 2)
    assert (a.name, a.cases, a.failures) == (b.name, b.cases, b.failures)


def test_sampled_checks_say_so(coarse_reports):
    assert "lexicographic" in coarse_reports["mv-gate-laws-4"].note
    assert "lexicographic" in coarse_reports["action-laws-4"].note
    assert coarse_reports["mv-gate-laws-2"].note == "exhaustive"


# Each check that reads the grid, as `run_all` calls it.
GRID_CHECKS = {
    "mv-gate-laws-2": lambda grid: check_mv_gate_laws(grid, 2),
    "mv-gate-laws-4": lambda grid: check_mv_gate_laws(grid, 4),
    "action-laws-2": lambda grid: check_action_laws(grid, 2),
    "action-laws-4": lambda grid: check_action_laws(grid, 4),
    "tensor-laws": check_tensor_laws,
    "stochastic-semigroup": check_stochastic_semigroup,
    "oracle-agreement": check_oracle_agreement,
}


@pytest.mark.parametrize("values", [(U(1, 2), U(1)), (U(0), U(1, 2))], ids=["no-0", "no-1"])
@pytest.mark.parametrize("name", GRID_CHECKS)
def test_a_grid_without_0_or_1_is_refused(name, values):
    with pytest.raises(ValueError, match="grids must contain 0 and 1"):
        GRID_CHECKS[name](values)


def test_size_argument_is_checked():
    grid = grid_values("coarse")
    with pytest.raises(ValueError):
        check_mv_gate_laws(grid, 3)
    with pytest.raises(ValueError):
        check_action_laws(grid, 8)


# fuzz-mv's rule with the truncated sum replaced by a clamped difference
CORRUPT = SemiringInstance("corrupt", zero=U(1), one=U(0), scaled=_shared_rule(
    min, lambda scale: lambda x, y: max(x - y, 0)))


def test_corrupted_instance_fails_axioms():
    report = check_semiring_axioms(CORRUPT, grid_values("coarse"))
    assert len(report.failures) >= 1
    assert not report.passed


def _max_reduced_mv(a, v, n, L):
    """`_mv` with max in place of min as the row reduction."""
    return tuple(min(max(map(operator.add, a[i:i + n], v)), L) for i in range(0, len(a), n))


def _uncapped_mm(a, b, n, L):
    """`_mm` without the cap at L: a sum past 1 stays past 1."""
    p = len(b) // n
    cols = [b[j::p] for j in range(p)]
    return tuple(min(x + y for x, y in zip(a[i:i + n], col))
                 for i in range(0, len(a), n) for col in cols)


def _capped_max_plus_mm(a, b, n, L):
    """`_mm` with max in place of min, capped at L: the meet no longer distributes."""
    p = len(b) // n
    cols = [b[j::p] for j in range(p)]
    return tuple(min(max(x + y for x, y in zip(a[i:i + n], col)), L)
                 for i in range(0, len(a), n) for col in cols)


def _local_mm(real):
    """`real` with entry (i, j) one more, capped at L, at inner dimension 4
    where row i starts with an interior value and column j holds one: each
    entry still reads only row i and column j."""
    def mm(a, b, n, L):
        out = real(a, b, n, L)
        if n != 4:
            return out
        p = len(b) // n
        inner = [any(0 < x < L for x in b[j::p]) for j in range(p)]
        return tuple(min(x + 1, L) if 0 < a[k // p * n] < L and inner[k % p] else x
                     for k, x in enumerate(out))
    return mm


def _entrywise_max(a, b):
    """`_wedge` with max in place of min: the meet of two gates may leave the set."""
    return tuple(map(max, a, b))


def _scaled(rule):
    """A semiring instance's mutant: `rule` in place of its `scaled` rule."""
    return lambda real: dataclasses.replace(real, scaled=rule)


# Every mutant the tests patch into `fuzzbit.verify`, by name: the attribute
# it replaces and how the replacement is made from the real one, or None for
# the healthy code.  `tests/verify_mutants.py` takes its mutants from here.
MUTANTS = {
    "healthy": None,
    # one broken `scaled` rule per instance that `verify` checks: max-min
    # and boolean adding by min, viterbi adding by +, fuzz-mv's truncated
    # sum left uncapped, and max-min multiplying below 1
    "max-min": ("MAX_MIN", _scaled(_shared_rule(min, lambda scale: min))),
    "boolean": ("BOOLEAN", _scaled(_shared_rule(min, lambda scale: min))),
    "viterbi": ("VITERBI", _scaled(_product_rule(operator.add, operator.mul))),
    "fuzz-mv": ("FUZZ_MV", _scaled(_shared_rule(min, lambda scale: operator.add))),
    "mul-below-one": ("MAX_MIN", _scaled(_shared_rule(
        max, lambda scale: lambda x, y: min(x, y, scale - 1)))),
    # the scaled kernels and the meet
    "uncapped": ("_mm", lambda real: _uncapped_mm),
    "max-plus": ("_mm", lambda real: _capped_max_plus_mm),
    # no failure on `standard`: the size-4 caps there reach no A whose rows
    # start with an interior value (ROADMAP item 21)
    "local-mm": ("_mm", _local_mm),
    "max-meet": ("_wedge", lambda real: _entrywise_max),
    "max-reduced": ("_mv", lambda real: _max_reduced_mv),
    "constant": ("_mv", lambda real: lambda a, v, n, L: (0,) * (len(a) // n)),
    # the factors swapped: a basis ket lands on the mirrored index
    "basis-ket": ("_kron_v", lambda real: lambda u, v, L: real(v, u, L)),
    # one entry too many
    "dimension": ("_kron_v", lambda real: lambda u, v, L: real(u, v, L) + (L,)),
    # the first factor counted twice: u (x) v and v (x) u no longer mirror
    "symmetry": ("_kron_v",
                 lambda real: lambda u, v, L: tuple(min(2 * x + y, L) for x in u for y in v)),
    # a truncated difference in place of the truncated sum, which is not associative
    "associativity": ("_kron_v",
                      lambda real: lambda u, v, L: tuple(max(x - y, 0) for x in u for y in v)),
    # a zero demanded in every row, not in every column
    "gate-closure": ("_is_gate", lambda real: lambda m, n, L: min(m) == L or all(
        min(m[i * n:i * n + n]) == 0 for i in range(n))),
    # a zero demanded in the first entry, not in any entry
    "state-closure": ("_is_state", lambda real: lambda v, L: v[0] == 0 or min(v) == L),
    "accept-all": ("_is_state", lambda real: lambda v, L: True),
    # the product transposed: a product of column-stochastic matrices is
    # then row-stochastic, which it need not be
    "transposed-mm2": ("_mm2", lambda real: lambda a, b: tuple(zip(*real(a, b)))),
    # the range check dropped: the inverse's columns sum to 1 too
    "sums-only": ("_is_stochastic2", lambda real: lambda m, scale: all(
        m[0][j] + m[1][j] == scale for j in range(2))),
    # the exhibit's inverse is built with the determinant too
    "plus-det": ("_det2", lambda real: lambda m: m[0][0] * m[1][1] + m[0][1] * m[1][0]),
    # the linear algebra `oracle-agreement` compares: factors swapped, the
    # state's entries reversed, the wrong bit
    "swapped-kron_mat": ("kron_mat", lambda real: lambda a, b: real(b, a)),
    "swapped-kron_vec": ("kron_vec", lambda real: lambda u, v: real(v, u)),
    "swapped-mat_mul": ("mat_mul", lambda real: lambda a, b: real(b, a)),
    "reversed-mat_vec": ("mat_vec", lambda real: lambda a, v: real(
        a, SVector(v.instance, v.entries[::-1]))),
    "flipped-mat_vec_block": ("mat_vec_block",
                              lambda real: lambda a, base, v: real(a, 1 - base, v)),
}


def _patch(monkeypatch, mutant: str) -> None:
    if MUTANTS[mutant]:
        attribute, make = MUTANTS[mutant]
        monkeypatch.setattr(verify, attribute, make(getattr(verify, attribute)))


def _run(grid: str, mutant: str) -> dict:
    """`run_all(grid)` under `mutant`, which builds one size-4 family: its
    reports by name, each holding the failures it listed while the mutant
    was patched.  Each lists the same failures again once the mutant is
    removed: reading them runs no kernel."""
    real, builds = verify._KronGates.__init__, []

    def counted(self, *args):
        builds.append(None)
        real(self, *args)

    with pytest.MonkeyPatch.context() as m:
        _patch(m, mutant)
        m.setattr(verify._KronGates, "__init__", counted)
        reports = run_all(grid)
        listed = [list(r.failures) for r in reports]
    assert [len(r.failures) for r in reports] == list(map(len, listed))
    assert [list(r.failures) for r in reports] == listed
    assert len(builds) == 1
    return {r.name: dataclasses.replace(r, failures=f) for r, f in zip(reports, listed)}


@pytest.fixture(scope="module")
def runs():
    """`_run`, each grid and mutant run once per module."""
    return functools.cache(_run)


# Every law name that a `verify` report can list.
LAWS = {
    # semiring-axioms-*
    "add-zero", "mul-one", "mul-zero-absorbs", "add-idempotent", "add-commutes",
    "add-assoc", "mul-assoc", "left-dist", "right-dist",
    # mv-gate-laws-*, and stochastic-semigroup's closure
    "closure", "involution", "identity", "zero-absorbs", "meet-closure",
    # action-laws-*
    "complement-unexpectedly-closed", "linearity", "state-closure", "compatibility",
    # tensor-laws
    "basis-ket", "basis-enumeration", "dimension", "symmetry", "associativity",
    "gate-closure", "mixed-product",
    # stochastic-semigroup
    "singular-exhibit", "inverse-arithmetic", "inverse-unexpectedly-stochastic",
    # oracle-agreement
    "agreement",
}

# The kill matrix on `coarse`: the `run_all` lines each mutant fails.
COARSE_KILLS = {
    "healthy": set(),
    "max-min": {"semiring-axioms-max-min"},
    "boolean": {"semiring-axioms-boolean"},
    "viterbi": {"semiring-axioms-viterbi"},
    # the oracle's matrices are fuzz-mv's
    "fuzz-mv": {"semiring-axioms-fuzz-mv", "oracle-agreement"},
    "mul-below-one": {"semiring-axioms-max-min"},
    "uncapped": {"mv-gate-laws-2", "mv-gate-laws-4", "tensor-laws", "oracle-agreement"},
    "max-plus": {"mv-gate-laws-2", "mv-gate-laws-4", "action-laws-2", "action-laws-4",
                 "oracle-agreement"},
    "local-mm": {"mv-gate-laws-4", "tensor-laws"},
    "max-meet": {"mv-gate-laws-2", "mv-gate-laws-4", "action-laws-2", "action-laws-4"},
    "max-reduced": {"action-laws-2", "action-laws-4", "oracle-agreement"},
    "constant": {"oracle-agreement"},
    "basis-ket": {"tensor-laws", "oracle-agreement"},
    "dimension": {"mv-gate-laws-4", "action-laws-4", "tensor-laws", "oracle-agreement"},
    "symmetry": {"tensor-laws", "oracle-agreement"},
    "associativity": {"mv-gate-laws-4", "action-laws-4", "tensor-laws", "oracle-agreement"},
    "gate-closure": {"tensor-laws"},
    "state-closure": {"action-laws-2", "action-laws-4", "tensor-laws"},
    "accept-all": {"action-laws-2"},
    "transposed-mm2": {"stochastic-semigroup"},
    "sums-only": {"stochastic-semigroup"},
    "plus-det": {"stochastic-semigroup"},
    "swapped-kron_mat": {"oracle-agreement"},
    "swapped-kron_vec": {"oracle-agreement"},
    "swapped-mat_mul": {"oracle-agreement"},
    "reversed-mat_vec": {"oracle-agreement"},
    "flipped-mat_vec_block": {"oracle-agreement"},
}


def test_every_line_and_law_fails_under_some_mutant(runs):
    # every line fails under some mutant and every law name is reported;
    # every mutant but `healthy` fails a line, and none moves a case count
    reports = {mutant: runs("coarse", mutant) for mutant in MUTANTS}
    kills = {mutant: {name for name, r in by_name.items() if r.failures}
             for mutant, by_name in reports.items()}
    assert kills == COARSE_KILLS
    assert set().union(*kills.values()) == set(EXPECTED_NAMES)
    assert {f[0] for by_name in reports.values() for r in by_name.values()
            for f in r.failures} == LAWS
    assert [mutant for mutant, lines in kills.items() if not lines] == ["healthy"]
    cases = {name: r.cases for name, r in reports["healthy"].items()}
    for mutant, by_name in reports.items():
        assert {name: r.cases for name, r in by_name.items()} == cases, mutant


def _laws(runs, mutant: str, line: str) -> set:
    """The law names `line` reports on `coarse` under `mutant`."""
    return {failure[0] for failure in runs("coarse", mutant)[line].failures}


@pytest.mark.parametrize("name", ["boolean", "fuzz-mv", "max-min", "viterbi"])
def test_verify_fails_a_broken_scaled_rule(runs, name):
    assert _laws(runs, name, f"semiring-axioms-{name}")


def test_mutated_row_reduction_fails_action_laws(runs):
    assert _laws(runs, "max-reduced", "action-laws-2")


def test_mutated_determinant_fails_singular_exhibit(runs):
    assert {"singular-exhibit", "inverse-arithmetic"} <= _laws(
        runs, "plus-det", "stochastic-semigroup")


@pytest.mark.parametrize("check, mutant", [
    ("closure", "transposed-mm2"), ("inverse-unexpectedly-stochastic", "sums-only"),
], ids=["closure", "inverse-unexpectedly-stochastic"])
def test_each_stochastic_semigroup_check_can_fail(runs, check, mutant):
    assert check in _laws(runs, mutant, "stochastic-semigroup")


# swapping _kron_m's factors would not show in mixed-product: both sides swap
@pytest.mark.parametrize("line, kind", [
    ("mv-gate-laws-2", "zero-absorbs"), ("mv-gate-laws-4", "zero-absorbs"),
    ("tensor-laws", "mixed-product"),
], ids=["mv-gate-laws-2", "mv-gate-laws-4", "tensor-laws"])
def test_uncapped_product_fails_gate_and_tensor_laws(runs, line, kind):
    assert kind in _laws(runs, "uncapped", line)


@pytest.mark.parametrize("kernel, mutant", [
    ("kron_mat", "swapped-kron_mat"), ("kron_vec", "swapped-kron_vec"),
    ("mat_mul", "swapped-mat_mul"), ("mat_vec", "reversed-mat_vec"),
    ("mat_vec_block", "flipped-mat_vec_block"),
], ids=["kron_mat", "kron_vec", "mat_mul", "mat_vec", "mat_vec_block"])
def test_mutated_kernel_fails_oracle_agreement(runs, kernel, mutant):
    report = runs("coarse", mutant)["oracle-agreement"]
    assert report.cases == 4056
    assert report.failures


# each `tensor-laws` family under its mutant; `basis-enumeration` is basis-ket's
@pytest.mark.parametrize("family", ["basis-ket", "basis-enumeration", "dimension",
                                    "state-closure", "symmetry", "associativity",
                                    "gate-closure"])
def test_each_tensor_law_family_can_fail(runs, family):
    mutant = "basis-ket" if family == "basis-enumeration" else family
    assert family in _laws(runs, mutant, "tensor-laws")


def _reference_semiring_failures(instance, grid) -> list:
    """`check_semiring_axioms`' failures, each operation computed from
    `UnitScalar` operands by the `SMatrix` and `SVector` constructors and
    cached on the scalars."""
    zero, one, failures = instance.zero, instance.one, []

    @functools.cache
    def act(row, vector):
        v = mat_vec(SMatrix(instance, (row,)), SVector(instance, vector))
        return instance.from_ratio(v.numerators[0], v.scale)

    def mul(x, y):
        return act((x,), (y,))

    def add(x, y):
        return act((x, y), (one, one))

    def law(name, holds, ops):
        try:
            ok = holds()
        except ValueError:  # a result outside the carrier
            ok = False
        if not ok:
            failures.append((name,) + ops)

    for a in grid:
        law("add-zero", lambda: add(zero, a) == a and add(a, zero) == a, (a,))
        law("mul-one", lambda: mul(one, a) == a and mul(a, one) == a, (a,))
        law("mul-zero-absorbs", lambda: mul(zero, a) == zero and mul(a, zero) == zero, (a,))
        law("add-idempotent", lambda: add(a, a) == a, (a,))
    for a, b in itertools.product(grid, repeat=2):
        law("add-commutes", lambda: add(a, b) == add(b, a), (a, b))
    for a, b, c in itertools.product(grid, repeat=3):
        law("add-assoc", lambda: add(add(a, b), c) == add(a, add(b, c)), (a, b, c))
        law("mul-assoc", lambda: mul(mul(a, b), c) == mul(a, mul(b, c)), (a, b, c))
        law("left-dist", lambda: mul(a, add(b, c)) == add(mul(a, b), mul(a, c)), (a, b, c))
        law("right-dist", lambda: mul(add(a, b), c) == add(mul(a, c), mul(b, c)), (a, b, c))
    return failures


@pytest.mark.parametrize("grid", ["coarse", "standard"])
@pytest.mark.parametrize("name", [name for name, patch in MUTANTS.items() if patch and isinstance(
    getattr(verify, patch[0]), SemiringInstance)] + ["corrupt"])
def test_semiring_failures_match_the_scalar_route(name, grid):
    # the (n, d) pairs give the failures, in order, of rational operands
    if name == "corrupt":
        instance = CORRUPT
    else:
        attribute, make = MUTANTS[name]
        instance = make(getattr(verify, attribute))
    values = grid_values(grid)
    report = check_semiring_axioms(instance, values)
    want = _reference_semiring_failures(instance, values)
    assert want
    assert report.failures == want
    assert all(type(x) is U for failure in report.failures for x in failure[1:])
    n = len(values)
    assert report.cases == 4 * n + n ** 2 + 4 * n ** 3


def test_a_grid_value_outside_the_carrier_is_refused():
    with pytest.raises(ValueError):
        check_semiring_axioms(FUZZ_MV, (U(0), Fraction(3, 2)))


def test_accepting_every_vector_fails_the_complement_exhibit(runs):
    # the complement of (0, 1/2) then counts as a state; no other law of
    # `action-laws-2` reads the state predicate but state closure, which
    # such a predicate cannot fail
    report = runs("coarse", "accept-all")["action-laws-2"]
    assert report.failures == [("complement-unexpectedly-closed", (0, 1), (2, 1))]


def _tensor_laws(grid, size):
    """`check_tensor_laws`, whose mixed products are size-4 cases."""
    return check_tensor_laws(grid)


# Each expected failure list, by kind and by its first and last tuple, is the
# one a per-case loop over the law instances finds under the same mutant
# (every instance at size 2, the sampled ones at size 4): the interned tables
# must find the same failures, in the same order.  `verify` reads them off
# its tables; the per-case loop now lives only in the tests
# (`_per_case_walk` compares whole size-2 lists).
@pytest.mark.parametrize("line, mutant, cases, kinds, first, last", [
    ("mv-gate-laws-2", "max-plus", 35881,
     {"left-dist": 6976, "right-dist": 2464, "closure": 446, "identity": 25,
      "involution": 1},
     ("closure", (0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)),
     ("left-dist", (2, 2, 0, 0), (2, 2, 0, 0), (2, 0, 0, 2))),
    ("action-laws-2", "max-reduced", 5149,
     {"compatibility": 1780, "linearity": 164, "state-closure": 48},
     ("state-closure", (0, 0, 0, 0), (0, 1), (1, 1)),
     ("compatibility", (2, 2, 0, 0), (2, 2, 0, 0), (1, 0))),
    ("mv-gate-laws-2", "uncapped", 35881,
     {"closure": 9, "zero-absorbs": 9},
     ("closure", (0, 0, 1, 1), (2, 2, 2, 2), (2, 2, 3, 3)),
     ("zero-absorbs", (2, 2, 2, 2))),
    ("action-laws-2", "max-meet", 5149,
     {"linearity": 164},
     ("linearity", (0, 0, 0, 0), (0, 1), (1, 0)),
     ("linearity", (2, 2, 0, 0), (2, 0), (0, 2))),
    ("mv-gate-laws-4", "max-plus", 141353,
     {"involution": 1, "identity": 625, "closure": 34292, "left-dist": 6011,
      "right-dist": 3648},
     ("involution", (2, 2, 2, 0, 2, 2, 0, 2, 2, 0, 2, 2, 0, 2, 2, 2), (2,) * 16),
     ("left-dist", (0,) * 16, (0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 2, 0, 0, 1, 1),
      (1, 1, 0, 0, 1, 2, 0, 2, 0, 0, 0, 0, 0, 2, 0, 2))),
    ("action-laws-4", "max-reduced", 224336,
     {"state-closure": 1632, "linearity": 7780, "compatibility": 12847},
     ("state-closure", (0,) * 16, (0, 1, 0, 1), (1, 1, 1, 1)),
     ("compatibility", (0, 2, 0, 2, 0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0),
      (2, 0, 2, 0, 0, 1, 0, 1, 2, 0, 2, 2, 0, 1, 2, 2), (1, 1, 0, 0))),
    ("mv-gate-laws-4", "max-meet", 141353,
     {"left-dist": 9692, "right-dist": 4473},
     ("left-dist", (0,) * 16, (0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1),
      (0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0)),
     ("left-dist", (0,) * 16, (0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 2, 0, 0, 1, 1),
      (1, 1, 0, 0, 1, 2, 0, 2, 0, 0, 0, 0, 0, 2, 0, 2))),
    ("action-laws-4", "max-meet", 224336,
     {"linearity": 23148},
     ("linearity", (0,) * 16, (0, 1, 0, 1), (1, 0, 1, 0)),
     ("linearity", (2, 2, 2, 2, 0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 2, 2), (2, 2, 2, 0),
      (2, 2, 0, 2))),
    ("tensor-laws", "uncapped", 20512,
     {"mixed-product": 459},
     ("mixed-product", (0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0), (2, 2, 2, 2)),
     ("mixed-product", (0, 0, 0, 0), (2, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2))),
], ids=["mv-gate-laws-2", "action-laws-2", "mv-gate-laws-2-uncapped",
        "action-laws-2-max-meet", "mv-gate-laws-4", "action-laws-4",
        "mv-gate-laws-4-max-meet", "action-laws-4-max-meet", "tensor-laws"])
def test_interned_tables_keep_the_per_case_failures(runs, line, mutant, cases, kinds, first,
                                                    last):
    report = runs("coarse", mutant)[line]
    assert report.cases == cases
    assert Counter(failure[0] for failure in report.failures) == kinds
    assert (report.failures[0], report.failures[-1]) == (first, last)


def _kernel_calls(monkeypatch, check, size, kernel, grid="coarse") -> int:
    """How many times a healthy `check` on `grid` calls `kernel`."""
    real, calls = getattr(verify, kernel), []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(verify, kernel, counted)
    assert check(grid_values(grid), size).passed
    return len(calls)


@pytest.mark.parametrize("check, kernel, budget", [
    (check_mv_gate_laws, "_mm", 400),  # 182,765 calls case by case
    # 50 with each row taken against each state once, 102 twice, 3,952 with
    # a table per gate, 324,336 case by case
    (check_action_laws, "_mv", 51),
    (_tensor_laws, "_mm", 6000),  # 60,000 calls case by case
], ids=["mv-gate-laws-4", "action-laws-4", "tensor-laws"])
def test_size4_checks_call_the_kernel_per_distinct_vector(monkeypatch, check, kernel, budget):
    assert 0 < _kernel_calls(monkeypatch, check, 4, kernel) < budget


# A meet law decided per distinct row or column of the gates, not per gate:
# a table of images per gate took 83 and 168 calls.
@pytest.mark.parametrize("check, kernel, budget", [
    (check_mv_gate_laws, "_mm", 40),
    (check_action_laws, "_mv", 30),
], ids=["mv-gate-laws-2", "action-laws-2"])
def test_size2_checks_call_the_kernel_per_distinct_part(monkeypatch, check, kernel, budget):
    assert 0 < _kernel_calls(monkeypatch, check, 2, kernel) < budget


# A meet law takes its meets from one scalar meet table per side and meets
# whole rows of its part table once per distinct pair of them: whole-vector
# meets of every pair took 28,916 and 1,016 calls.
@pytest.mark.parametrize("check, budget", [
    (check_mv_gate_laws, 100),
    (check_action_laws, 1000),
], ids=["mv-gate-laws-4", "action-laws-4"])
def test_meet_laws_call_the_meet_per_distinct_entry_pair(monkeypatch, check, budget):
    assert 0 < _kernel_calls(monkeypatch, check, 4, "_wedge", "standard") < budget


@pytest.mark.parametrize("grid", ["coarse", "standard"])
def test_scalar_meet_table_gives_each_whole_vector_meet(grid):
    # every pair of distinct size-2 columns, size-2 rows and size-4 states,
    # met through the scalar table and by `_wedge` on the whole vectors
    grid = verify._Grid(grid_values(grid))
    gates = grid.size2[0]
    families = [list(gates.col_ids), list(gates.row_ids), list(dict.fromkeys(grid.size4[1]))]
    for vectors in families:
        meets = verify._scalar_meets(vectors)
        for x in range(len(vectors)):
            assert list(meets(x)) == [verify._wedge(vectors[x], y) for y in vectors]


@pytest.mark.parametrize("m, n, p", [(1, 3, 2), (3, 2, 1), (2, 3, 4), (4, 2, 3), (1, 4, 1)])
@pytest.mark.parametrize("L", [1, 2, 6])
def test_scaled_kernels_take_any_shape(m, n, p, L):
    # an m x n a, an n x p b and an n-vector v, against entry-by-entry loops
    rng = random.Random(1000 * m + 100 * n + 10 * p + L)
    for _ in range(20):
        a, b, v = ([rng.randint(0, L) for _ in range(k)] for k in (m * n, n * p, n))
        mm = [min(min(a[i * n + k] + b[k * p + j] for k in range(n)), L)
              for i in range(m) for j in range(p)]
        mv = [min(min(a[i * n + k] + v[k] for k in range(n)), L) for i in range(m)]
        assert verify._mm(tuple(a), tuple(b), n, L) == tuple(mm)
        assert verify._mv(tuple(a), tuple(v), n, L) == tuple(mv)


def _entrywise_mv(a, v, n, L):
    """Each n-entry row of `a`, the last one possibly shorter, against `v`,
    entry by entry: the least row[k] + v[k] over the k both reach, capped at L."""
    out = []
    for i in range(0, len(a), n):
        row = a[i:i + n]
        best = row[0] + v[0]
        for k in range(1, min(len(row), len(v))):
            best = min(best, row[k] + v[k])
        out.append(min(best, L))
    return tuple(out)


@pytest.mark.parametrize("m", [1, 2, 49, 143])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_mv_reduces_columns_as_an_entrywise_loop(m, n):
    # `_mv` reduces whole columns: against a loop over rows and entries, on
    # m full rows and a shorter last one (as a gate of 20 entries read as
    # rows of 4 leaves), vectors of fewer, n and more entries, and entries
    # past L, as an uncapped product leaves them
    assert verify._mv((1, 2, 3), (0,), 1, 12) == (1, 2, 3)
    rng = random.Random(10 * m + n)
    for L in (1, 2, 12):
        for ragged in range(n):  # the entries of a shorter last row, if any
            a = tuple(rng.randint(0, 2 * L) for _ in range(m * n + ragged))
            for size in sorted({1, n - 1, n, n + 2} - {0}):
                v = tuple(rng.randint(0, 2 * L) for _ in range(size))
                assert verify._mv(a, v, n, L) == _entrywise_mv(a, v, n, L)


def test_image_tables_are_one_kernel_call_per_vector_loop():
    grid = verify._Grid(grid_values("coarse"))
    L, _ = grid.scale
    for n, (gates, states) in ((2, grid.size2), (4, grid.size4)):
        cols, rows = list(gates.col_ids), list(gates.row_ids)
        for a in (gates[0], gates[len(gates) // 2], gates[len(gates) - 1]):
            assert verify._left_images(a, cols, n, L) == [verify._mm(a, c, n, L) for c in cols]
            assert verify._right_images(a, rows, n, L) == [verify._mm(r, a, n, L) for r in rows]
        assert verify._dot_table(rows, states, n, L) == [
            tuple(verify._mv(r, s, n, L)[0] for s in states) for r in rows]
        assert verify._left_images(gates[0], [], n, L) == []
        assert verify._right_images(gates[0], [], n, L) == []


def test_part_tables_give_each_gate_its_images():
    # entry i of Ax is row i of A against x, and entry j of xA is x against
    # column j of A: tables of the distinct rows stacked, and of the distinct
    # columns side by side, against every vector give every gate's images
    grid = verify._Grid(grid_values("coarse"))
    L, _ = grid.scale
    for n, gates in ((2, grid.size2[0]), (4, grid.size4[0])):
        cols, rows = list(gates.col_ids), list(gates.row_ids)
        by_rows = verify._left_images(tuple(itertools.chain(*rows)), cols, n, L)
        by_cols = verify._right_images(tuple(itertools.chain(*zip(*cols))), rows, n, L)
        for k in (0, 1, len(gates) // 2, len(gates) - 1):
            a = gates[k]
            for v, x in enumerate(cols):
                assert tuple(by_rows[v][r] for r in gates.rows[k]) == verify._mm(a, x, n, L)
            for v, x in enumerate(rows):
                assert tuple(by_cols[v][c] for c in gates.columns[k]) == verify._mm(x, a, n, L)


def test_kron_gates_read_columns_and_rows_off_their_factors():
    grid = verify._Grid(grid_values("coarse"))
    L, _ = grid.scale
    base, gates = grid.size2[0], grid.size4[0]
    cols, rows = list(gates.col_ids), list(gates.row_ids)
    assert len(gates) == len(base) ** 2
    for k, (a, b) in enumerate(itertools.product(base, repeat=2)):
        g = verify._kron_m(a, b, 2, 2, L)
        assert gates[k] == g
        assert [cols[c] for c in gates.columns[k]] == [g[j::4] for j in range(4)]
        assert [rows[r] for r in gates.rows[k]] == [g[i:i + 4] for i in range(0, 16, 4)]


def test_meet_outside_the_grid_is_a_failure(monkeypatch, runs):
    # an entrywise max in place of the meet leaves the gate set: no KeyError,
    # a meet-closure failure, and each case that needs such a meet decided
    # as a per-case loop decides it
    report = runs("coarse", "max-meet")["mv-gate-laws-2"]
    assert report.cases == 35881
    assert Counter(failure[0] for failure in report.failures) == {
        "meet-closure": 332, "left-dist": 6976, "right-dist": 2464}
    _patch(monkeypatch, "max-meet")
    want = _per_case_walk(grid_values("coarse"))[0]
    assert [f for f in report.failures if f[0] != "meet-closure"] == want


def _per_case_walk(values) -> tuple[list, list]:
    """The distributivity failures, and the linearity then (AB)s = A(Bs)
    failures, of every size-2 law instance on `values`, each case decided by
    direct calls of the kernels `verify` holds when it runs, in order."""
    grid = verify._Grid(values)
    L, (gates, states) = grid.scale[0], grid.size2
    mm, mv, meet = verify._mm, verify._mv, verify._wedge
    dist, action = [], []
    for a, b, c in itertools.product(gates, repeat=3):
        bc = meet(b, c)
        if mm(a, bc, 2, L) != meet(mm(a, b, 2, L), mm(a, c, 2, L)):
            dist.append(("left-dist", a, b, c))
        if mm(bc, a, 2, L) != meet(mm(b, a, 2, L), mm(c, a, 2, L)):
            dist.append(("right-dist", a, b, c))
    for a, s, t in itertools.product(gates, states, states):
        if mv(a, meet(s, t), 2, L) != meet(mv(a, s, 2, L), mv(a, t, 2, L)):
            action.append(("linearity", a, s, t))
    for a, b, s in itertools.product(gates, gates, states):
        if mv(mm(a, b, 2, L), s, 2, L) != mv(a, mv(b, s, 2, L), 2, L):
            action.append(("compatibility", a, b, s))
    return dist, action


@pytest.mark.parametrize("mutant", ["max-plus", "max-meet", "max-reduced"])
def test_tables_read_the_failures_of_a_per_case_walk(monkeypatch, runs, mutant):
    # the full lists of the laws whose failures are read off the tables, against
    # the per-case loop `verify` no longer runs
    reports = runs("coarse", mutant)
    _patch(monkeypatch, mutant)
    dist, action = _per_case_walk(grid_values("coarse"))
    assert dist or action
    laws = ("left-dist", "right-dist", "linearity", "compatibility")
    for line, want in (("mv-gate-laws-2", dist), ("action-laws-2", action)):
        assert [f for f in reports[line].failures if f[0] in laws] == want


def test_meet_closure_failures_are_the_per_pair_list(runs):
    # the table of meets of distinct columns lists, in order, what meeting
    # every pair of whole gates under the `max-meet` mutant lists
    gates = verify._Grid(grid_values("coarse")).size2[0]
    members = set(gates)
    per_pair = [("meet-closure", b, c, m) for b in gates for c in gates
                if (m := _entrywise_max(b, c)) not in members]
    report = runs("coarse", "max-meet")["mv-gate-laws-2"]
    assert [f for f in report.failures if f[0] == "meet-closure"] == per_pair
    assert len(per_pair) == 332


def _fields(report) -> tuple:
    return report.name, report.cases, report.failures, report.note


def test_run_all_builds_the_size4_family_once(monkeypatch, runs):
    # `_run` counts the builds, here under every mutant; and under a meet
    # that leaves the gate set, so that a check that wrote what it derives
    # into a shared family could change what a later check finds, each
    # report is the one its check gives alone
    for mutant in MUTANTS:
        runs("coarse", mutant)
    reports = runs("coarse", "max-meet")
    _patch(monkeypatch, "max-meet")
    plain = tuple(grid_values("coarse"))
    for name, check in GRID_CHECKS.items():
        assert _fields(reports[name]) == _fields(check(plain)), name


# meets, and products past 1, that leave the gate set: what a check derives
# is then no vector of a family
@pytest.mark.parametrize("mutant", ["healthy", "max-meet", "uncapped"])
def test_checks_leave_a_shared_grid_unchanged(monkeypatch, mutant):
    _patch(monkeypatch, mutant)
    grid = verify._Grid(grid_values("coarse"))
    tables = [t for gates in (grid.size2[0], grid.size4[0]) for t in (gates.col_ids, gates.row_ids)]
    before = [list(t.items()) for t in tables]
    for check_name, check in GRID_CHECKS.items():
        check(grid)
        assert [list(t.items()) for t in tables] == before, check_name


class _CountedReads:
    """A sequence that counts into `reads` each item of `items` read by index,
    slice or iteration; any other attribute is `items`' own, uncounted."""

    def __init__(self, items, reads: list):
        self.items, self.reads = items, reads

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, k):
        item = self.items[k]
        self.reads.append(len(item) if isinstance(k, slice) else 1)
        return item

    def __getattr__(self, name):
        return getattr(self.items, name)


def test_size4_walks_read_gates_by_their_factors(monkeypatch):
    # the closure walk names its gates per base column, the mixed product
    # decides a row per column of d and the meet law reads only the ids of
    # the Bs and As its cap reaches: reading each gate's column ids, they
    # read 100,000, 20,000 and 20,000 of them on `standard`
    reads, real = [], verify._KronGates.__init__

    def counted(self, *args):
        real(self, *args)
        self.columns = _CountedReads(self.columns, reads)

    monkeypatch.setattr(verify._KronGates, "__init__", counted)
    grid = verify._Grid(grid_values("standard"))
    assert check_tensor_laws(grid).passed
    assert sum(reads) == 0
    assert check_mv_gate_laws(grid, 4).passed
    # the distributivity walk's 20,000 triples reach one A and one B: the
    # column side reads the B's column ids once, the row side the A's once
    assert sum(reads) <= 2


@pytest.mark.parametrize("grid", ["coarse", "standard"])
@pytest.mark.parametrize("size", [2, 4])
def test_families_name_the_gates_holding_a_column_id(grid, size):
    # the size-2 inverted index and the size-4 factor reading against a scan
    # of each gate's column ids
    grid = verify._Grid(grid_values(grid))
    gates = (grid.size2 if size == 2 else grid.size4)[0]
    rng, every = random.Random(size), range(len(gates.col_ids))
    for k in (0, 1, 2, len(every) // 2, len(every) - 1, len(every)):
        ids = set(rng.sample(every, k))
        want = [g for g, cs in enumerate(gates.columns) if not ids.isdisjoint(cs)]
        assert verify._bits(gates.holding(ids)) == want


@pytest.mark.parametrize("grid", ["coarse", "standard"])
@pytest.mark.parametrize("size", [2, 4])
def test_id_views_match_a_scan_of_built_gates(grid, size):
    # each gate's column and row ids looked up from the built gate, against
    # the family's ids by index and slice
    grid = verify._Grid(grid_values(grid))
    gates, n = (grid.size2 if size == 2 else grid.size4)[0], size
    built = [(tuple(gates.col_ids[g[j::n]] for j in range(n)),
              tuple(gates.row_ids[g[i:i + n]] for i in range(0, n * n, n))) for g in gates]
    block = len(grid.size2[0]) if size == 4 else len(gates) // 2
    caps = (0, 1, block // 2, block, block + block // 2 + 1, len(gates) - 1, len(gates))
    for want, ids in zip(zip(*built), (gates.columns, gates.rows)):
        want = list(want)
        assert len(ids) == len(want)
        assert [ids[k] for k in range(len(ids))] == want
        assert ids[-1] == want[-1]
        for cap in caps:
            assert ids[:cap] == want[:cap]
            assert ids[cap:cap + 3] == want[cap:cap + 3]


def test_bits_lists_the_set_bits_in_order():
    rng = random.Random(3)
    for mask in [0, 1, 2, 5, 1 << 200, (1 << 300) - 1] + [rng.getrandbits(500) for _ in range(20)]:
        assert verify._bits(mask) == [k for k in range(mask.bit_length()) if mask >> k & 1]


def _digest(reports) -> str:
    """One sha256 over the full reports."""
    return hashlib.sha256(repr([_fields(r) for r in reports]).encode()).hexdigest()


# The checks that read Kronecker-built gates by their factors, pinned by one
# sha256 over their full reports: on `coarse` under each mutant of the
# kernels and predicates they read, and on `standard` healthy.  Both caps
# end mid-block there: on
# `coarse` the 148th A of the closure walk stops after 628 of 676 gates, on
# `standard` the 4th after 13,300, and the mixed product's last row (a, b, c)
# stops short of the last d.
FACTOR_READ_DIGESTS = {
    ("coarse", "healthy"):
        "6166a9761ea6f9c9a568000335c1b0a8a63ec2a1fefcbd05427359012269685f",
    ("coarse", "uncapped"):
        "b261bc6dae41a0515f1daa59f522b2d630d4daf28f1ad58e3b976b0cfbb43c53",
    ("coarse", "max-plus"):
        "5de4ac647111c9d571f66f1df89c8a8f709afe52bf9f8c1138d164f745a3c243",
    ("coarse", "max-meet"):
        "8375b6ddfa72bcfe1fbd0f302148ce233c91e77f82dddb9e31a7b86145bd32cc",
    # a family that breaks locality: the tables decide alone
    ("coarse", "basis-ket"):
        "667b2b2bbef25f26591fab175071aeca47fe690512d0b89a2938c7979c9053aa",
    ("coarse", "dimension"):
        "52e1292fe29650731eeba04fd0a3450b13e8585b75f3c9b2295f59732ce68ced",
    ("coarse", "symmetry"):
        "26b029d01535e12ecde6f033513a768d64b9f3c8fc2f352917764578821f65ee",
    ("coarse", "associativity"):
        "fcfc28f23a0618f4150f8b7e710b4ffede95b342c57976861dff2998a0c9eb63",
    ("coarse", "gate-closure"):
        "93c545d7d24544220d728fa14b9ef54b499027a7fc5156017d12200d0a0f6606",
    ("standard", "healthy"):
        "ea0760463acabca31ec5ce20c52e45b9dd2a4e3f146fc88bd09cecd40e846a49",
}


@pytest.mark.parametrize("grid, mutant", list(FACTOR_READ_DIGESTS),
                         ids=[f"{grid}-{mutant}" for grid, mutant in FACTOR_READ_DIGESTS])
def test_factor_read_reports_keep_their_digest(runs, grid, mutant):
    reports = runs(grid, mutant)
    lines = ("mv-gate-laws-2", "mv-gate-laws-4", "tensor-laws")
    assert _digest(map(reports.get, lines)) == FACTOR_READ_DIGESTS[grid, mutant]


# `action-laws` reads states by class, those that each row it reaches meets
# alike, pinned by one sha256 over both sizes' full reports: on `coarse`
# under each mutant of the kernels and predicates it reads, and on
# `standard` healthy.  A constant `_mv` puts every state in one class.
ACTION_READ_DIGESTS = {
    ("coarse", "healthy"):
        "5764489432d325ddc03d1faa5968f3077703f76f64e2ed62a640a4119a7e2ceb",
    ("coarse", "max-reduced"):
        "537d2fa81c28d5a582fbb7415fbffc889368c88aa509144aa27ceb6852867553",
    ("coarse", "max-meet"):
        "58ff7e493e56a0dc129f6d5a660cbe03a9e9ae066bd740c5a269f8099b093ac6",
    ("coarse", "state-closure"):
        "882743847639a658a64d65765ce157288e39056da14fb40a64100a565f9f338d",
    ("coarse", "accept-all"):
        "f919c2a746208b192255374fb047de592479b0512f3a02cc04c8ca21b9764bc0",
    # the healthy reports: no law fails when every product is 0
    ("coarse", "constant"):
        "5764489432d325ddc03d1faa5968f3077703f76f64e2ed62a640a4119a7e2ceb",
    ("standard", "healthy"):
        "00057efc240f79db468edfe45469412b09e6eeda680d43d7b0172068769289ff",
    # the healthy reports: the `_mv` that reads a row rB caps what an uncapped
    # product leaves past 1, and swapped factors give the same laws
    ("coarse", "uncapped"):
        "5764489432d325ddc03d1faa5968f3077703f76f64e2ed62a640a4119a7e2ceb",
    ("coarse", "basis-ket"):
        "5764489432d325ddc03d1faa5968f3077703f76f64e2ed62a640a4119a7e2ceb",
    ("coarse", "max-plus"):
        "50b1d673461cc2115f700074ea6f52fa5575535dcf5f8da339f0e111c83f6a09",
    # a Kronecker-built B of 20 entries: its rows rB take the five columns
    # that `_mm` reads, not its factors' four, and the tables decide alone
    ("coarse", "dimension"):
        "79dc0b5847e4509a68c4a09c71e038d70b70e17d330562a4b7212536db5f609a",
}


@pytest.mark.parametrize("grid, mutant", list(ACTION_READ_DIGESTS),
                         ids=[f"{grid}-{mutant}" for grid, mutant in ACTION_READ_DIGESTS])
def test_action_read_reports_keep_their_digest(runs, grid, mutant):
    reports = runs(grid, mutant)
    lines = ("action-laws-2", "action-laws-4")
    assert _digest(map(reports.get, lines)) == ACTION_READ_DIGESTS[grid, mutant]


# Every row rB is read off one product of the A rows by the Bs' distinct
# columns: one `_mm` per B made 26 and 676 calls.
@pytest.mark.parametrize("size", [2, 4])
def test_action_laws_take_every_rb_from_one_product(monkeypatch, size):
    assert _kernel_calls(monkeypatch, check_action_laws, size, "_mm") == 1


# The full reports of one `run_all` request per grid.  `standard` and `fine`
# both have seven values, and the healthy reports count their cases by the
# grid's size, so those two digests agree; the digests under a mutant below
# tell the two grids apart.
RUN_ALL_DIGESTS = {
    "coarse": "ed00f8002238a498fe176fcd5c4123da4448990e7bf99230db63787adaf50bdc",
    "standard": "074f40ebc2a0bdc3bc832119c9ae95ab32c846844dc295fdc076b3191621fe51",
    "fine": "074f40ebc2a0bdc3bc832119c9ae95ab32c846844dc295fdc076b3191621fe51",
}


def test_run_all_reports_keep_their_digest(runs):
    digests = {grid: _digest(runs(grid, "healthy").values()) for grid in RUN_ALL_DIGESTS}
    assert digests == RUN_ALL_DIGESTS


# The same under the `state-closure` mutant of `_is_state`, whose failures
# (39,000 on `standard` and on `fine`) name grid values: a check that read
# the wrong seven-value grid changes one of these digests.
STATE_CLOSURE_RUN_ALL_DIGESTS = {
    "coarse": "b88807ec40dd342b6c8111f4f7135b9abd2fdfe6b2fb6b8e1e4c6dd0574e4a78",
    "standard": "25901d4a764bd22092616bee9126a453dee32b3f1fe6bc7ea894528242a85713",
    "fine": "c77a0dd2f01c632d687daade845b59d2446671791d3390b2d2839dfffb8363c6",
}


def test_run_all_reports_under_a_mutant_tell_the_grids_apart(runs):
    digests = {grid: _digest(runs(grid, "state-closure").values())
               for grid in STATE_CLOSURE_RUN_ALL_DIGESTS}
    assert digests == STATE_CLOSURE_RUN_ALL_DIGESTS
    assert digests["standard"] != digests["fine"]


# `verify --grid coarse` under the max meet: the count of each line.
MAX_MEET_COARSE_FAILURES = {"mv-gate-laws-2": 9772, "mv-gate-laws-4": 14165,
                            "action-laws-2": 164, "action-laws-4": 23148}


def _verify_coarse(capsys) -> tuple[int, list, int]:
    """`verify --grid coarse` through `main`: its exit code, its output lines
    and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        code = main(["verify", "--grid", "coarse"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, capsys.readouterr().out.splitlines(), peak


def test_a_request_that_counts_builds_no_failure_tuple(monkeypatch, capsys, coarse_reports):
    # it prints one count per report: under the max meet its peak stays within
    # twice a healthy request's; holding each failure tuple took about nine times
    healthy_code, healthy_lines, healthy_peak = _verify_coarse(capsys)
    _patch(monkeypatch, "max-meet")
    code, lines, peak = _verify_coarse(capsys)
    assert (healthy_code, code) == (0, 1)
    assert lines == [f"{name} cases {r.cases} failures {MAX_MEET_COARSE_FAILURES.get(name, 0)}"
                     for name, r in coarse_reports.items()]
    assert healthy_lines == [line.rsplit(" ", 1)[0] + " 0" for line in lines]
    assert peak < 2 * healthy_peak


def test_action_laws_intern_images_per_class_of_states(monkeypatch):
    # on `standard` the 170 distinct size-4 states fall into 53 classes:
    # images of each state under the 511 gates the walks reach took 130,317
    # values through `_intern`, images per class about 57,000
    grid = verify._Grid(grid_values("standard"))
    grid.size4  # the family's own tables are built before counting
    real, interned = verify._intern, []

    def counted(values, ids):
        values = list(values)
        interned.append(len(values))
        return real(values, ids)

    monkeypatch.setattr(verify, "_intern", counted)
    assert check_action_laws(grid, 4).passed
    assert 0 < sum(interned) < 70000


@pytest.mark.parametrize("grid", ["coarse", "standard"])
def test_integer_semigroup_products_match_rational_arithmetic(grid):
    # every product of two column-stochastic grid matrices, and of two
    # coarse grid matrices of any kind, against Fractions: the integer
    # product over L * L and its closure verdict
    values = sorted({Fraction(x) for x in grid_values(grid)})
    L, _ = verify._Grid(grid_values(grid)).scale
    columns = [(x, 1 - x) for x in values if 1 - x in values]
    stochastic = [((c0[0], c1[0]), (c0[1], c1[1])) for c0 in columns for c1 in columns]
    pairs = list(itertools.product(stochastic, repeat=2))
    if grid == "coarse":
        every = [((a, b), (c, d)) for a, b, c, d in itertools.product(values, repeat=4)]
        pairs += list(itertools.product(every, repeat=2))
    verdicts = Counter()
    for m, k in pairs:
        want = tuple(tuple(sum(m[i][t] * k[t][j] for t in range(2)) for j in range(2))
                     for i in range(2))
        scaled = [tuple(tuple(int(x * L) for x in row) for row in mat) for mat in (m, k)]
        got = verify._mm2(*scaled)
        assert got == tuple(tuple(x * L * L for x in row) for row in want)
        closed = all(0 <= x <= 1 for row in want for x in row) and all(
            want[0][j] + want[1][j] == 1 for j in range(2))
        assert verify._is_stochastic2(got, L * L) == closed
        verdicts[closed] += 1
    assert set(verdicts) == ({True, False} if grid == "coarse" else {True})
    report = check_stochastic_semigroup(grid_values(grid))
    assert (report.cases, report.failures) == (len(stochastic) ** 2 + 3, [])


def test_tensor_and_stochastic_exhibits():
    grid = grid_values("coarse")
    tensor = check_tensor_laws(grid)
    assert tensor.passed
    stoch = check_stochastic_semigroup(grid)
    assert stoch.passed
    # the two inverse exhibits count as cases even though they cannot fail here
    assert stoch.cases > len(grid) ** 4
