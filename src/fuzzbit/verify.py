"""Brute-force law checking on rational grids, independent of the main code.

Every check re-derives matrix entries from the scalar definitions
(min / truncated sum) instead of calling the generic linear algebra; an
explicit agreement check compares the two routes bit for bit.  Grid values
are mapped to integers over the grid's common denominator: min, max and
the truncated sum of multiples of 1/L stay multiples of 1/L, so integer
arithmetic is exact.

Exhaustion caps follow the harness contract: size-2 enumerations are
exhaustive; size-4 objects are built as Kronecker products of size-2 grid
objects and law instances are sampled in lexicographic order, which every
report states in its note.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add as _int_add
from operator import itemgetter

from .algebra import (
    BOOLEAN,
    FUZZ_MV,
    MAX_MIN,
    VITERBI,
    SemiringInstance,
    UnitScalar,
)
from .linalg import SMatrix, SVector, kron_mat, kron_vec, mat_mul, mat_vec, mat_vec_block

__all__ = [
    "GRID_NAMES",
    "grid_values",
    "CheckReport",
    "check_semiring_axioms",
    "check_mv_gate_laws",
    "check_action_laws",
    "check_tensor_laws",
    "check_stochastic_semigroup",
    "check_oracle_agreement",
    "run_all",
]

GRID_NAMES = ("coarse", "standard", "fine")

_GRIDS = {
    "coarse": (Fraction(0), Fraction(1, 2), Fraction(1)),
    "standard": (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                 Fraction(2, 3), Fraction(3, 4), Fraction(1)),
    "fine": tuple(Fraction(k, 6) for k in range(7)),
}


def grid_values(name: str) -> tuple[UnitScalar, ...]:
    try:
        return tuple(UnitScalar(f) for f in _GRIDS[name])
    except KeyError:
        raise ValueError(f"unknown grid {name!r}; choose from {GRID_NAMES}") from None


@dataclass
class CheckReport:
    name: str
    cases: int
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures


# --- scaled-integer kernels -----------------------------------------------------
#
# A grid scalar p/q becomes the integer p*L/q for the grid denominator L.
# Matrices are flat row-major int tuples; L plays the role of 1.

def _scale_grid(grid) -> tuple[int, tuple[int, ...]]:
    fracs = sorted({Fraction(g) for g in grid})
    L = math.lcm(*(f.denominator for f in fracs))
    levels = tuple(int(f * L) for f in fracs)
    if levels[0] != 0 or levels[-1] != L:
        raise ValueError("grids must contain 0 and 1")
    return L, levels


def _row_reduce(terms):
    # row aggregation of the matrix action; min is the fuzz-mv addition
    return min(terms)


def _mm(a, b, n, L):
    """Entrywise product: out[i,j] = min over k of (a[i,k] + b[k,j]), capped at L."""
    cols = [b[j::n] for j in range(n)]
    out = []
    for i in range(n):
        row = a[i * n:i * n + n]
        for col in cols:
            best = min(map(_int_add, row, col))
            out.append(best if best < L else L)
    return tuple(out)


def _mv(a, v, n, L):
    out = []
    for i in range(n):
        r = _row_reduce(list(map(_int_add, a[i * n:i * n + n], v)))
        out.append(r if r < L else L)
    return tuple(out)


def _wedge(a, b):
    return tuple(map(min, a, b))


def _kron_m(a, b, na, nb, L):
    n = na * nb
    out = [0] * (n * n)
    for i in range(na):
        for j in range(na):
            x = a[i * na + j]
            for k in range(nb):
                base = (i * nb + k) * n + j * nb
                for l in range(nb):
                    s = x + b[k * nb + l]
                    out[base + l] = L if s > L else s
    return tuple(out)


def _kron_v(u, v, L):
    out = []
    for x in u:
        for y in v:
            s = x + y
            out.append(L if s > L else s)
    return tuple(out)


def _is_gate(m, n, L):
    if all(x == L for x in m):
        return True
    return all(min(m[i * n + j] for i in range(n)) == 0 for j in range(n))


def _is_state(v, L):
    return min(v) == 0 or all(x == L for x in v)


def _gates2(levels, L):
    cols = [(a, b) for a in levels for b in levels if a == 0 or b == 0]
    gates = [(c0[0], c1[0], c0[1], c1[1]) for c0 in cols for c1 in cols]
    gates.append((L, L, L, L))
    return gates


def _states2(levels, L):
    states = [(a, b) for a in levels for b in levels if a == 0 or b == 0]
    states.append((L, L))
    return states


# --- interned element tables ----------------------------------------------------
#
# The exhaustive size-2 checks meet few distinct values many times over.  Each
# distinct gate or vector gets a dense int id, and an operation becomes a table
# of ids built by one kernel call per pair.  Equal ids mean equal values, so
# comparing rows of ids is an exact comparison of every case in the row.

def _intern(values, ids: dict) -> list[int]:
    """The id of each value, adding unseen values to `ids` in order of first appearance.

    Ids are dense, so `list(ids)[k]` is the value with id k.
    """
    return [ids.setdefault(v, len(ids)) for v in values]


def _table(op, left, right, ids: dict) -> list[list[int]]:
    """table[p][q] is the id of op(left[p], right[q]), one op call per pair."""
    return [_intern([op(a, b) for b in right], ids) for a in left]


# --- checks ---------------------------------------------------------------------

def check_semiring_axioms(instance: SemiringInstance, grid) -> CheckReport:
    """Both monoid laws, commutativity, distributivity, absorbing zero."""
    t0 = time.perf_counter()
    report = CheckReport(f"semiring-axioms-{instance.name}", 0)
    add, mul = instance.add, instance.mul
    zero, one = instance.zero, instance.one

    def law(name, ok, ops):
        report.cases += 1
        if not ok:
            report.failures.append((name,) + ops)

    for a in grid:
        law("add-zero", add(zero, a) == a and add(a, zero) == a, (a,))
        law("mul-one", mul(one, a) == a and mul(a, one) == a, (a,))
        law("mul-zero-absorbs", mul(zero, a) == zero and mul(a, zero) == zero, (a,))
        if instance.idempotent_add:
            law("add-idempotent", add(a, a) == a, (a,))
    for a, b in itertools.product(grid, repeat=2):
        law("add-commutes", add(a, b) == add(b, a), (a, b))
    for a, b, c in itertools.product(grid, repeat=3):
        law("add-assoc", add(add(a, b), c) == add(a, add(b, c)), (a, b, c))
        law("mul-assoc", mul(mul(a, b), c) == mul(a, mul(b, c)), (a, b, c))
        law("left-dist", mul(a, add(b, c)) == add(mul(a, b), mul(a, c)), (a, b, c))
        law("right-dist", mul(add(a, b), c) == add(mul(a, c), mul(b, c)), (a, b, c))
    report.elapsed = time.perf_counter() - t0
    return report


def check_mv_gate_laws(grid, size: int = 2) -> CheckReport:
    """Closure, identity/zero behaviour, the J involution and distributivity."""
    t0 = time.perf_counter()
    L, levels = _scale_grid(grid)
    report = CheckReport(f"mv-gate-laws-{size}", 0)
    if size == 2:
        gates = _gates2(levels, L)
        n_g = len(gates)
        ident = (0, L, L, 0)
        zero = (L, L, L, L)
        jmat = (L, 0, 0, L)
        index = {g: i for i, g in enumerate(gates)}
        prods = [[_mm(a, b, 2, L) for b in gates] for a in gates]
        report.cases += n_g * n_g
        for i in range(n_g):
            for j in range(n_g):
                if not _is_gate(prods[i][j], 2, L):
                    report.failures.append(("closure", gates[i], gates[j], prods[i][j]))
        ii, zi, ji = index[ident], index[zero], index[jmat]
        report.cases += 1
        if prods[ji][ji] != ident:
            report.failures.append(("involution", jmat, prods[ji][ji]))
        for i, g in enumerate(gates):
            report.cases += 2
            if prods[ii][i] != g or prods[i][ii] != g:
                report.failures.append(("identity", g))
            if prods[zi][i] != zero or prods[i][zi] != zero:
                report.failures.append(("zero-absorbs", g))
        # The meet of two grid gates is again a grid gate, so products with it
        # are table lookups.  A meet outside the grid is a failure; it has no
        # index, and the cases that need it are computed directly.
        meet = [[index.get(_wedge(b, c)) for c in gates] for b in gates]
        report.failures += [("meet-closure", b, c, _wedge(b, c))
                            for b, row in zip(gates, meet)
                            for c, m in zip(gates, row) if m is None]

        def distributivity(i, j):
            a, prow = gates[i], prods[i]
            pij = prow[j]
            pji = prods[j][i]
            meets_j = meet[j]
            for k in range(n_g):
                m = meets_j[k]
                if m is None:
                    bc = _wedge(gates[j], gates[k])
                    left, right = _mm(a, bc, 2, L), _mm(bc, a, 2, L)
                else:
                    left, right = prow[m], prods[m][i]
                if left != _wedge(pij, prow[k]):
                    report.failures.append(("left-dist", gates[i], gates[j], gates[k]))
                if right != _wedge(pji, prods[k][i]):
                    report.failures.append(("right-dist", gates[i], gates[j], gates[k]))

        # For fixed (A, B) = (i, j), the left-dist cases A(B ^ C) = AB ^ AC over
        # every C are one comparison of id rows: row i of the product ids read at
        # B's meets, against the meet table's row for AB read at row i.
        # Right-dist reads column i.  A pair whose rows differ is rechecked case
        # by case, so failures keep their form and order.
        ids: dict = {}
        prod_id = [_intern(row, ids) for row in prods]
        values = list(ids)
        wedge_id = _table(_wedge, values, values, ids)
        prod_col = list(zip(*prod_id))
        at_meet = [None if None in m else itemgetter(*m) for m in meet]
        for i in range(n_g):
            row, col = prod_id[i], prod_col[i]
            at_row, at_col = itemgetter(*row), itemgetter(*col)
            for j in range(n_g):
                report.cases += 2 * n_g
                if (at_meet[j] is None
                        or at_meet[j](row) != at_row(wedge_id[row[j]])
                        or at_meet[j](col) != at_col(wedge_id[col[j]])):
                    distributivity(i, j)
        report.note = "exhaustive"
    elif size == 4:
        base = _gates2(levels, L)
        gates = [_kron_m(a, b, 2, 2, L) for a in base for b in base]
        n_g = len(gates)
        ident = _kron_m((0, L, L, 0), (0, L, L, 0), 2, 2, L)
        zero = (L,) * 16
        jmat = _kron_m((L, 0, 0, L), (L, 0, 0, L), 2, 2, L)
        jj = _mm(jmat, jmat, 4, L)
        report.cases += 1
        if jj != ident:
            report.failures.append(("involution", jmat, jj))
        for g in gates:
            report.cases += 2
            if _mm(ident, g, 4, L) != g or _mm(g, ident, 4, L) != g:
                report.failures.append(("identity", g))
            if _mm(zero, g, 4, L) != zero or _mm(g, zero, 4, L) != zero:
                report.failures.append(("zero-absorbs", g))
        pair_cap, triple_cap = 100000, 20000
        for i, j in itertools.islice(itertools.product(range(n_g), repeat=2), pair_cap):
            report.cases += 1
            p = _mm(gates[i], gates[j], 4, L)
            if not _is_gate(p, 4, L):
                report.failures.append(("closure", gates[i], gates[j], p))
        ij = None
        for i, j, k in itertools.islice(itertools.product(range(n_g), repeat=3),
                                        triple_cap):
            a, b, c = gates[i], gates[j], gates[k]
            if (i, j) != ij:  # ab and ba stay fixed while k runs
                ij, ab, ba = (i, j), _mm(a, b, 4, L), _mm(b, a, 4, L)
            bc = _wedge(b, c)
            report.cases += 2
            if _mm(a, bc, 4, L) != _wedge(ab, _mm(a, c, 4, L)):
                report.failures.append(("left-dist", a, b, c))
            if _mm(bc, a, 4, L) != _wedge(ba, _mm(c, a, 4, L)):
                report.failures.append(("right-dist", a, b, c))
        report.note = (f"Kronecker-built gates; first {pair_cap} pairs and "
                       f"{triple_cap} triples in lexicographic order")
    else:
        raise ValueError("size must be 2 or 4")
    report.elapsed = time.perf_counter() - t0
    return report


def check_action_laws(grid, size: int = 2) -> CheckReport:
    """State closure, linearity over the meet, and action/product compatibility."""
    t0 = time.perf_counter()
    L, levels = _scale_grid(grid)
    report = CheckReport(f"action-laws-{size}", 0)
    if size == 2:
        if len(levels) > 2:
            # documented counterexample: the complement is NOT an operation on
            # the state set; (0, interior) maps to a vector with nonzero minimum
            interior = levels[1]
            comp = (L - 0, L - interior)
            report.cases += 1
            if _is_state(comp, L):
                report.failures.append(
                    ("complement-unexpectedly-closed", (0, interior), comp))
        _action_laws_exhaustive(report, _gates2(levels, L), _states2(levels, L), L)
        report.note = "exhaustive"
    elif size == 4:
        base_g = _gates2(levels, L)
        base_s = _states2(levels, L)
        gates = [_kron_m(a, b, 2, 2, L) for a in base_g for b in base_g]
        states = [_kron_v(u, v, L) for u in base_s for v in base_s]
        cap = 100000
        _action_laws_sampled(report, gates, states, L, cap)
        report.note = f"Kronecker-built; first {cap} law instances in lexicographic order"
    else:
        raise ValueError("size must be 2 or 4")
    report.elapsed = time.perf_counter() - t0
    return report


def _action_laws_exhaustive(report: CheckReport, gates, states, L) -> None:
    """Every instance of the three laws on 2x2 gates, over interned tables."""
    def act(g, v):
        return _mv(g, v, 2, L)

    vids: dict = {}
    image_id = _table(act, gates, states, vids)
    vectors = list(vids)
    for gi, row in enumerate(image_id):
        for si, v in enumerate(row):
            report.cases += 1
            if not _is_state(vectors[v], L):
                report.failures.append(("state-closure", gates[gi], states[si], vectors[v]))

    # A(s ^ t) = As ^ At, with A(s ^ t) computed once per (gate, distinct meet)
    meet_id = _table(_wedge, states, states, vids)
    act_id = _table(act, gates, list(vids), vids)
    vectors = list(vids)
    for gi, row in enumerate(image_id):
        act_g = act_id[gi]
        for si, meets_s in enumerate(meet_id):
            a_s = vectors[row[si]]
            for ti, m in enumerate(meets_s):
                report.cases += 1
                if vectors[act_g[m]] != _wedge(a_s, vectors[row[ti]]):
                    report.failures.append(("linearity", gates[gi], states[si], states[ti]))

    # (AB)s = A(Bs) over all s at once: AB's row of images against A's row read
    # at the ids of B's images.  A row that differs is rechecked case by case.
    mids: dict = {}
    prod_id = _table(lambda a, b: _mm(a, b, 2, L), gates, gates, mids)
    prod_image_id = _table(act, list(mids), states, vids)
    for ai, a in enumerate(gates):
        act_a = act_id[ai]
        for bi, b in enumerate(gates):
            report.cases += len(states)
            if prod_image_id[prod_id[ai][bi]] != [act_a[v] for v in image_id[bi]]:
                ab = _mm(a, b, 2, L)
                for si, s in enumerate(states):
                    if _mv(ab, s, 2, L) != _mv(a, vectors[image_id[bi][si]], 2, L):
                        report.failures.append(("compatibility", a, b, s))


def _action_laws_sampled(report: CheckReport, gates, states, L, cap: int) -> None:
    """The first `cap` instances of each law on 4x4 gates, in lexicographic order."""
    n_s = len(states)
    # the closure loop runs the pairs in order, so the image of (gi, si) sits at
    # gi * n_s + si; a list holds the 10^5 images in 10 MB less than a dict on pairs
    images: list[tuple] = []

    def image(gi: int, si: int) -> tuple:
        k = gi * n_s + si
        return images[k] if k < len(images) else _mv(gates[gi], states[si], 4, L)

    # each islice drops its product, and the product's tuples of indices, when done
    pairs = itertools.islice(itertools.product(range(len(gates)), range(n_s)), cap)
    for gi, si in pairs:
        images.append(_mv(gates[gi], states[si], 4, L))
        report.cases += 1
        if not _is_state(images[-1], L):
            report.failures.append(("state-closure", gates[gi], states[si], images[-1]))

    lin = itertools.islice(
        itertools.product(range(len(gates)), range(n_s), range(n_s)), cap)
    for gi, si, ti in lin:
        report.cases += 1
        meet = _wedge(states[si], states[ti])
        left = _mv(gates[gi], meet, 4, L)
        if left != _wedge(image(gi, si), image(gi, ti)):
            report.failures.append(("linearity", gates[gi], states[si], states[ti]))

    comp = itertools.islice(
        itertools.product(range(len(gates)), range(len(gates)), range(n_s)), cap)
    ab_index = None
    for ai, bi, si in comp:
        report.cases += 1
        if (ai, bi) != ab_index:  # the product stays fixed while si runs
            ab_index, ab = (ai, bi), _mm(gates[ai], gates[bi], 4, L)
        left = _mv(ab, states[si], 4, L)
        if left != _mv(gates[ai], image(bi, si), 4, L):
            report.failures.append(("compatibility", gates[ai], gates[bi], states[si]))


def check_tensor_laws(grid) -> CheckReport:
    """Kronecker closure, basis enumeration, symmetry, associativity, mixed product."""
    t0 = time.perf_counter()
    L, levels = _scale_grid(grid)
    report = CheckReport("tensor-laws", 0)
    states = _states2(levels, L)
    gates = _gates2(levels, L)

    ket0, ket1 = (0, L), (L, 0)
    expected = {
        (0, 0): (0, L, L, L),
        (0, 1): (L, 0, L, L),
        (1, 0): (L, L, 0, L),
        (1, 1): (L, L, L, 0),
    }
    for (b1, b2), want in expected.items():
        report.cases += 1
        got = _kron_v(ket1 if b1 else ket0, ket1 if b2 else ket0, L)
        if got != want:
            report.failures.append(("basis-ket", (b1, b2), got, want))
    # generic basis enumeration: e_i (x) e_j = e_{2i+j}
    basis = [tuple(0 if k == i else L for k in range(2)) for i in range(2)]
    for i, j in itertools.product(range(2), repeat=2):
        report.cases += 1
        got = _kron_v(basis[i], basis[j], L)
        want = tuple(0 if k == 2 * i + j else L for k in range(4))
        if got != want:
            report.failures.append(("basis-enumeration", i, j, got))

    products: dict[tuple[int, int], tuple] = {}
    for i, u in enumerate(states):
        for j, v in enumerate(states):
            w = _kron_v(u, v, L)
            products[(i, j)] = w
            report.cases += 2
            if len(w) != len(u) * len(v):
                report.failures.append(("dimension", u, v))
            if not _is_state(w, L):
                report.failures.append(("state-closure", u, v, w))
    for i in range(len(states)):
        for j in range(len(states)):
            report.cases += 1
            uv, vu = products[(i, j)], products[(j, i)]
            # entry (a, b) of u(x)v is entry (b, a) of v(x)u
            if any(uv[2 * a + b] != vu[2 * b + a] for a in range(2) for b in range(2)):
                report.failures.append(("symmetry", states[i], states[j]))
    for u, v, w in itertools.product(states, repeat=3):
        report.cases += 1
        if _kron_v(_kron_v(u, v, L), w, L) != _kron_v(u, _kron_v(v, w, L), L):
            report.failures.append(("associativity", u, v, w))

    quad_cap = 20000
    ab_index = None
    for ai, bi, ci, di in itertools.islice(
            itertools.product(range(len(gates)), repeat=4), quad_cap):
        a, b, c, d = gates[ai], gates[bi], gates[ci], gates[di]
        report.cases += 1
        if (ai, bi) != ab_index:  # a (x) b stays fixed while (c, d) run
            ab_index, ab = (ai, bi), _kron_m(a, b, 2, 2, L)
        left = _mm(ab, _kron_m(c, d, 2, 2, L), 4, L)
        right = _kron_m(_mm(a, c, 2, L), _mm(b, d, 2, L), 2, 2, L)
        if left != right:
            report.failures.append(("mixed-product", a, b, c, d))
    for i, a in enumerate(gates):
        for b in gates[i:i + 8]:  # gate Kronecker closure, strided sample
            report.cases += 1
            if not _is_gate(_kron_m(a, b, 2, 2, L), 4, L):
                report.failures.append(("gate-closure", a, b))
    report.note = f"mixed product: first {quad_cap} quadruples in lexicographic order"
    report.elapsed = time.perf_counter() - t0
    return report


def _det2(m) -> Fraction:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def check_stochastic_semigroup(grid) -> CheckReport:
    """Product closure of column-stochastic grid matrices, plus inverse exhibits."""
    t0 = time.perf_counter()
    report = CheckReport("stochastic-semigroup", 0)
    grid_set = {Fraction(g) for g in grid}
    columns = [(x, 1 - x) for x in sorted(grid_set) if (1 - x) in grid_set]
    mats = [((c0[0], c1[0]), (c0[1], c1[1])) for c0 in columns for c1 in columns]
    for m, n in itertools.product(mats, repeat=2):
        report.cases += 1
        prod = tuple(tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2))
                     for i in range(2))
        ok = all(0 <= prod[i][j] <= 1 for i in range(2) for j in range(2)) and all(
            prod[0][j] + prod[1][j] == 1 for j in range(2))
        if not ok:
            report.failures.append(("closure", m, n, prod))

    # the uniform matrix is singular: no inverse at all
    half = Fraction(1, 2)
    uniform = ((half, half), (half, half))
    report.cases += 1
    if _det2(uniform) != 0:
        report.failures.append(("singular-exhibit", uniform))

    # an invertible stochastic matrix whose inverse leaves the family
    m = ((Fraction(9, 10), Fraction(2, 10)), (Fraction(1, 10), Fraction(8, 10)))
    det = _det2(m)
    inv = ((m[1][1] / det, -m[0][1] / det), (-m[1][0] / det, m[0][0] / det))
    prod = tuple(tuple(sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))
    report.cases += 2
    if prod != ((1, 0), (0, 1)):
        report.failures.append(("inverse-arithmetic", m, inv, prod))
    if all(0 <= inv[i][j] <= 1 for i in range(2) for j in range(2)):
        report.failures.append(("inverse-unexpectedly-stochastic", m, inv))
    report.elapsed = time.perf_counter() - t0
    return report


def check_oracle_agreement(grid, limit: int = 10000) -> CheckReport:
    """Entrywise kernels versus the generic linear algebra, bit for bit.

    Each (A, B, v) triple compares mat_mul(A, B) and kron_mat(A, B) with the
    kernels, and mat_vec(A, v), kron_vec(v, Av) and simulate's kernel
    mat_vec_block(A, base, v (x) Av) at base 0 and 1, which must equal the
    products with I (x) A and A (x) I.  The triples repeat their operand
    pairs, so each comparison runs once per distinct (A, B) or (A, v).
    """
    t0 = time.perf_counter()
    L, levels = _scale_grid(grid)
    report = CheckReport("oracle-agreement", 0,
                         note=f"first {limit} (A, B, v) triples in lexicographic order")
    gates = _gates2(levels, L)
    states = _states2(levels, L)
    ident = (0, L, L, 0)

    as_matrix: dict[int, SMatrix] = {}
    as_vec: dict[int, SVector] = {}

    def matrix_of(i: int) -> SMatrix:
        if i not in as_matrix:
            g = gates[i]
            as_matrix[i] = SMatrix(FUZZ_MV, ((UnitScalar(g[0], L), UnitScalar(g[1], L)),
                                             (UnitScalar(g[2], L), UnitScalar(g[3], L))))
        return as_matrix[i]

    def vector_of(i: int) -> SVector:
        if i not in as_vec:
            s = states[i]
            as_vec[i] = SVector(FUZZ_MV, (UnitScalar(s[0], L), UnitScalar(s[1], L)))
        return as_vec[i]

    def agrees(oracle, entries) -> bool:
        return len(oracle) == len(entries) and all(
            Fraction(o, L) == x for o, x in zip(oracle, entries))

    def flat(m: SMatrix) -> tuple:
        return tuple(x for row in m.entries for x in row)

    def pair_agrees(ai: int, bi: int) -> bool:
        a, b = matrix_of(ai), matrix_of(bi)
        return (agrees(_mm(gates[ai], gates[bi], 2, L), flat(mat_mul(a, b)))
                and agrees(_kron_m(gates[ai], gates[bi], 2, 2, L), flat(kron_mat(a, b))))

    def vector_agrees(ai: int, si: int) -> bool:
        av = _mv(gates[ai], states[si], 2, L)
        lib_av = mat_vec(matrix_of(ai), vector_of(si))
        if not agrees(av, lib_av.entries):
            return False
        x = _kron_v(states[si], av, L)
        lib_x = kron_vec(vector_of(si), lib_av)
        if not agrees(x, lib_x.entries):
            return False
        padded = (_kron_m(ident, gates[ai], 2, 2, L), _kron_m(gates[ai], ident, 2, 2, L))
        return all(agrees(_mv(op, x, 4, L), mat_vec_block(matrix_of(ai), base, lib_x).entries)
                   for base, op in enumerate(padded))

    pair_ok: dict[tuple[int, int], bool] = {}
    vector_ok: dict[tuple[int, int], bool] = {}
    triples = itertools.product(range(len(gates)), range(len(gates)),
                                range(len(states)))
    for ai, bi, si in itertools.islice(triples, limit):
        report.cases += 1
        if (ai, bi) not in pair_ok:
            pair_ok[ai, bi] = pair_agrees(ai, bi)
        if (ai, si) not in vector_ok:
            vector_ok[ai, si] = vector_agrees(ai, si)
        if not (pair_ok[ai, bi] and vector_ok[ai, si]):
            report.failures.append(("agreement", gates[ai], gates[bi], states[si]))
    report.elapsed = time.perf_counter() - t0
    return report


def run_all(grid_name: str = "standard") -> list[CheckReport]:
    """Every check on the named grid, in a stable order."""
    grid = grid_values(grid_name)
    bool_grid = (UnitScalar(0), UnitScalar(1))
    return [
        check_semiring_axioms(FUZZ_MV, grid),
        check_semiring_axioms(MAX_MIN, grid),
        check_semiring_axioms(VITERBI, grid),
        check_semiring_axioms(BOOLEAN, bool_grid),
        check_mv_gate_laws(grid, 2),
        check_mv_gate_laws(grid, 4),
        check_action_laws(grid, 2),
        check_action_laws(grid, 4),
        check_tensor_laws(grid),
        check_stochastic_semigroup(grid),
        check_oracle_agreement(grid),
    ]
