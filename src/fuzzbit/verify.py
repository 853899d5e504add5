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

The checks run over interned tables.  Size-2 checks give each distinct 2x2
gate or 2-vector an int id and build product, meet and action tables on the
ids.  Size-4 checks work on columns and rows: column j of AB is A applied to
column j of B, row i of AB is row i of A times B, and entry i of As is row i
of A against s.  Each distinct column, row and state gets an id, a gate is
the ids of its columns and rows, and an action table comes from one kernel
call per four vectors packed into a matrix; `tensor-laws` compares its mixed
products column by column the same way.  Every case is still counted and
decided by an exact comparison of ids; a case that differs is rechecked with
direct kernel calls, so the failures are those of a per-case loop, in order.
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
    GRID_NAMES,
    MAX_MIN,
    VITERBI,
    SemiringInstance,
    UnitScalar,
    grid_values,
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


# --- size-4 column and row tables -----------------------------------------------
#
# The size-4 checks sample Kronecker-built gates, which share few distinct
# columns and rows: 170 and 834 among the 28,900 gates of the standard grid.
# Products and the action work column by column and row by row (see the
# module docstring), so a table on those ids takes the place of a kernel call
# per case.

def _blocks(vectors):
    """`vectors` four at a time, each block padded to four with its first vector."""
    for k in range(0, len(vectors), 4):
        block = vectors[k:k + 4]
        yield len(block), block + block[:1] * (4 - len(block))


def _left_images(a, columns, L) -> list[tuple]:
    """a applied to each 4-vector of `columns`: one `_mm(a, packed)` per four."""
    out = []
    for n, block in _blocks(columns):
        p = _mm(a, tuple(itertools.chain(*zip(*block))), 4, L)
        out += [p[j::4] for j in range(n)]
    return out


def _right_images(a, rows, L) -> list[tuple]:
    """Each 4-vector of `rows` times a: one `_mm(packed, a)` per four."""
    out = []
    for n, block in _blocks(rows):
        p = _mm(tuple(itertools.chain(*block)), a, 4, L)
        out += [p[i:i + 4] for i in range(0, 4 * n, 4)]
    return out


def _dot_table(rows, vectors, L) -> list[tuple]:
    """table[q][v] is row q against vector v, as `_mv` reduces it: one
    `_mv(packed, v)` per vector for each four rows."""
    table = []
    for n, block in _blocks(rows):
        packed = tuple(itertools.chain(*block))
        table += list(zip(*(_mv(packed, v, 4, L) for v in vectors)))[:n]
    return table


def _lex_rows(outer, inner: int, cap: int):
    """The first `cap` tuples of the product of `outer` ranges and range(`inner`)
    in lexicographic order, a row at a time: (prefix, count) stands for the
    tuples prefix + (k,) with k < count."""
    for prefix in itertools.product(*map(range, outer)):
        if cap <= 0:
            return
        yield prefix, min(inner, cap)
        cap -= inner


class _KronGates:
    """The gates a (x) b for a, b in a size-2 base, in lexicographic order.

    Gate k is built by `_kron_m` when it is indexed.  Column (j, l) of a (x) b
    is column j of a (x) column l of b, and row (i, k) is row i of a (x) row k
    of b, so `columns[k]` and `rows[k]`, the ids in `col_ids` and `row_ids` of
    gate k's columns and rows, come from Kronecker tables on the base's
    columns and rows.  A check may add the vectors it derives to the two id
    dicts.
    """

    def __init__(self, base, L):
        self.base, self.L = base, L
        self.col_ids: dict = {}
        self.row_ids: dict = {}
        self.columns = self._ids([(g[0::2], g[1::2]) for g in base], self.col_ids)
        self.rows = self._ids([(g[0:2], g[2:4]) for g in base], self.row_ids)

    def _ids(self, pairs, ids) -> list[tuple]:
        """Per gate a (x) b, the ids in `ids` of u (x) v for u in a's pair of
        2-vectors and v in b's, `pairs` holding each base gate's pair."""
        factor: dict = {}
        pair_ids = [_intern(p, factor) for p in pairs]
        values = list(factor)
        table = _table(lambda u, v: _kron_v(u, v, self.L), values, values, ids)
        return [(table[x0][y0], table[x0][y1], table[x1][y0], table[x1][y1])
                for x0, x1 in pair_ids for y0, y1 in pair_ids]

    def __len__(self) -> int:
        return len(self.base) ** 2

    def __getitem__(self, k: int) -> tuple:
        a, b = divmod(k, len(self.base))
        return _kron_m(self.base[a], self.base[b], 2, 2, self.L)


def _kron4(levels, L):
    """The size-4 gates and states: Kronecker products of the size-2 grid
    gates and of the size-2 grid states, in lexicographic order."""
    base_s = _states2(levels, L)
    return _KronGates(_gates2(levels, L), L), [_kron_v(u, v, L) for u in base_s for v in base_s]


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
        gates, _ = _kron4(levels, L)
        pair_cap, triple_cap = 100000, 20000
        _mv_gate_laws_sampled(report, gates, L, pair_cap, triple_cap)
        report.note = (f"Kronecker-built gates; first {pair_cap} pairs and "
                       f"{triple_cap} triples in lexicographic order")
    else:
        raise ValueError("size must be 2 or 4")
    report.elapsed = time.perf_counter() - t0
    return report


def _mv_gate_laws_sampled(report: CheckReport, gates, L, pair_cap: int,
                          triple_cap: int) -> None:
    """The size-4 gate laws: the involution, identity and zero on every gate,
    closure on the first `pair_cap` pairs and distributivity on the first
    `triple_cap` triples, in lexicographic order.

    Each law is decided on column and row ids; a case whose ids differ is
    rechecked with direct products, so failures keep their form and order.
    """
    n_g = len(gates)
    ident = _kron_m((0, L, L, 0), (0, L, L, 0), 2, 2, L)
    zero = (L,) * 16
    line = (L,) * 4
    jmat = _kron_m((L, 0, 0, L), (L, 0, 0, L), 2, 2, L)
    jj = _mm(jmat, jmat, 4, L)
    report.cases += 1
    if jj != ident:
        report.failures.append(("involution", jmat, jj))

    def identity_and_zero(g):
        if _mm(ident, g, 4, L) != g or _mm(g, ident, 4, L) != g:
            report.failures.append(("identity", g))
        if _mm(zero, g, 4, L) != zero or _mm(g, zero, 4, L) != zero:
            report.failures.append(("zero-absorbs", g))

    def distributivity(a, b, c):
        bc = _wedge(b, c)
        if _mm(a, bc, 4, L) != _wedge(_mm(a, b, 4, L), _mm(a, c, 4, L)):
            report.failures.append(("left-dist", a, b, c))
        if _mm(bc, a, 4, L) != _wedge(_mm(b, a, 4, L), _mm(c, a, 4, L)):
            report.failures.append(("right-dist", a, b, c))

    # ident and zero fix or absorb a gate exactly when they fix or absorb
    # each of its columns (on the left) and each of its rows (on the right);
    # only a gate with a column or row that they do not is rechecked
    cols, rows = list(gates.col_ids), list(gates.row_ids)
    bad_cols = {c for c, (v, iv, zv) in enumerate(zip(
        cols, _left_images(ident, cols, L), _left_images(zero, cols, L)))
        if iv != v or zv != line}
    bad_rows = {r for r, (v, iv, zv) in enumerate(zip(
        rows, _right_images(ident, rows, L), _right_images(zero, rows, L)))
        if iv != v or zv != line}
    report.cases += 2 * n_g
    if bad_cols or bad_rows:
        for k in range(n_g):
            if not (bad_cols.isdisjoint(gates.columns[k])
                    and bad_rows.isdisjoint(gates.rows[k])):
                identity_and_zero(gates[k])

    # flags[c] has bit 1 when A maps column c to a column of minimum 0, and
    # bit 2 when to all L: AB is a gate when B's four columns share a bit
    for (i,), count in _lex_rows((n_g,), n_g, pair_cap):
        a = gates[i]
        flags = [(min(v) == 0) | 2 * (v == line) for v in _left_images(a, cols, L)]
        report.cases += count
        for j, (c0, c1, c2, c3) in zip(range(count), gates.columns):
            if not flags[c0] & flags[c1] & flags[c2] & flags[c3]:
                b = gates[j]
                p = _mm(a, b, 4, L)
                if not _is_gate(p, 4, L):
                    report.failures.append(("closure", a, b, p))

    def meet_tables(a, b_ids, ids, images, act):
        """Id rows, for fixed A and B: each of B's vectors met with every
        vector, and A's image of it met with every vector.  `images`, A's
        image of each id, is extended to the meets."""
        values = list(ids)
        meet_b = _table(_wedge, [values[x] for x in b_ids], values, ids)
        images += _intern(act(a, list(ids)[len(images):], L), ids)
        values = list(ids)
        meet_ab = _table(_wedge, [values[images[x]] for x in b_ids], values, ids)
        return meet_b, meet_ab

    # Column q of A(B ^ C) is A applied to column q of B met with column q
    # of C, and column q of AB ^ AC is the meet of their images; rows decide
    # (B ^ C)A = BA ^ CA the same way.
    a_index = None
    for (i, j), count in _lex_rows((n_g, n_g), n_g, triple_cap):
        a, b = gates[i], gates[j]
        if i != a_index:
            a_index, col_img, row_img = i, [], []
        cm, ca = meet_tables(a, gates.columns[j], gates.col_ids, col_img, _left_images)
        rm, ra = meet_tables(a, gates.rows[j], gates.row_ids, row_img, _right_images)
        report.cases += 2 * count
        for k, cs, rs in zip(range(count), gates.columns, gates.rows):
            if ([col_img[m[c]] for m, c in zip(cm, cs)]
                    != [t[col_img[c]] for t, c in zip(ca, cs)]
                    or [row_img[m[r]] for m, r in zip(rm, rs)]
                    != [t[row_img[r]] for t, r in zip(ra, rs)]):
                distributivity(a, b, gates[k])


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
        gates, states = _kron4(levels, L)
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
    """The first `cap` instances of each law on 4x4 gates, in lexicographic order.

    Entry i of As is row i of A against s.  The gates these instances reach
    share few rows (143 among the first 511 on the standard grid), so images
    are read from a table of rows against states, not stored per pair.  A
    row of cases that differs is rechecked case by case with direct kernel
    calls, so failures keep their form and order.
    """
    n_g, n_s = len(gates), len(states)
    vids: dict = {}
    sid = _intern(states, vids)
    at_states = itemgetter(*sid)
    distinct_states = list(vids)
    dots: dict = {}  # row id -> that row against each distinct state

    def add_dots(row_ids):
        new = [r for r in dict.fromkeys(row_ids) if r not in dots]
        if new:
            rows = list(gates.row_ids)
            dots.update(zip(new, _dot_table([rows[r] for r in new], distinct_states, L)))

    def images(gi):
        """As for each state s, in order."""
        return zip(*(at_states(dots[r]) for r in gates.rows[gi]))

    # the linearity and compatibility instances reach no gate past these
    add_dots([r for gi in range(min(n_g, -(-cap // n_s))) for r in gates.rows[gi]])
    for (gi,), count in _lex_rows((n_g,), n_s, cap):
        report.cases += count
        for si, image in zip(range(count), images(gi)):
            if not _is_state(image, L):
                report.failures.append(("state-closure", gates[gi], states[si], image))

    # A(s ^ t) = As ^ At over a row of states t at once, with A's image of
    # each distinct state and meet, and the meets of A's images of states.
    # The states come first in `vectors`, so their images take the first ids.
    meet_id = _table(_wedge, distinct_states, distinct_states, vids)
    vectors = list(vids)
    a_index = None
    for (gi, si), count in _lex_rows((n_g, n_s), n_s, cap):
        if gi != a_index:
            a_index, a, image_ids = gi, gates[gi], {}
            a_image = _intern([_mv(a, v, 4, L) for v in vectors], image_ids)
            a_states = at_states(a_image)
            state_images = list(image_ids)[:max(a_states) + 1]
            image_meet = _table(_wedge, state_images, state_images, image_ids)
        report.cases += count
        meets, x = meet_id[sid[si]], image_meet[a_states[si]]
        if [a_image[meets[t]] for t in sid[:count]] != [x[y] for y in a_states[:count]]:
            s = states[si]
            for t in states[:count]:
                if _mv(a, _wedge(s, t), 4, L) != _wedge(_mv(a, s, 4, L), _mv(a, t, 4, L)):
                    report.failures.append(("linearity", a, s, t))

    # (AB)s = A(Bs) over a row of states at once: the rows of AB against the
    # states, and A's image of each distinct Bs
    image_ids: dict = {}
    a_index = None
    for (ai, bi), count in _lex_rows((n_g, n_g), n_s, cap):
        if ai != a_index:
            a_index, a, a_image = ai, gates[ai], []
        b_image = _intern(itertools.islice(images(bi), count), image_ids)
        a_image += [_mv(a, v, 4, L) for v in itertools.islice(image_ids, len(a_image), None)]
        b = gates[bi]
        ab = _mm(a, b, 4, L)
        ab_rows = _intern([ab[i:i + 4] for i in range(0, 16, 4)], gates.row_ids)
        add_dots(ab_rows)
        report.cases += count
        if (list(itertools.islice(zip(*(at_states(dots[r]) for r in ab_rows)), count))
                != [a_image[v] for v in b_image]):
            for s in states[:count]:
                if _mv(ab, s, 4, L) != _mv(a, _mv(b, s, 4, L), 4, L):
                    report.failures.append(("compatibility", a, b, s))


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

    # Mixed product (a (x) b)(c (x) d) = ac (x) bd, compared column by column:
    # column (j, l) of the left side is a (x) b applied to column (j, l) of
    # c (x) d, and of the right side column j of ac (x) column l of bd.  A row
    # of d whose column ids differ is rechecked with direct kernel calls.
    quad_cap = 20000
    n_gates = len(gates)
    kron = _KronGates(gates, L)  # c (x) d is kron gate ci * n_gates + di
    targets = list(kron.col_ids)  # every column of every c (x) d
    images: dict = {}  # (ai, bi) -> the id of each target's image under a (x) b
    gate_products: dict = {}  # (i, j) -> the two columns of gates[i] gates[j]
    kron_ids: dict = {}  # (u, v) -> the id of u (x) v

    def columns(i: int, j: int) -> tuple:
        if (i, j) not in gate_products:
            p = _mm(gates[i], gates[j], 2, L)
            gate_products[i, j] = p[0::2], p[1::2]
        return gate_products[i, j]

    def kron_id(u, v) -> int:
        if (u, v) not in kron_ids:
            kron_ids[u, v] = _intern([_kron_v(u, v, L)], kron.col_ids)[0]
        return kron_ids[u, v]

    for (ai, bi, ci), count in _lex_rows((n_gates,) * 3, n_gates, quad_cap):
        report.cases += count
        if (ai, bi) not in images:
            ab = _kron_m(gates[ai], gates[bi], 2, 2, L)
            images[ai, bi] = _intern(_left_images(ab, targets, L), kron.col_ids)
        image = images[ai, bi].__getitem__
        first = ci * n_gates
        left = [tuple(map(image, ids)) for ids in kron.columns[first:first + count]]
        u0, u1 = columns(ai, ci)
        right = [(kron_id(u0, v0), kron_id(u0, v1), kron_id(u1, v0), kron_id(u1, v1))
                 for v0, v1 in (columns(bi, di) for di in range(count))]
        if left != right:
            a, b, c = gates[ai], gates[bi], gates[ci]
            ab = _kron_m(a, b, 2, 2, L)
            for d in gates[:count]:
                product = _mm(ab, _kron_m(c, d, 2, 2, L), 4, L)
                if product != _kron_m(_mm(a, c, 2, L), _mm(b, d, 2, L), 2, 2, L):
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
