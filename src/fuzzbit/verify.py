"""Brute-force law checking on rational grids.

The semiring axioms are checked on each carrier's `scaled` rule, through
`linalg.mat_vec`, the route every kernel runs; values and results are (n, d)
pairs in lowest terms.  The other checks re-derive matrix entries from the
scalar definitions (min / truncated sum) instead of calling the generic
linear algebra; an explicit agreement check compares the two routes bit
for bit.  Their grid values are mapped to integers over the grid's common
denominator: min, max and the truncated sum of multiples of 1/L stay
multiples of 1/L, so integer arithmetic is exact.  `stochastic-semigroup`
multiplies the same numerators, and the ordinary product of two matrices
over L is a matrix over L * L.

Exhaustion caps follow the harness contract: size-2 enumerations are
exhaustive; size-4 objects are built as Kronecker products of size-2 grid
objects and law instances are sampled in lexicographic order, which every
report states in its note.  Both sizes run the same code: an exhaustive
check is the lexicographic walk with caps of at least its case count.
`run_all` passes one read-only `_Grid` to every check, which builds the
grid's scale and its size-2 and size-4 families once, on first read; a
check interns what it derives in its own copy of a family's id table.

The gate and action checks work on columns and rows: column j of AB is A
applied to column j of B, row i of AB is row i of A times B, and entry i of
As is row i of A against s.  Each distinct column, row and state gets an id
and a gate is the ids of its columns and rows.  The kernels take operands of
any shape, so a table of images is one `_mm` call, on the vectors side by
side or stacked, and a table of rows against states one `_mv` call per
state, which the action checks take once and read wherever a state meets a
row.  A law of the form f_A(x ^ y) = f_A(x) ^ f_A(y) (distributivity by
columns and by rows, linearity by states) holds on a case when it holds on
the pair of ids in each slot.  Entry (i, j) of a kernel product depends only
on row i of its left operand and column j of its right one, and `_wedge` is
entrywise, so one row or column of A decides an entry of each side: entry i
of Ax is row i of A against x, and entry j of xA is x against column j of A.
The law then holds for A on a pair when it holds at each of A's rows (or
columns), and one table of the distinct rows or columns of the gates the
cap reaches, against every vector and meet, decides each pair once per such
part, not once per A or per case; A's bad pairs are those of its parts.
The meet of two gates is met column by column too, so one table of the
meets of the distinct columns decides whether each pair's meet is a gate.
`tensor-laws` compares its mixed products column by column.  Every case is
still counted; a case that meets a bad pair or differing ids is rechecked
with direct kernel calls, so the failures are those of a per-case loop, in
order.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add as _int_add
from operator import itemgetter, ne

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

def _mm(a, b, n, L):
    """An m x n `a` times an n x p `b`, m and p read off their lengths:
    out[i,j] = min over k of (a[i,k] + b[k,j]), capped at L."""
    p = len(b) // n
    cols = [b[j::p] for j in range(p)]
    out = []
    for i in range(0, len(a), n):
        row = a[i:i + n]
        for col in cols:
            best = min(map(_int_add, row, col))
            out.append(best if best < L else L)
    return tuple(out)


def _mv(a, v, n, L):
    """Each n-entry row of an m x n `a` against `v`, capped at L."""
    out = []
    for i in range(0, len(a), n):
        r = min(map(_int_add, a[i:i + n], v))
        out.append(r if r < L else L)
    return tuple(out)


def _wedge(a, b):
    return tuple(map(min, a, b))


def _kron_v(u, v, L):
    out = []
    for x in u:
        for y in v:
            s = x + y
            out.append(L if s > L else s)
    return tuple(out)


def _kron_m(a, b, na, nb, L):
    """Row (i, k) of a (x) b is row i of a (x) row k of b."""
    return tuple(itertools.chain.from_iterable(
        _kron_v(a[i:i + na], b[k:k + nb], L)
        for i in range(0, na * na, na) for k in range(0, nb * nb, nb)))


def _is_gate(m, n, L):
    if all(x == L for x in m):
        return True
    return all(min(m[i * n + j] for i in range(n)) == 0 for j in range(n))


def _is_state(v, L):
    return min(v) == 0 or all(x == L for x in v)


# --- interned column and row tables ---------------------------------------------
#
# The gate checks meet few distinct columns and rows many times over: 14 and 49
# among the 170 gates of the standard size-2 grid, 170 and 834 among its 28,900
# Kronecker-built size-4 gates.  Products and the action work column by column
# and row by row (see the module docstring), so a table on those ids takes the
# place of a kernel call per case.

def _intern(values, ids: dict) -> list[int]:
    """The id of each value, adding unseen values to `ids` in order of first appearance.

    Ids are dense, so `list(ids)[k]` is the value with id k.
    """
    return [ids.setdefault(v, len(ids)) for v in values]


def _left_images(a, columns, n, L) -> list[tuple]:
    """a applied to each n-vector of `columns`: one `_mm` of a by them side by side."""
    p = len(columns)
    prod = _mm(a, tuple(itertools.chain(*zip(*columns))), n, L)
    return [prod[j::p] for j in range(p)]


def _right_images(a, rows, n, L) -> list[tuple]:
    """Each n-vector of `rows` times an n x p `a`: one `_mm` of them stacked by a."""
    p = len(a) // n
    prod = _mm(tuple(itertools.chain(*rows)), a, n, L)
    return [prod[i:i + p] for i in range(0, len(prod), p)]


def _dot_table(rows, vectors, n, L) -> list[tuple]:
    """table[q][v] is row q against vector v, as `_mv` reduces it: one
    `_mv` of the rows stacked per vector."""
    stacked = tuple(itertools.chain(*rows))
    return list(zip(*(_mv(stacked, v, n, L) for v in vectors)))


def _lex_rows(outer, inner: int, cap: int):
    """The first `cap` tuples of the product of `outer` ranges and range(`inner`)
    in lexicographic order, a row at a time: (prefix, count) stands for the
    tuples prefix + (k,) with k < count."""
    for prefix in itertools.product(*map(range, outer)):
        if cap <= 0:
            return
        yield prefix, min(inner, cap)
        cap -= inner


class _Gates(list):
    """n x n gates in order, with the ids in `col_ids` and `row_ids` of gate
    k's columns and rows in `columns[k]` and `rows[k]`."""

    def __init__(self, gates, n):
        super().__init__(gates)
        self.col_ids: dict = {}
        self.row_ids: dict = {}
        self.columns = [tuple(_intern([g[j::n] for j in range(n)], self.col_ids))
                        for g in gates]
        self.rows = [tuple(_intern([g[i:i + n] for i in range(0, n * n, n)], self.row_ids))
                     for g in gates]


class _KronGates:
    """The gates a (x) b for a, b in a size-2 `_Gates` base, in lexicographic
    order, with the attributes of `_Gates`.

    Gate k is built by `_kron_m` when it is indexed.  Column (j, l) of a (x) b
    is column j of a (x) column l of b, and row (i, k) is row i of a (x) row k
    of b, so `columns` and `rows` come from Kronecker tables on the base's
    columns and rows.
    """

    def __init__(self, base: _Gates, L):
        self.base, self.L = base, L
        self.col_ids: dict = {}
        self.row_ids: dict = {}
        self.columns = self._ids(base.columns, base.col_ids, self.col_ids)
        self.rows = self._ids(base.rows, base.row_ids, self.row_ids)

    def _ids(self, pair_ids, factor_ids, ids) -> list[tuple]:
        """Per gate a (x) b, the ids in `ids` of u (x) v for u in a's pair of
        2-vectors and v in b's, `pair_ids` holding each base gate's pair as
        ids in `factor_ids`."""
        values = list(factor_ids)
        table = [_intern([_kron_v(u, v, self.L) for v in values], ids) for u in values]
        return [(table[x0][y0], table[x0][y1], table[x1][y0], table[x1][y1])
                for x0, x1 in pair_ids for y0, y1 in pair_ids]

    def __len__(self) -> int:
        return len(self.base) ** 2

    def __getitem__(self, k: int) -> tuple:
        a, b = divmod(k, len(self.base))
        return _kron_m(self.base[a], self.base[b], 2, 2, self.L)


class _Grid(tuple):
    """The grid values, and what the checks read of them (see the module docstring)."""

    def __new__(cls, values):
        return values if isinstance(values, cls) else super().__new__(cls, values)

    @functools.cached_property
    def scale(self) -> tuple[int, tuple[int, ...]]:
        """L, the values' common denominator, and the values as integers over L, in order."""
        fracs = sorted({Fraction(g) for g in self})
        L = math.lcm(*(f.denominator for f in fracs))
        levels = tuple(int(f * L) for f in fracs)
        if levels[0] != 0 or levels[-1] != L:
            raise ValueError("grids must contain 0 and 1")
        return L, levels

    @functools.cached_property
    def size2(self) -> tuple[_Gates, list]:
        """The 2x2 grid gates, columns of minimum 0 or all L, and the grid states."""
        L, levels = self.scale
        states = [(a, b) for a in levels for b in levels if a == 0 or b == 0] + [(L, L)]
        cols = states[:-1]
        gates = [(c0[0], c1[0], c0[1], c1[1]) for c0 in cols for c1 in cols] + [(L,) * 4]
        return _Gates(gates, 2), states

    @functools.cached_property
    def size4(self) -> tuple[_KronGates, list]:
        """The Kronecker products of the size-2 gates and of the states, in lexicographic order."""
        L, _ = self.scale
        gates, states = self.size2
        return _KronGates(gates, L), [_kron_v(u, v, L) for u in states for v in states]


# --- checks ---------------------------------------------------------------------

def check_semiring_axioms(instance: SemiringInstance, grid) -> CheckReport:
    """Both monoid laws, commutativity, idempotence, distributivity and an
    absorbing zero, on the `scaled` rule the kernels run: mul(x, y) is the
    1x1 `mat_vec` of x by y, add(x, y) the row (x, y) against (one, one),
    each held `over` the lcm of its entries' denominators, as `SMatrix` holds
    it.  Values are (n, d) pairs in lowest terms, read through the instance's
    `from_ratio`, which refuses one outside the carrier: a grid value outside
    it is a ValueError, and a result outside it fails the law that computed
    it and is no operand of another operation.  Failures name grid values.
    """
    t0 = time.perf_counter()
    report = CheckReport(f"semiring-axioms-{instance.name}", 0)

    def carried(n: int, d: int) -> tuple[int, int]:  # ValueError outside the carrier
        x = instance.from_ratio(n, d)
        return x.numerator, x.denominator

    def over(pairs: tuple) -> tuple[tuple, int]:  # numerators over the lcm of the denominators
        scale = math.lcm(*(d for _, d in pairs))
        return tuple(n * (scale // d) for n, d in pairs), scale

    @functools.cache  # each operation once per operand pair
    def act(row: tuple, vector: tuple):
        numerators, scale = over(row)
        v = mat_vec(SMatrix.over(instance, (numerators,), scale),
                    SVector.over(instance, *over(vector)))
        return carried(v.numerators[0], v.scale)

    zero, one = (carried(x.numerator, x.denominator) for x in (instance.zero, instance.one))
    held = [(g, carried(g.numerator, g.denominator)) for g in grid]

    def mul(x, y):
        return act((x,), (y,))

    def add(x, y):
        return act((x, y), (one, one))

    def law(name, holds, ops):
        report.cases += 1
        try:
            ok = holds()
        except ValueError:  # a result outside the carrier
            ok = False
        if not ok:
            report.failures.append((name,) + ops)

    # the grid values a, b, c are the pairs x, y, z
    for a, x in held:
        law("add-zero", lambda: add(zero, x) == x and add(x, zero) == x, (a,))
        law("mul-one", lambda: mul(one, x) == x and mul(x, one) == x, (a,))
        law("mul-zero-absorbs", lambda: mul(zero, x) == zero and mul(x, zero) == zero, (a,))
        law("add-idempotent", lambda: add(x, x) == x, (a,))
    for (a, x), (b, y) in itertools.product(held, repeat=2):
        law("add-commutes", lambda: add(x, y) == add(y, x), (a, b))
    for (a, x), (b, y), (c, z) in itertools.product(held, repeat=3):
        law("add-assoc", lambda: add(add(x, y), z) == add(x, add(y, z)), (a, b, c))
        law("mul-assoc", lambda: mul(mul(x, y), z) == mul(x, mul(y, z)), (a, b, c))
        law("left-dist", lambda: mul(x, add(y, z)) == add(mul(x, y), mul(x, z)), (a, b, c))
        law("right-dist", lambda: mul(add(x, y), z) == add(mul(x, z), mul(y, z)), (a, b, c))
    report.elapsed = time.perf_counter() - t0
    return report


def check_mv_gate_laws(grid, size: int = 2) -> CheckReport:
    """Closure, identity/zero behaviour, the J involution and distributivity.

    Size 2 walks every pair and triple of 2x2 grid gates, and checks that the
    meet of two of them is again one; size 4 walks the first pairs and
    triples of Kronecker-built gates.  Each size reports its laws in its own
    order.
    """
    t0 = time.perf_counter()
    grid = _Grid(grid)
    L, _ = grid.scale
    report = CheckReport(f"mv-gate-laws-{size}", 0)
    if size == 2:
        n, (gates, _) = 2, grid.size2
        pair_cap, triple_cap = len(gates) ** 2, len(gates) ** 3
        order = ("closure", "involution", "identity", "meet-closure", "distributivity")
        report.note = "exhaustive"
    elif size == 4:
        n, (gates, _) = 4, grid.size4
        pair_cap, triple_cap = 100000, 20000
        order = ("involution", "identity", "closure", "distributivity")
        report.note = (f"Kronecker-built gates; first {pair_cap} pairs and "
                       f"{triple_cap} triples in lexicographic order")
    else:
        raise ValueError("size must be 2 or 4")
    n_g, found = len(gates), {law: [] for law in order}
    ident = tuple(0 if i == j else L for i in range(n) for j in range(n))
    jmat = tuple(0 if i + j == n - 1 else L for i in range(n) for j in range(n))
    zero, line = (L,) * (n * n), (L,) * n
    jj = _mm(jmat, jmat, n, L)
    report.cases += 1
    if jj != ident:
        found["involution"].append(("involution", jmat, jj))

    # ident and zero fix or absorb a gate exactly when they fix or absorb
    # each of its columns (on the left) and each of its rows (on the right);
    # only a gate with a column or row that they do not is rechecked
    cols, rows = list(gates.col_ids), list(gates.row_ids)
    bad_cols = {c for c, (v, iv, zv) in enumerate(zip(
        cols, _left_images(ident, cols, n, L), _left_images(zero, cols, n, L)))
        if iv != v or zv != line}
    bad_rows = {r for r, (v, iv, zv) in enumerate(zip(
        rows, _right_images(ident, rows, n, L), _right_images(zero, rows, n, L)))
        if iv != v or zv != line}
    report.cases += 2 * n_g
    if bad_cols or bad_rows:
        for k in range(n_g):
            if not (bad_cols.isdisjoint(gates.columns[k])
                    and bad_rows.isdisjoint(gates.rows[k])):
                g = gates[k]
                if _mm(ident, g, n, L) != g or _mm(g, ident, n, L) != g:
                    found["identity"].append(("identity", g))
                if _mm(zero, g, n, L) != zero or _mm(g, zero, n, L) != zero:
                    found["identity"].append(("zero-absorbs", g))

    # AB is a gate when A maps each of B's columns to a column of minimum 0,
    # or each to the all-L column
    for (i,), count in _lex_rows((n_g,), n_g, pair_cap):
        a = gates[i]
        images = _left_images(a, cols, n, L)
        to_gate = {c for c, v in enumerate(images) if min(v) == 0}
        to_zero = {c for c, v in enumerate(images) if v == line}
        report.cases += count
        for j, cs in zip(range(count), gates.columns):
            if not (to_gate.issuperset(cs) or to_zero.issuperset(cs)):
                b = gates[j]
                p = _mm(a, b, n, L)
                if not _is_gate(p, n, L):
                    found["closure"].append(("closure", a, b, p))

    # column q of B ^ C is column q of B met with column q of C, so B ^ C is a
    # gate when the ids of those meets are some gate's column ids: one table
    # of the meets of the distinct columns decides every pair
    if "meet-closure" in found:  # counts no cases
        meet = [[gates.col_ids.get(_wedge(x, y)) for y in cols] for x in cols]
        members, slots = set(gates.columns), list(zip(*gates.columns))
        found["meet-closure"] = [
            ("meet-closure", gates[j], gates[k], _wedge(gates[j], gates[k]))
            for j, ids in enumerate(gates.columns)
            for k, m in enumerate(zip(*(map(meet[x].__getitem__, slot)
                                        for x, slot in zip(ids, slots))))
            if m not in members]

    # Column q of A(B ^ C) is A applied to column q of B met with column q of
    # C, and column q of AB ^ AC is the meet of their images; rows decide
    # (B ^ C)A = BA ^ CA the same way.
    def distributivity(a, j, k):
        b, c = gates[j], gates[k]
        bc = _wedge(b, c)
        if _mm(a, bc, n, L) != _wedge(_mm(a, b, n, L), _mm(a, c, n, L)):
            found["distributivity"].append(("left-dist", a, b, c))
        if _mm(bc, a, n, L) != _wedge(_mm(b, a, n, L), _mm(c, a, n, L)):
            found["distributivity"].append(("right-dist", a, b, c))

    # entry i of Ax is row i of A against x, and entry j of xA is x against
    # column j of A: one `_mm` of the rows stacked, or of the columns side by
    # side, with every vector
    _meet_law(report, gates, n_g, triple_cap, distributivity, (
        (gates.columns, gates.col_ids, gates.rows, lambda used, vs: _left_images(
            tuple(itertools.chain(*map(rows.__getitem__, used))), vs, n, L)),
        (gates.rows, gates.row_ids, gates.columns, lambda used, vs: _right_images(
            tuple(itertools.chain(*zip(*map(cols.__getitem__, used)))), vs, n, L))))
    for law in order:
        report.failures += found[law]
    report.elapsed = time.perf_counter() - t0
    return report


def _meet_law(report: CheckReport, gates, n_b: int, cap: int, recheck, sides) -> None:
    """A law f_A(x ^ y) = f_A(x) ^ f_A(y) on the first `cap` triples (A, B, C)
    in lexicographic order, B and C in range(`n_b`).

    Each side (slots, ids, parts, table) has `slots[k]` the ids in `ids` of
    vectors, each in its slot, that stand for B or C = k, and `parts[i]` the
    ids of the parts of gate i that give the entries of f_A(x): entry q of
    f_A(x) is part q of A against x, and `table(ps, vectors)` is each vector
    against each part whose id is in `ps`.  The law holds on a triple when,
    for each side, it holds on the ids (x, y) of B and C in each slot, and
    on a pair when it holds at each part of A.  So one table of the
    distinct parts of the As the cap reaches decides each pair once, and a
    pair is bad for A when it is bad at one of A's parts.  Only a triple
    that meets a bad pair goes to `recheck(a, j, k)`, which decides it with
    direct kernel calls, so failures keep their form and order.  A triple
    counts once per side.
    """
    n_a = min(len(gates), -(-cap // (n_b * n_b)))
    bs, cs = range(min(n_b, -(-cap // n_b))), range(min(n_b, cap))
    tables = []
    for slots, ids, parts, table in sides:
        ids = dict(ids)  # the meets join a copy, not the family's table
        partners: dict = {}  # x -> the ids y that x meets in some slot
        for q in range(len(slots[0])):
            met = {slots[k][q] for k in cs}
            for x in {slots[j][q] for j in bs}:
                partners[x] = partners[x] | met if x in partners else met
        xs = [x for x, met in partners.items() for _ in met]
        ys = [y for met in partners.values() for y in met]
        vectors = list(ids).__getitem__
        meets = _intern(map(_wedge, map(vectors, xs), map(vectors, ys)), ids)
        # each vector against the parts `used`, as an id in `entry_ids`
        used = list(dict.fromkeys(itertools.chain(*parts[:n_a])))
        entry_ids: dict = {}
        at = _intern(table(used, list(ids)), entry_ids).__getitem__
        entries = list(entry_ids)
        entry_meets = {(u, v): _wedge(entries[u], entries[v])
                       for u, v in set(zip(map(at, xs), map(at, ys)))}
        wants = map(entry_meets.__getitem__, zip(map(at, xs), map(at, ys)))
        gots = map(entries.__getitem__, map(at, meets))
        bad_at: dict = {}  # part id -> the pairs (x, y) bad at that part
        for pair, want, got in zip(zip(xs, ys), wants, gots):
            if want != got:
                for p in itertools.compress(used, map(ne, want, got)):
                    bad_at.setdefault(p, set()).add(pair)
        tables.append((slots, parts, bad_at))
    for i in range(n_a):
        count = min(n_b * n_b, cap - i * n_b * n_b)
        report.cases += len(sides) * count
        # per side, the pairs (x, y) with f_A(x ^ y) != f_A(x) ^ f_A(y)
        bad = [set().union(*(bad_at.get(p, ()) for p in parts[i]))
               for _, parts, bad_at in tables]
        if any(bad):
            a = gates[i]
            for (j,), n_k in _lex_rows((n_b,), n_b, count):
                for k in range(n_k):
                    if any(pair in pairs for (slots, *_), pairs in zip(tables, bad)
                           for pair in zip(slots[j], slots[k])):
                        recheck(a, j, k)


def check_action_laws(grid, size: int = 2) -> CheckReport:
    """State closure, linearity over the meet, and action/product compatibility.

    Size 2 walks every instance of each law on 2x2 grid gates and states;
    size 4 walks the first `cap` instances on Kronecker-built ones.  Entry i
    of As is row i of A against s, so images are read from a table of the
    rows the gates share against the states.
    """
    t0 = time.perf_counter()
    grid = _Grid(grid)
    L, levels = grid.scale
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
        n, (gates, states) = 2, grid.size2
        cap = len(gates) ** 2 * len(states) ** 2
        report.note = "exhaustive"
    elif size == 4:
        n, (gates, states) = 4, grid.size4
        cap = 100000
        report.note = f"Kronecker-built; first {cap} law instances in lexicographic order"
    else:
        raise ValueError("size must be 2 or 4")
    n_g, n_s = len(gates), len(states)
    vids: dict = {}
    sid = _intern(states, vids)
    n_distinct = len(vids)
    at_states = itemgetter(*sid)
    # The state-closure and compatibility instances reach the gates in
    # `reach`, and as A of (AB)s only those in `range(n_a)`.  Entry i of
    # (AB)s is (row i of A)B against s, so each row r of those A is taken
    # times each B in `reach`: rb[bi] holds the ids of those rows rB.
    reach, n_a = range(min(n_g, -(-cap // n_s))), min(n_g, -(-cap // (n_g * n_s)))
    row_ids = dict(gates.row_ids)  # the rows rB join a copy
    rows = list(row_ids)
    a_rows = sorted({r for ai in range(n_a) for r in gates.rows[ai]})
    rb = [_intern(_right_images(gates[bi], [rows[r] for r in a_rows], n, L), row_ids)
          for bi in reach]
    used = list(dict.fromkeys(itertools.chain(*(gates.rows[gi] for gi in reach), *rb)))
    rows = list(row_ids)  # now with the rows rB
    # row id -> that row against each distinct state
    dots = dict(zip(used, _dot_table([rows[r] for r in used], list(vids), n, L)))

    # As for each state s, as ids in `image_ids`, for each gate A in `reach`
    image_ids: dict = {}
    images = [_intern(zip(*(at_states(dots[r]) for r in gates.rows[gi])), image_ids)
              for gi in reach]
    vectors = list(image_ids)
    not_states = {v for v, x in enumerate(vectors) if not _is_state(x, L)}
    for (gi,), count in _lex_rows((n_g,), n_s, cap):
        report.cases += count
        if not not_states.isdisjoint(images[gi]):
            for si, v in zip(range(count), images[gi]):
                if v in not_states:
                    report.failures.append(("state-closure", gates[gi], states[si], vectors[v]))

    def linearity(a, si, ti):  # A(s ^ t) = As ^ At, a state being one slot
        s, t = states[si], states[ti]
        if _mv(a, _wedge(s, t), n, L) != _wedge(_mv(a, s, n, L), _mv(a, t, n, L)):
            report.failures.append(("linearity", a, s, t))

    def against_rows(rs, vs):
        """Each vector of `vs` against the rows with ids `rs` (entry i of As is
        row i of A against s): read from `dots` for a state, by `_mv` otherwise."""
        known = [dots[r] for r in rs]
        stacked = tuple(itertools.chain(*map(rows.__getitem__, rs)))
        return [tuple(d[k] for d in known) if (k := vids.get(v, n_distinct)) < n_distinct
                else _mv(stacked, v, n, L) for v in vs]

    _meet_law(report, gates, n_s, cap, linearity,
              (([(x,) for x in sid], vids, gates.rows, against_rows),))

    # (AB)s = A(Bs) entry by entry: entry i of A(Bs) is row i of A against Bs.
    # So each B decides every state at once for each row r of the A: rB
    # against s, and r against Bs.  differs[r] holds the Bs where they differ,
    # and only an (A, B) with B in differs[r] for a row r of A is rechecked,
    # state by state.
    against = dict(zip(a_rows, zip(*against_rows(a_rows, vectors))))
    differs: dict = {r: set() for r in a_rows}
    for bi in reach:
        at_b = itemgetter(*images[bi])
        for r, x in zip(a_rows, rb[bi]):
            if at_states(dots[x]) != at_b(against[r]):
                differs[r].add(bi)
    report.cases += min(cap, n_g * n_g * n_s)
    for ai in range(n_a):
        for bi in sorted(set().union(*map(differs.__getitem__, gates.rows[ai]))):
            count = min(n_s, cap - (ai * n_g + bi) * n_s)  # the states the cap reaches
            if count <= 0:
                break
            a, b = gates[ai], gates[bi]
            ab = _mm(a, b, n, L)
            for s in states[:count]:
                if _mv(ab, s, n, L) != _mv(a, _mv(b, s, n, L), n, L):
                    report.failures.append(("compatibility", a, b, s))
    report.elapsed = time.perf_counter() - t0
    return report


def check_tensor_laws(grid) -> CheckReport:
    """Kronecker closure, basis enumeration, symmetry, associativity, mixed product."""
    t0 = time.perf_counter()
    grid = _Grid(grid)
    L, _ = grid.scale
    report = CheckReport("tensor-laws", 0)
    (gates, states), (kron, products) = grid.size2, grid.size4

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

    n_s = len(states)  # u (x) v is products[i * n_s + j] for u, v = states[i], states[j]
    for (u, v), w in zip(itertools.product(states, repeat=2), products):
        report.cases += 2
        if len(w) != len(u) * len(v):
            report.failures.append(("dimension", u, v))
        if not _is_state(w, L):
            report.failures.append(("state-closure", u, v, w))
    for i, j in itertools.product(range(n_s), repeat=2):
        report.cases += 1
        uv, vu = products[i * n_s + j], products[j * n_s + i]
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
    n_gates = len(gates)  # c (x) d is kron gate ci * n_gates + di
    col_ids = dict(kron.col_ids)  # the images and the columns of ac (x) bd join a copy
    targets = list(col_ids)  # every column of every c (x) d

    @functools.cache
    def images(ai: int, bi: int) -> list:  # the id of each target's image under a (x) b
        ab = _kron_m(gates[ai], gates[bi], 2, 2, L)
        return _intern(_left_images(ab, targets, 4, L), col_ids)

    @functools.cache
    def columns(i: int, j: int) -> tuple:  # the two columns of gates[i] gates[j]
        p = _mm(gates[i], gates[j], 2, L)
        return p[0::2], p[1::2]

    @functools.cache
    def kron_id(u, v) -> int:  # the id of u (x) v
        return _intern([_kron_v(u, v, L)], col_ids)[0]

    for (ai, bi, ci), count in _lex_rows((n_gates,) * 3, n_gates, quad_cap):
        report.cases += count
        image = images(ai, bi).__getitem__
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


def _mm2(a, b) -> tuple:
    """The ordinary product of two 2x2 matrices (row tuples)."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


def _is_stochastic2(m, scale) -> bool:
    """Whether a 2x2 matrix of numerators over `scale` is column-stochastic:
    entries in [0, scale], columns sum to scale."""
    return all(0 <= m[i][j] <= scale for i in range(2) for j in range(2)) and all(
        m[0][j] + m[1][j] == scale for j in range(2))


def check_stochastic_semigroup(grid) -> CheckReport:
    """Product closure of column-stochastic grid matrices, plus inverse exhibits.

    The grid matrices are numerators over the grid denominator L, so their
    products are integers over L * L; a failure shows its matrices as rationals.
    """
    t0 = time.perf_counter()
    report = CheckReport("stochastic-semigroup", 0)
    L, levels = _Grid(grid).scale
    columns = [(x, L - x) for x in levels if L - x in levels]
    mats = [((c0[0], c1[0]), (c0[1], c1[1])) for c0 in columns for c1 in columns]

    def ratios(m, scale):
        return tuple(tuple(Fraction(x, scale) for x in row) for row in m)

    for m, n in itertools.product(mats, repeat=2):
        report.cases += 1
        prod = _mm2(m, n)
        if not _is_stochastic2(prod, L * L):
            report.failures.append(("closure", ratios(m, L), ratios(n, L), ratios(prod, L * L)))

    # the uniform matrix is singular: no inverse at all
    half = Fraction(1, 2)
    uniform = ((half, half), (half, half))
    report.cases += 1
    if _det2(uniform) != 0:
        report.failures.append(("singular-exhibit", uniform))

    # an invertible stochastic matrix whose inverse leaves the family: its
    # columns still sum to 1, but it has negative entries
    m = ((Fraction(9, 10), Fraction(2, 10)), (Fraction(1, 10), Fraction(8, 10)))
    det = _det2(m)
    inv = ((m[1][1] / det, -m[0][1] / det), (-m[1][0] / det, m[0][0] / det))
    prod = _mm2(m, inv)
    report.cases += 2
    if prod != ((1, 0), (0, 1)):
        report.failures.append(("inverse-arithmetic", m, inv, prod))
    if _is_stochastic2(inv, 1):
        report.failures.append(("inverse-unexpectedly-stochastic", m, inv))
    report.elapsed = time.perf_counter() - t0
    return report


# The (A, B, v) triples `check_oracle_agreement` compares, in lexicographic order.
ORACLE_TRIPLES = 10000


def check_oracle_agreement(grid) -> CheckReport:
    """Entrywise kernels versus the generic linear algebra, bit for bit.

    Each (A, B, v) triple compares mat_mul(A, B) and kron_mat(A, B) with the
    kernels, and mat_vec(A, v), kron_vec(v, Av) and simulate's kernel
    mat_vec_block(A, base, v (x) Av) at base 0 and 1, which must equal the
    products with I (x) A and A (x) I.  The triples repeat their operand
    pairs, so each comparison runs once per distinct (A, B) or (A, v).
    """
    t0 = time.perf_counter()
    grid = _Grid(grid)
    L, _ = grid.scale
    report = CheckReport("oracle-agreement", 0,
                         note=f"first {ORACLE_TRIPLES} (A, B, v) triples in lexicographic order")
    gates, states = grid.size2
    ident = (0, L, L, 0)

    matrices = [SMatrix(FUZZ_MV, ([UnitScalar(x, L) for x in g[:2]],
                                  [UnitScalar(x, L) for x in g[2:]])) for g in gates]
    vectors = [SVector(FUZZ_MV, [UnitScalar(x, L) for x in s]) for s in states]

    def agrees(oracle, value: SMatrix | SVector) -> bool:
        # on numerators, as rationals: an entry past 1 disagrees, and builds no scalar
        held = value.numerators if isinstance(value, SVector) else sum(value.numerators, ())
        return len(oracle) == len(held) and all(
            o * value.scale == x * L for o, x in zip(oracle, held))

    @functools.cache
    def pair_agrees(ai: int, bi: int) -> bool:
        a, b = matrices[ai], matrices[bi]
        return (agrees(_mm(gates[ai], gates[bi], 2, L), mat_mul(a, b))
                and agrees(_kron_m(gates[ai], gates[bi], 2, 2, L), kron_mat(a, b)))

    @functools.cache
    def vector_agrees(ai: int, si: int) -> bool:
        av = _mv(gates[ai], states[si], 2, L)
        lib_av = mat_vec(matrices[ai], vectors[si])
        if not agrees(av, lib_av):
            return False
        x = _kron_v(states[si], av, L)
        lib_x = kron_vec(vectors[si], lib_av)
        if not agrees(x, lib_x):
            return False
        padded = (_kron_m(ident, gates[ai], 2, 2, L), _kron_m(gates[ai], ident, 2, 2, L))
        return all(agrees(_mv(op, x, 4, L), mat_vec_block(matrices[ai], base, lib_x))
                   for base, op in enumerate(padded))

    triples = itertools.product(range(len(gates)), range(len(gates)),
                                range(len(states)))
    for ai, bi, si in itertools.islice(triples, ORACLE_TRIPLES):
        report.cases += 1
        if not (pair_agrees(ai, bi) and vector_agrees(ai, si)):
            report.failures.append(("agreement", gates[ai], gates[bi], states[si]))
    report.elapsed = time.perf_counter() - t0
    return report


def run_all(grid_name: str = "standard") -> list[CheckReport]:
    """Every check on the named grid, in a stable order."""
    grid = _Grid(grid_values(grid_name))
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
