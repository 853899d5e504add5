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

Size-2 enumerations are exhaustive; size-4 objects are Kronecker products
of size-2 grid objects, and their law instances are sampled in
lexicographic order, which each report's note states.  Both sizes run the
same code: a sampled law's walk, case count and note read one `_Reach`,
the first `cap` tuples of a product of ranges, all of it if exhaustive.
`run_all` passes one read-only `_Grid` to every check, which builds the
grid's scale and both families once, on first read; a check interns what
it derives in its own copy of a family's id table.  `count_all`, the route
`fuzzbit verify` takes, counts the same checks in two processes where two
CPUs are usable: a child forked after the families are built sends back
only counts, and a share whose counts do not arrive is counted in the parent.

The gate and action checks work on columns and rows: column j of AB is A
applied to column j of B, row i of AB is row i of A times B, and entry i of
As is row i of A against s.  Each distinct column, row and state gets an
id, and a gate is the ids of its columns and rows, which a Kronecker-built
gate reads off a table of its factors' ids.  A table of images is one `_mm`
call on the vectors side by side or stacked, and a table of rows against
states one `_mv` call per state, which reduces the stacked rows a whole
column at a time.  A law f_A(x ^ y) = f_A(x) ^ f_A(y)
(distributivity by columns and by rows, linearity by states) is decided
once per pair of ids and per distinct row or column of A (see
`_meet_law`), its meets read off one scalar meet table (`_scalar_meets`),
as are the column meets of the meet closure.

The tables rest on one assumption, which the per-case semantics share:
`_mm` and `_mv` are row- and column-local (an entry of a result reads one
row of the left operand and one column or vector of the right), a column
or row of a Kronecker-built gate is the product of its factors' columns
or rows, and `_wedge` is entrywise.  A case then fails exactly when one of
its ids, or pairs of ids, does.  Every case is counted, and each failure
of distributivity, linearity, (AB)s = A(Bs), the meet closure and the
mixed product is read off the tables, as are identity and zero, per law
from the columns and rows it does not fix or absorb: a report keeps a
count, and builds the failure tuples a per-case loop finds, in its order,
from ids each time they are read, so a request that only counts builds
none.  Product closure alone is decided by direct kernel calls (`_is_gate`
of the `_mm` of whole gates, of which it keeps ids).  A family that breaks
the assumption (gates that are not n x n, or a `_kron_v` that lays
factors out differently) is named by tensor-laws' own `dimension` and
`basis-ket` laws; every other line reports what its tables read.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import math
import os
import pickle
import signal
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add as _int_add
from operator import itemgetter, ne, not_, or_
from typing import NamedTuple

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
    "count_all",
]

class _Failures(Sequence):
    """`size` failures that a check reads off its tables, built by `read()`
    from the ids it kept each time they are iterated, with no kernel call;
    equal to, and shown as, the list of the same tuples."""

    def __init__(self, size: int, read):
        self.size, self.read = size, read

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.read())

    def __getitem__(self, k):
        return list(self)[k]

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, _Failures)) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def _lazy(size: int, read) -> _Failures | list:
    """`_Failures(size, read)`, or a list when there are none, which keeps no table."""
    return _Failures(size, read) if size else []


def _joined(*parts) -> _Failures | list:
    """The failures of each part, a list or `_Failures`, in order."""
    return _lazy(sum(map(len, parts)), lambda: itertools.chain(*parts))


def _read_off(ids, build) -> _Failures | list:
    """The failures `build(*t)` for each tuple t of ids that `ids()` yields."""
    return _lazy(sum(1 for _ in ids()), lambda: itertools.starmap(build, ids()))


@dataclass
class CheckReport:
    name: str
    cases: int
    failures: Sequence = field(default_factory=list)
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
    """Each n-entry row of an m x n `a` against `v`, capped at L: column k of
    the rows shifted by v[k], the columns and L reduced entrywise by `min`."""
    m, ragged = divmod(len(a), n)
    columns = [[x + s for x in a[k:m * n:n]] for k, s in zip(range(n), v)]
    out = tuple(map(min, *columns, itertools.repeat(L, m)))
    if ragged:  # a last row shorter than n
        r = min(map(_int_add, a[m * n:], v))
        out += (r if r < L else L,)
    return out


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
    """Every entry is L, or each column of the first n * n entries has minimum 0."""
    if m.count(L) == len(m):
        return True
    for j in range(n):
        if min(m[j:n * n:n]) != 0:
            return False
    return True


def _is_state(v, L):
    return min(v) == 0 or all(x == L for x in v)


def _mirrors(uv, vu) -> bool:
    """Whether entry (a, b) of the product u (x) v of two 2-vectors, at 2a + b,
    is entry (b, a) of v (x) u."""
    return uv[:4] == (vu[0], vu[2], vu[1], vu[3])


# --- interned column and row tables ---------------------------------------------
#
# The 170 gates of the standard size-2 grid have 14 distinct columns and 49
# rows, and its 28,900 size-4 ones 170 and 834: a table on their ids takes
# the place of a kernel call per case.

def _intern(values, ids: dict) -> list[int]:
    """The id of each value, adding unseen values to `ids` in order of first
    appearance: ids are dense, so `list(ids)[k]` is the value with id k."""
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


class _Reach(NamedTuple):
    """The instances a sampled law visits: the first `cap` tuples of the
    product of range(size) for each of `sizes`, in lexicographic order."""

    sizes: tuple
    cap: int

    @property
    def cases(self) -> int:
        return self.count()

    def span(self, k: int) -> int:
        """The values coordinate k takes, range(span(k))."""
        return min(self.sizes[k], -(-self.cap // math.prod(self.sizes[k + 1:])))

    def count(self, *prefix) -> int:
        """How many of the tuples begin with `prefix`."""
        before = sum(k * math.prod(self.sizes[m + 1:]) for m, k in enumerate(prefix))
        return max(0, min(math.prod(self.sizes[len(prefix):]), self.cap - before))

    def rows(self, *prefix):
        """(row, count) per row that begins with `prefix`: prefix + row + (k,) for k < count."""
        left, last = self.count(*prefix), self.sizes[-1]
        for row in itertools.product(*map(range, self.sizes[len(prefix):-1])):
            if left <= 0:
                return
            yield row, min(last, left)
            left -= last


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, in increasing order."""
    low_first = bin(mask)[:1:-1]
    return list(itertools.compress(range(len(low_first)), map("1".__eq__, low_first)))


class _FactorIds:
    """Per gate p (x) q in order, the ids of its vectors, one per slot, read
    off a factor table when indexed (ints and slices).  `table[x][y]` is the
    id in `ids` of u (x) v for the vectors with ids x and y in `factor_ids`,
    and slot (s, t) of (p, q) holds it for x slot s of p and y slot t of q,
    `pairs` holding each base gate's two slots."""

    def __init__(self, pairs: list, factor_ids: dict, ids: dict, L):
        values, self.pairs = list(factor_ids), pairs
        self.table = [_intern([_kron_v(u, v, L) for v in values], ids) for u in values]

    def __len__(self) -> int:
        return len(self.pairs) ** 2

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        (x0, x1), (y0, y1) = map(self.pairs.__getitem__, divmod(k, len(self.pairs)))
        return self.table[x0][y0], self.table[x0][y1], self.table[x1][y0], self.table[x1][y1]


class _Gates(list):
    """n x n gates in order, with the ids in `col_ids` and `row_ids` of gate
    k's columns and rows in `columns[k]` and `rows[k]`."""

    def __init__(self, gates, n):
        super().__init__(gates)
        self.col_ids, self.row_ids = {}, {}
        self.columns = [tuple(_intern([g[j::n] for j in range(n)], self.col_ids)) for g in gates]
        self.rows = [tuple(_intern([g[i:i + n] for i in range(0, n * n, n)], self.row_ids))
                     for g in gates]
        self._holders = [sum(1 << k for k, ids in enumerate(self.columns) if c in ids)
                         for c in range(len(self.col_ids))]

    def holding(self, ids) -> int:
        """The gates with a column id in `ids`, as a bit mask: bit k for gate k."""
        return functools.reduce(or_, map(self._holders.__getitem__, ids), 0)


class _KronGates:
    """The gates a (x) b for a, b in a size-2 `_Gates` base, in lexicographic
    order, with the attributes and `holding` of `_Gates`.  Column (j, l) of
    a (x) b is column j of a (x) column l of b, and row (i, k) is row i of a
    (x) row k of b, so `columns` and `rows` are `_FactorIds` of the base's
    columns and rows, and a gate, indexed, is its rows read off the row
    table, as `_kron_m` builds it."""

    def __init__(self, base: _Gates, L):
        self.base = base
        self.col_ids, self.row_ids = {}, {}
        self.columns = _FactorIds(base.columns, base.col_ids, self.col_ids, L)
        self.rows = _FactorIds(base.rows, base.row_ids, self.row_ids, L)
        self.row_values = list(self.row_ids)

    def holding(self, ids) -> int:
        """`_Gates.holding`, read off the factors: gate (p, q) has a column id in
        `ids` when some column x of p and y of q have `columns.table[x][y]` in it,
        so one base mask per x names the qs for every p."""
        base, n_b = self.base, len(self.base)
        per_x = [base.holding([y for y, c in enumerate(row) if c in ids])
                 for row in self.columns.table]
        return sum(functools.reduce(or_, map(per_x.__getitem__, xs)) << p * n_b
                   for p, xs in enumerate(base.columns))

    def __len__(self) -> int:
        return len(self.base) ** 2

    def __getitem__(self, k: int) -> tuple:
        """Gate k, a (x) b for a, b = base[k // len(base)], base[k % len(base)],
        as `_kron_m(a, b, 2, 2, L)` builds it: what the walks, the mixed
        product, tensor-laws' gate closure and the oracle read of a (x) b."""
        return sum(map(self.row_values.__getitem__, self.rows[k]), ())


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

    def act(row: tuple, vector: tuple):  # None outside the carrier
        try:
            numerators, scale = over(row)
            v = mat_vec(SMatrix.over(instance, (numerators,), scale),
                        SVector.over(instance, *over(vector)))
            return carried(v.numerators[0], v.scale)
        except ValueError:
            return None

    zero, one = (carried(x.numerator, x.denominator) for x in (instance.zero, instance.one))
    held = [(g, carried(g.numerator, g.denominator)) for g in grid]

    # each operation once per operand pair; None of a None operand, so a
    # result outside the carrier fails every law that reaches it
    @functools.cache
    def mul(x, y):
        return None if x is None or y is None else act((x,), (y,))

    @functools.cache
    def add(x, y):
        return None if x is None or y is None else act((x, y), (one, one))

    def same(left, right) -> bool:
        return left is not None and left == right

    # the grid values a, b, c are the pairs x, y, z
    fail = report.failures.append
    for a, x in held:
        if not (add(zero, x) == x and add(x, zero) == x):
            fail(("add-zero", a))
        if not (mul(one, x) == x and mul(x, one) == x):
            fail(("mul-one", a))
        if not (mul(zero, x) == zero and mul(x, zero) == zero):
            fail(("mul-zero-absorbs", a))
        if add(x, x) != x:
            fail(("add-idempotent", a))
    for (a, x), (b, y) in itertools.product(held, repeat=2):
        if not same(add(x, y), add(y, x)):
            fail(("add-commutes", a, b))
    for (a, x), (b, y), (c, z) in itertools.product(held, repeat=3):
        xy, yz = add(x, y), add(y, z)
        if not same(add(xy, z), add(x, yz)):
            fail(("add-assoc", a, b, c))
        if not same(mul(mul(x, y), z), mul(x, mul(y, z))):
            fail(("mul-assoc", a, b, c))
        if not same(mul(x, yz), add(mul(x, y), mul(x, z))):
            fail(("left-dist", a, b, c))
        if not same(mul(xy, z), add(mul(x, z), mul(y, z))):
            fail(("right-dist", a, b, c))
    n = len(held)
    report.cases = 4 * n + n ** 2 + 4 * n ** 3  # the instances of each law, as walked
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
    if size not in (2, 4):
        raise ValueError("size must be 2 or 4")
    n, (gates, _) = size, grid.size2 if size == 2 else grid.size4
    report = CheckReport(f"mv-gate-laws-{size}", 0, note="exhaustive")
    n_g = len(gates)
    pairs, triples = _Reach((n_g,) * 2, n_g ** 2), _Reach((n_g,) * 3, n_g ** 3)
    order = ("closure", "involution", "identity", "meet-closure", "distributivity")
    if size == 4:
        pairs, triples = pairs._replace(cap=100000), triples._replace(cap=20000)
        order = ("involution", "identity", "closure", "distributivity")
        report.note = (f"Kronecker-built gates; first {pairs.cap} pairs and "
                       f"{triples.cap} triples in lexicographic order")
    found = {law: [] for law in order}
    ident = tuple(0 if i == j else L for i in range(n) for j in range(n))
    jmat = tuple(0 if i + j == n - 1 else L for i in range(n) for j in range(n))
    zero, line = (L,) * (n * n), (L,) * n
    jj = _mm(jmat, jmat, n, L)
    report.cases += 1
    if jj != ident:
        found["involution"].append(("involution", jmat, jj))

    # ident fixes, and zero absorbs, a gate exactly when it fixes, or absorbs,
    # each of its columns on the left and each of its rows on the right:
    # per law, the ids of the columns and of the rows where it does not
    cols, rows = list(gates.col_ids), list(gates.row_ids)
    misses = [(law, {c for c, (v, w) in enumerate(zip(cols, _left_images(m, cols, n, L)))
                     if w != want(v)},
               {r for r, (v, w) in enumerate(zip(rows, _right_images(m, rows, n, L)))
                if w != want(v)})
              for law, m, want in (("identity", ident, lambda v: v),
                                   ("zero-absorbs", zero, lambda v: line))]
    report.cases += 2 * n_g

    def unfixed():  # (law, k) per law that misses a column or row of gate k
        for k in range(n_g) if any(c or r for _, c, r in misses) else ():
            cs, rs = gates.columns[k], gates.rows[k]
            yield from ((law, k) for law, c, r in misses
                        if not (c.isdisjoint(cs) and r.isdisjoint(rs)))
    found["identity"] = _read_off(unfixed, lambda law, k: (law, gates[k]))

    # AB is a gate when A maps each of B's columns to a column of minimum 0,
    # or each to the all-L column: only a B holding a column of `not_gate`
    # and one of `not_zero` is a candidate, and `_is_gate` decides AB.  Per
    # A, `open_at` keeps the Bs with AB not a gate, as a bit mask, and the
    # ids of those ABs in `products`, in order.
    products: dict = {}
    open_at = []
    report.cases += pairs.cases
    for (i,), count in pairs.rows():
        a = gates[i]
        images = _left_images(a, cols, n, L)
        not_gate = {c for c, v in enumerate(images) if min(v) != 0}
        not_zero = {c for c, v in enumerate(images) if v != line}
        mask, held = 0, []
        for j in _bits(gates.holding(not_gate) & gates.holding(not_zero) & ((1 << count) - 1)):
            p = _mm(a, gates[j], n, L)
            if not _is_gate(p, n, L):
                mask |= 1 << j
                held += _intern([p], products)
        if mask:
            open_at.append((i, mask, held))

    def closure():
        ps = list(products)
        for i, mask, ids in open_at:
            a = gates[i]
            yield from (("closure", a, gates[j], ps[p]) for j, p in zip(_bits(mask), ids))
    found["closure"] = _lazy(sum(len(ids) for *_, ids in open_at), closure)

    # column q of B ^ C is column q of B met with column q of C, so B ^ C is a
    # gate when the ids of those meets are some gate's column ids: one table
    # of the meets of the distinct columns decides every pair, and gives B ^ C
    if "meet-closure" in found:  # counts no cases
        meets_of = _scalar_meets(cols)
        met = [list(meets_of(x)) for x in range(len(cols))]  # met[x][y]: columns x ^ y
        meet = [[gates.col_ids.get(m) for m in row] for row in met]
        members, slots = set(gates.columns), list(zip(*gates.columns))

        def gates_met(j):  # per C, whether the column ids of B ^ C, for B = gate j, are a gate's
            return map(members.__contains__, zip(*(
                map(meet[x].__getitem__, slot) for x, slot in zip(gates.columns[j], slots))))

        def outside():  # (B, C) with B ^ C not a gate
            for j in range(n_g):
                yield from ((j, k) for k in itertools.compress(range(n_g), map(not_, gates_met(j))))

        def meet_closure(j, k):  # B ^ C from its columns, laid out row by row
            bc = zip(*(met[x][y] for x, y in zip(gates.columns[j], gates.columns[k])))
            return "meet-closure", gates[j], gates[k], tuple(itertools.chain(*bc))
        found["meet-closure"] = _lazy(n_g * n_g - sum(map(sum, map(gates_met, range(n_g)))),
                                      lambda: itertools.starmap(meet_closure, outside()))

    # Column q of A(B ^ C) is A applied to column q of B met with column q of
    # C, and column q of AB ^ AC is the meet of their images; rows decide
    # (B ^ C)A = BA ^ CA the same way.  Entry i of Ax is row i of A against
    # x, and entry j of xA is x against column j of A: one `_mm` of the rows
    # stacked, or of the columns side by side, with every vector.
    found["distributivity"] = _meet_law(report, gates, gates, triples, (
        ("left-dist", gates.columns, gates.col_ids, gates.rows, lambda used, vs: _left_images(
            tuple(itertools.chain(*map(rows.__getitem__, used))), vs, n, L)),
        ("right-dist", gates.rows, gates.row_ids, gates.columns, lambda used, vs: _right_images(
            tuple(itertools.chain(*zip(*map(cols.__getitem__, used)))), vs, n, L))))
    report.failures = _joined(*map(found.__getitem__, order))
    report.elapsed = time.perf_counter() - t0
    return report


def _scalar_meets(vectors: list):
    """`meets(x)`: vector x, given as its index into `vectors`, met with each
    vector of `vectors`, in order.

    One `_wedge` of every pair of the values that occur in `vectors` gives a
    scalar meet table, and each meet is read off it column by column.  It is
    `_wedge` of the whole vectors when `_wedge` is entrywise, as the module
    docstring assumes; a `_wedge` whose result depends on an entry's
    position is out of its reach.
    """
    values = sorted(set(itertools.chain(*vectors)))
    m = len(values)
    flat = _wedge(tuple(u for u in values for _ in values), tuple(values) * m)
    scalar = {u: dict(zip(values, flat[i * m:i * m + m])).__getitem__
              for i, u in enumerate(values)}
    columns = list(zip(*vectors))  # entry q of every vector

    def meets(x):
        return zip(*(map(scalar[u], column) for u, column in zip(vectors[x], columns)))
    return meets


def _meet_law(report: CheckReport, gates, items, reach: _Reach, sides) -> _Failures:
    """The failures of a law f_A(x ^ y) = f_A(x) ^ f_A(y) on the triples
    (A, B, C) that `reach` holds, as indices: A into `gates` and B and C
    into `items`.

    Each side (name, slots, ids, parts, table) has `slots[k]` the ids in
    `ids` of vectors, each in its slot, that stand for B or C = k, and
    `parts[i]` the ids of the parts of gate i that give the entries of
    f_A(x): entry q of f_A(x) is part q of A against x, and `table(ps,
    vectors)` is each vector against each part whose id is in `ps`.  The
    law fails on a triple when, for some side, it fails on the ids (x, y) of
    B and C in some slot, and on a pair when it fails at some part of A.
    Each id x that a B in the reach holds is paired with every id y of
    `ids`, and one table of the distinct parts of the As in the reach
    decides each pair once: a pair is bad for A when it is bad at one of
    A's parts.  A triple counts once per side, and fails each side on which
    it meets a bad pair, as (name, A, B, C), its sides in order: the
    failures are counted from the bad pairs, per A and B by the ids the Cs
    hold in each slot, and built from the same ids, with no kernel call,
    each time they are read.

    The meets x ^ y come from `_scalar_meets`, one `_wedge` per side.  Each
    vector's row of the table is interned as an entry id, so f_A(x ^ y) is
    the id of the meet's row, and f_A(x) ^ f_A(y) the id of the meet of the
    rows of x and y, which `_wedge` computes once per distinct pair of entry
    ids.  Only a pair whose two ids differ is compared part by part.
    """
    n_a, n_bs = reach.span(0), reach.span(1)  # the As and the Bs in the reach
    tables = []
    for name, slots, ids, parts, table in sides:
        every = range(len(ids))
        meets_of = _scalar_meets(list(ids))
        ids = dict(ids)  # the meets join a copy, not the family's table
        meets = {x: _intern(meets_of(x), ids)
                 for x in dict.fromkeys(itertools.chain(*slots[:n_bs]))}
        # each vector against the parts `used`, as an id in `entry_ids`
        a_parts = parts[:n_a]
        used = list(dict.fromkeys(itertools.chain(*a_parts)))
        entry_ids: dict = {}
        at = _intern(table(used, list(ids)), entry_ids)
        vs, entries = at[:len(every)], list(entry_ids)
        distinct = list(dict.fromkeys(vs))
        wanted: dict = {}  # u -> per id y, the entry id of entries[u] ^ entries[at[y]]
        bad_at: dict = {}  # part id -> x -> the ys with (x, y) bad at that part, as a bit mask
        for x, met in meets.items():
            if at[x] not in wanted:
                own = entries[at[x]]
                row = dict(zip(distinct, _intern([_wedge(own, entries[v]) for v in distinct],
                                                 entry_ids)))
                wanted[at[x]], entries = list(map(row.__getitem__, vs)), list(entry_ids)
            wants, gots = wanted[at[x]], list(map(at.__getitem__, met))
            for y, want, got in itertools.compress(zip(every, wants, gots), map(ne, wants, gots)):
                for p in itertools.compress(used, map(ne, entries[want], entries[got])):
                    masks = bad_at.setdefault(p, {})
                    masks[x] = masks.get(x, 0) | 1 << y
        tables.append((name, slots, a_parts, bad_at))
    report.cases += len(sides) * reach.cases

    def failing():
        """(i, j, flags) per A = i and B = j with a failing triple: flags[s][k]
        is 1 when the triple with C = k fails side s."""
        for i in range(n_a):
            bad = [{} for _ in tables]  # per side, x -> the ys with (x, y) bad for A, a mask
            for per_x, (*_, a_parts, bad_at) in zip(bad, tables):
                for x, ys in itertools.chain(*(bad_at.get(p, {}).items() for p in a_parts[i])):
                    per_x[x] = per_x.get(x, 0) | ys
            if any(bad):
                # per side and slot, the id each C in the reach holds there
                held = [list(zip(*slots[:reach.count(i, 0)])) for _, slots, *_ in tables]
                hits = functools.cache(lambda s, q, x: bytes(map(  # 1 where (x, C's id) is bad
                    set(_bits(bad[s].get(x, 0))).__contains__, held[s][q])))
                for (j,), n_k in reach.rows(i):
                    flags = [bytes(map(any, zip(*(hits(s, q, x)[:n_k]
                                                  for q, x in enumerate(slots[j])))))
                             for s, (_, slots, *_) in enumerate(tables)]
                    if any(map(any, flags)):
                        yield i, j, flags

    def read():
        for i, j, flags in failing():
            for k in itertools.compress(range(len(flags[0])), map(any, zip(*flags))):
                yield from ((name, gates[i], items[j], items[k])
                            for (name, *_), f in zip(tables, flags) if f[k])
    return _lazy(sum(f.count(1) for *_, flags in failing() for f in flags), read)


def check_action_laws(grid, size: int = 2) -> CheckReport:
    """State closure, linearity over the meet, and action/product compatibility.

    Each law walks its reach: every instance on 2x2 grid gates and states,
    or the first 100000 on Kronecker-built ones.  Entry i of As is row i of
    A against s, so images are read from a table of the rows the gates share
    against the states, per class of states that each row of the table meets
    alike.
    """
    t0 = time.perf_counter()
    grid = _Grid(grid)
    L, levels = grid.scale
    if size not in (2, 4):
        raise ValueError("size must be 2 or 4")
    n, (gates, states) = size, grid.size2 if size == 2 else grid.size4
    report = CheckReport(f"action-laws-{size}", 0, note="exhaustive")
    n_g, n_s = len(gates), len(states)
    # (A, s) of state closure, (A, s, t) of linearity and (A, B, s) of compatibility
    closing, linear, compat = (_Reach(sizes, math.prod(sizes) if size == 2 else 100000)
                               for sizes in ((n_g, n_s), (n_g, n_s, n_s), (n_g, n_g, n_s)))
    if size == 4:
        report.note = f"Kronecker-built; first {closing.cap} law instances in lexicographic order"
    elif len(levels) > 2:
        # documented counterexample: the complement is NOT an operation on
        # the state set; (0, levels[1]) maps to a vector with nonzero minimum
        comp = (L - 0, L - levels[1])
        report.cases += 1
        if _is_state(comp, L):
            report.failures.append(("complement-unexpectedly-closed", (0, levels[1]), comp))
    vids: dict = {}
    sid = _intern(states, vids)
    # State closure reaches the gates in `reach` as A, and compatibility as
    # B, and as A of (AB)s only those in `range(n_a)`.  Entry i of
    # (AB)s is (row i of A)B against s, and entry j of rB is r against column
    # j of B, so one `_mm` of those As' rows r by the distinct columns of the
    # built Bs in `reach`, each read as `_mm` reads it, gives every rB: rb[bi]
    # holds their ids.
    reach, n_a = range(max(closing.span(0), compat.span(1))), compat.span(0)
    g_rows = gates.rows[:len(reach)]
    row_ids, b_col_ids = dict(gates.row_ids), {}  # rB joins a copy, B's columns a new table
    rows = list(row_ids)
    a_rows = list(dict.fromkeys(itertools.chain(*g_rows[:n_a])))
    b_cols = [_intern([b[j::len(b) // n] for j in range(len(b) // n)], b_col_ids)
              for b in map(gates.__getitem__, reach)]
    by_col = _right_images(tuple(itertools.chain(*zip(*b_col_ids))),
                           [rows[r] for r in a_rows], n, L)
    rb = [_intern(map(itemgetter(*cs), by_col), row_ids) for cs in b_cols]
    # The gates' rows, then the rows rB, in order of first appearance: the
    # distinct rows of the first k gates are a prefix of `used` for every k,
    # as `a_rows` and the rows `_meet_law` reads are.  dots[v] is each row of
    # `used` against state v: one `_mv` of them stacked per state.
    used = list(dict.fromkeys(itertools.chain(*g_rows, *rb)))
    rows = list(row_ids)  # now with the rows rB
    stacked = tuple(itertools.chain(*map(rows.__getitem__, used)))
    dots = [_mv(stacked, v, n, L) for v in vids]
    class_ids: dict = {}  # the rows against a state -> the id of its class of states
    of_state = itemgetter(*sid)(_intern(dots, class_ids))
    by_class = dict(zip(used, zip(*class_ids)))  # row id -> that row against each class

    # As for each class of states, as ids in `image_ids`, for each gate A in `reach`
    image_ids: dict = {}
    images = [_intern(zip(*map(by_class.__getitem__, r)), image_ids) for r in g_rows]
    vectors = list(image_ids)
    not_states = {v for v, x in enumerate(vectors) if not _is_state(x, L)}
    report.cases += closing.cases

    def leaving():  # (A, s, As) with As not a state
        for (gi,), count in closing.rows() if not_states else ():
            if not not_states.isdisjoint(images[gi]):
                yield from ((gi, si, v) for si, v in enumerate(map(images[gi].__getitem__,
                                                                   of_state[:count]))
                            if v in not_states)

    def against_rows(rs, vs):
        """Each vector of `vs` against the rows with ids `rs`, a prefix of `used`
        (entry i of As is row i of A against s): read from `dots` for a
        state, by `_mv` otherwise."""
        m, stacked = len(rs), tuple(itertools.chain(*map(rows.__getitem__, rs)))
        return [dots[k][:m] if (k := vids.get(v)) is not None else _mv(stacked, v, n, L)
                for v in vs]

    # A(s ^ t) = As ^ At, a state being one slot
    linearity = _meet_law(report, gates, states, linear,
                          (("linearity", [(x,) for x in sid], vids, g_rows, against_rows),))

    # (AB)s = A(Bs) entry by entry: entry i of A(Bs) is row i of A against Bs.
    # So each B decides every class at once for each row r of the A: rB
    # against s, and r against Bs.  differs[r][B] is the mask of the
    # classes where they differ, and (A, B, s) fails when the class of s is
    # in it for some row r of A.
    against = against_rows(a_rows, vectors)  # per image, a tuple over a_rows
    differs: dict = {r: {} for r in a_rows}
    for bi in reach:  # got: r against Bs, for each class
        for r, x, got in zip(a_rows, rb[bi], zip(*map(against.__getitem__, images[bi]))):
            if by_class[x] != got:
                differs[r][bi] = sum(1 << c for c, d in enumerate(map(ne, by_class[x], got)) if d)
    report.cases += compat.cases

    def incompatible():  # (A, B, s) with s in a class that marks (A, B)
        for ai in range(n_a):
            for bi in sorted(set().union(*map(differs.__getitem__, g_rows[ai]))):
                classes = functools.reduce(or_, (differs[r].get(bi, 0) for r in g_rows[ai]))
                yield from ((ai, bi, si) for si in range(compat.count(ai, bi))
                            if classes >> of_state[si] & 1)

    report.failures = _joined(
        report.failures,
        _read_off(leaving, lambda gi, si, v: ("state-closure", gates[gi], states[si], vectors[v])),
        linearity,
        _read_off(incompatible,
                  lambda ai, bi, si: ("compatibility", gates[ai], gates[bi], states[si])))
    report.elapsed = time.perf_counter() - t0
    return report


def check_tensor_laws(grid) -> CheckReport:
    """Kronecker closure, basis enumeration, symmetry, associativity, mixed product."""
    t0 = time.perf_counter()
    grid = _Grid(grid)
    L, _ = grid.scale
    report = CheckReport("tensor-laws", 0)
    (gates, states), (kron, products) = grid.size2, grid.size4

    # e_i (x) e_j, the ket |i>|j>, is e_{2i+j}: reported as basis-ket and basis-enumeration
    e2, e4 = ([tuple(0 if k == i else L for k in range(n)) for i in range(n)] for n in (2, 4))
    kets = [(i, j, _kron_v(e2[i], e2[j], L), e4[2 * i + j])
            for i, j in itertools.product(range(2), repeat=2)]
    report.cases += 2 * len(kets)
    report.failures += [("basis-ket", (i, j), got, want) for i, j, got, want in kets if got != want]
    report.failures += [("basis-enumeration", i, j, got) for i, j, got, want in kets if got != want]

    n_s = len(states)  # u (x) v is products[i * n_s + j] for u, v = states[i], states[j]
    report.cases += 3 * n_s ** 2 + n_s ** 3  # two laws per product, symmetry, associativity
    for (u, v), w in zip(itertools.product(states, repeat=2), products):
        if len(w) != len(u) * len(v):
            report.failures.append(("dimension", u, v))
        if not _is_state(w, L):
            report.failures.append(("state-closure", u, v, w))
    for i, j in itertools.product(range(n_s), repeat=2):
        if not _mirrors(products[i * n_s + j], products[j * n_s + i]):
            report.failures.append(("symmetry", states[i], states[j]))
    for (i, u), (j, v) in itertools.product(enumerate(states), repeat=2):
        uv = products[i * n_s + j]
        for k, w in enumerate(states):
            if _kron_v(uv, w, L) != _kron_v(u, products[j * n_s + k], L):
                report.failures.append(("associativity", u, v, w))

    # Mixed product (a (x) b)(c (x) d) = ac (x) bd, column by column: for x
    # column p of c and y column q of d, column (p, q) of the left side is
    # a (x) b applied to x (x) y, and of the right side column p of ac (x) by.
    # A quadruple fails when d, among the ds in the reach, has a column y
    # where the two differ, and `mixed` holds each row (a, b, c) with its failing ds.
    n_gates = len(gates)  # c (x) d is kron gate ci * n_gates + di
    quads = _Reach((n_gates,) * 4, 20000)
    col_ids = dict(kron.col_ids)  # the images and the columns of ac (x) by join a copy
    targets, base_cols, table = list(col_ids), list(gates.col_ids), kron.columns.table

    @functools.cache
    def images(ai: int, bi: int) -> tuple[list, list]:
        """The id of each target's image under a (x) b, and b applied to each base column."""
        return (_intern(_left_images(kron[ai * n_gates + bi], targets, 4, L), col_ids),
                _left_images(gates[bi], base_cols, 2, L))

    @functools.cache
    def kron_id(u, v) -> int:  # the id of u (x) v
        return _intern([_kron_v(u, v, L)], col_ids)[0]

    mixed = []
    report.cases += quads.cases
    for (ai, bi, ci), count in quads.rows():
        (image, by), ac = images(ai, bi), _mm(gates[ai], gates[ci], 2, L)
        x0, x1 = map(table.__getitem__, gates.columns[ci])  # xq[y]: the id of c's column q (x) y
        u0, u1 = ac[0::2], ac[1::2]
        bad = [y for y, v in enumerate(by)
               if image[x0[y]] != kron_id(u0, v) or image[x1[y]] != kron_id(u1, v)]
        if ds := _bits(gates.holding(bad) & ((1 << count) - 1)):
            mixed.append((ai, bi, ci, ds))
    # gate Kronecker closure, strided sample
    sample = [(i, j) for i in range(n_gates) for j in range(i, min(i + 8, n_gates))]
    report.cases += len(sample)
    closure = [("gate-closure", gates[i], gates[j]) for i, j in sample
               if not _is_gate(kron[i * n_gates + j], 4, L)]
    report.failures = _joined(report.failures, _read_off(
        lambda: ((*row, d) for *row, ds in mixed for d in ds),
        lambda *quad: ("mixed-product", *map(gates.__getitem__, quad))), closure)
    report.note = f"mixed product: first {quads.cap} quadruples in lexicographic order"
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
    (a, b), (c, d) = m
    return (0 <= a <= scale and 0 <= b <= scale and 0 <= c <= scale and 0 <= d <= scale
            and a + c == scale and b + d == scale)


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

    report.cases += len(mats) ** 2
    for m, n in itertools.product(mats, repeat=2):
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


def _oracle_operands(gates, states, L) -> tuple[list[SMatrix], list[SVector]]:
    """Each 2x2 grid gate and grid state over fuzz-mv, held as the constructor
    holds the `UnitScalar`s x / L of its entries: the numerators x // g over
    the scale L // g, for g the gcd of L and every x."""
    def held(xs) -> tuple[list[int], int]:
        g = math.gcd(L, *xs)
        return [x // g for x in xs], L // g

    def matrix(xs) -> SMatrix:
        numerators, scale = held(xs)
        return SMatrix.over(FUZZ_MV, (numerators[:2], numerators[2:]), scale)
    return [matrix(g) for g in gates], [SVector.over(FUZZ_MV, *held(s)) for s in states]


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
    (gates, states), kron = grid.size2, grid.size4[0]
    n_g = len(gates)  # a (x) b is kron gate ai * n_g + bi
    triples = _Reach((n_g, n_g, len(states)), 10000)
    report = CheckReport("oracle-agreement", 0,
                         note=f"first {triples.cap} (A, B, v) triples in lexicographic order")
    ident = (0, L, L, 0)

    matrices, vectors = _oracle_operands(gates, states, L)

    def agrees(oracle, value: SMatrix | SVector) -> bool:
        # on numerators, as rationals: an entry past 1 disagrees, and builds no scalar
        held = value.numerators if isinstance(value, SVector) else sum(value.numerators, ())
        return [o * value.scale for o in oracle] == [x * L for x in held]

    @functools.cache
    def vector_agrees(ai: int, si: int) -> bool:
        av = _mv(gates[ai], states[si], 2, L)
        lib_av = mat_vec(matrices[ai], vectors[si])
        padded = (ident, gates[ai]), (gates[ai], ident)
        return (agrees(av, lib_av)
                and agrees(x := _kron_v(states[si], av, L), lib_x := kron_vec(vectors[si], lib_av))
                and all(agrees(_mv(_kron_m(*op, 2, 2, L), x, 4, L),
                               mat_vec_block(matrices[ai], base, lib_x))
                        for base, op in enumerate(padded)))

    @functools.cache
    def disagreeing(ai: int, count: int) -> list[int]:  # the si < count where (A, v) fails
        return [si for si in range(count) if not vector_agrees(ai, si)]

    report.cases += triples.cases
    for (ai, bi), count in triples.rows():
        a, b = matrices[ai], matrices[bi]
        pair = (agrees(_mm(gates[ai], gates[bi], 2, L), mat_mul(a, b))
                and agrees(kron[ai * n_g + bi], kron_mat(a, b)))
        report.failures += [("agreement", gates[ai], gates[bi], states[si])
                            for si in (disagreeing(ai, count) if pair else range(count))]
    report.elapsed = time.perf_counter() - t0
    return report


# Each check `run_all` makes, in its order, and whether a forked child counts
# it where `count_all` runs in two processes.  The child takes the two
# costliest, `action-laws-4` and `oracle-agreement`, 28.0 and 21.6 ms on
# `standard`, against 52.4 ms for the other nine (in-process medians of 21
# runs on a prebuilt `_Grid`, Python 3.11, a shared 2-vCPU host).  The table
# is read at call time, so a check or instance patched into this module is
# the one that runs.
_CHECKS = (
    (False, lambda grid: check_semiring_axioms(FUZZ_MV, grid)),
    (False, lambda grid: check_semiring_axioms(MAX_MIN, grid)),
    (False, lambda grid: check_semiring_axioms(VITERBI, grid)),
    (False, lambda grid: check_semiring_axioms(BOOLEAN, (UnitScalar(0), UnitScalar(1)))),
    (False, lambda grid: check_mv_gate_laws(grid, 2)),
    (False, lambda grid: check_mv_gate_laws(grid, 4)),
    (False, lambda grid: check_action_laws(grid, 2)),
    (True, lambda grid: check_action_laws(grid, 4)),
    (False, lambda grid: check_tensor_laws(grid)),
    (False, lambda grid: check_stochastic_semigroup(grid)),
    (True, lambda grid: check_oracle_agreement(grid)),
)


def run_all(grid_name: str = "standard") -> list[CheckReport]:
    """Every check on the named grid, in a stable order."""
    grid = _Grid(grid_values(grid_name))
    return [check(grid) for _, check in _CHECKS]


def _forks() -> bool:
    """Whether `count_all` forks a child for the child's share of `_CHECKS`:
    where two CPUs are usable (`os.sched_getaffinity`, else
    `os.cpu_count()`) and `os.fork` exists.  Not while another thread runs,
    since forking a threaded process can deadlock the child (and Python
    3.12+ warns of it), nor while a check is wrapped (`functools.wraps`
    leaves `__wrapped__`), as a tracer or profiler wraps one to see its
    calls, which it would not see in a child.  One child at most: one and
    two processes are the only counts measured, on a 2-vCPU host."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    checks = [globals()[name] for name in __all__ if name.startswith("check_")]
    if any(hasattr(check, "__wrapped__") for check in checks):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) > 1


def _count(k: int, grid) -> tuple[str, int, int]:
    """(name, cases, failure count) of check k on `grid`."""
    report = _CHECKS[k][1](grid)
    return report.name, report.cases, len(report.failures)


def count_all(grid_name: str = "standard") -> list[tuple[str, int, int]]:
    """(name, cases, failure count) of each report `run_all` gives, in its
    order, as `verify` prints them.

    This process builds the grid's families, then, where `_forks()`, forks
    one child for the checks `_CHECKS` marks; it inherits the families, and
    whatever this module holds patched, and sends back only its counts,
    pickled, through its own pipe, and writes nothing else.  The child is
    reaped, and killed first if it still runs, before this process counts
    itself a share whose counts did not arrive, for want of a pipe or a
    process, or as a check raised in the child or it ended.  No exception
    crosses a process: the first check to raise here raises from its own
    count (this process's share first, then the child's, each in
    `run_all`'s order).  A report's failures are only counted: `_Failures`
    cannot cross a process, so `run_all` stays in-process.
    """
    grid = _Grid(grid_values(grid_name))
    grid.size2, grid.size4  # built once, here, for the child too
    forks = _forks()
    ours = [k for k, (child, _) in enumerate(_CHECKS) if not (child and forks)]
    theirs = [k for k in range(len(_CHECKS)) if k not in ours]
    got, pid, pipe, fds = {}, 0, None, ()
    try:
        if theirs:
            gc.freeze()  # the child's collections then leave the pages it shares unwritten
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError:  # no pipe or no process to spare: the share is counted here
                for fd in fds:
                    os.close(fd)
            else:
                if pid == 0:
                    try:  # one write of less than PIPE_BUF bytes, so the pipe takes it whole
                        os.write(fds[1], pickle.dumps([_count(k, grid) for k in theirs]))
                    finally:
                        os._exit(0)
                os.close(fds[1])
                pipe = open(fds[0], "rb")
            finally:
                gc.unfreeze()
        got.update((k, _count(k, grid)) for k in ours)
        if pipe:
            with contextlib.suppress(EOFError, pickle.UnpicklingError):  # no counts came
                got.update(zip(theirs, pickle.load(pipe)))
    finally:
        if pipe:
            pipe.close()
        if pid and os.waitpid(pid, os.WNOHANG)[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [got.get(k) or _count(k, grid) for k in range(len(_CHECKS))]
