"""Exact sparse linear algebra over the supported fields.

``ExactLinearMap`` is the one sparse matrix type: nonzero scalars stored
row-major as ``{row: {col: value}}``, the layout that the structure maps of
``algebra``, the saddle blocks of ``tqft``, the cube assembly, the d o d
check and elimination all read.  A vector is a one-column map.

Elimination and the d o d check read rows of ints, never change them, and
are keyed by the characteristic p.  ``_int_rows`` lifts field elements to
such rows: GF(p) elements to ints in (-p/2, p/2], and rationals times a
scale, the lcm of their denominators.  ``homology`` lifts each distinct
block of a theory once and scatters ints, which a built complex keeps;
``_field_rows`` divides them back into field elements only for the
complex's field view.

``pivot_rows(rows, p, skip)`` is the one elimination routine. It returns
the pivot rows of the matrix with the columns ``skip`` removed: the keys of
a maximal independent set of its rows, so their number is its rank. Over
GF(2) each row becomes a bitmask (a Python int) of its columns not skipped,
and rows are reduced by XOR (``pivot_rows_gf2``). Otherwise a copy of the
rows, without those columns, is eliminated sparsely with Markowitz pivoting
(``pivot_rows_sparse``): rows stay ``{col: nonzero}`` dicts, a column index
tracks which live rows hold each column, and each pivot is chosen to keep
fill-in small.  Each step is reduced mod p over GF(p) and fraction-free
over Q, so no entry is ever a ``Fraction``.

The columns to skip come from the Gaussian-elimination lemma of Bar-Natan,
*Fast Khovanov homology computations* (J. Knot Theory Ramifications, 2007,
arXiv:math/0606318, section 3). Let R be the pivot rows of d^i, which are
generators of C^(i+1). Then d^(i+1) with the columns R removed has the rank
of d^(i+1), with no correction term. For each r in R the image of d^i holds
a vector e_r + (terms off R), since the rows R of d^i have full rank. So
d^(i+1) e_r lies in the span of d^(i+1) on the columns off R, as
d^(i+1) d^i = 0.

``first_nonzero(left, right, field)`` finds the first nonzero entry of a
product of two integer maps without storing it: it builds one output row at
a time, as a set of columns added by symmetric difference over GF(2) and as
plain Python ints otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from heapq import heapify, heappop, heappush
from itertools import filterfalse
from math import gcd, lcm
from operator import or_

from .errors import DimensionMismatch


# ---------------------------------------------------------------------------
# sparse exact matrices

@dataclass(frozen=True)
class ExactLinearMap:
    """A linear map stored row-major as a sparse {row: {col: scalar}} table."""

    field: object
    nrows: int
    ncols: int
    rows: dict  # row -> {col: scalar}, zeros and empty rows omitted

    @staticmethod
    def make(field, nrows, ncols, entry_map):
        rows = {}
        for (r, c), v in entry_map.items():
            if not field.is_zero(v):
                rows.setdefault(r, {})[c] = v
        return ExactLinearMap(field, nrows, ncols, rows)

    @staticmethod
    def identity(field, n):
        return ExactLinearMap.make(field, n, n, {(i, i): field.one for i in range(n)})

    @cached_property
    def entries(self):
        """The nonzero ((row, col), scalar) entries, sorted row-major."""
        return tuple(((r, c), row[c]) for r, row in sorted(self.rows.items())
                     for c in sorted(row))

    def entry(self, r, c):
        """The scalar at (r, c), zero where none is stored."""
        return self.rows.get(r, {}).get(c, self.field.zero)

    def entry_map(self):
        return {(r, c): v for r, row in self.rows.items() for c, v in row.items()}

    def compose(self, other):
        """self o other (apply ``other`` first)."""
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"compose: {self.nrows}x{self.ncols} after {other.nrows}x{other.ncols}")
        F = self.field
        out = {}
        for r, row in self.rows.items():
            for mid, w in row.items():
                for c, v in other.rows.get(mid, {}).items():
                    out[(r, c)] = F.add(out.get((r, c), F.zero), F.mul(w, v))
        return ExactLinearMap.make(F, self.nrows, other.ncols, out)

    def kron(self, other):
        """Tensor product of maps (self on the first factor)."""
        F = self.field
        out = {}
        for (r1, c1), v1 in self.entry_map().items():
            for (r2, c2), v2 in other.entry_map().items():
                out[(r1 * other.nrows + r2, c1 * other.ncols + c2)] = F.mul(v1, v2)
        return ExactLinearMap.make(F, self.nrows * other.nrows,
                                   self.ncols * other.ncols, out)

    def add(self, other):
        """The entrywise sum self + other, zero-free."""
        F = self.field
        out = self.entry_map()
        for key, v in other.entry_map().items():
            out[key] = F.add(out.get(key, F.zero), v)
        return ExactLinearMap.make(F, self.nrows, self.ncols, out)

    def negated(self):
        """The map -self, zero-free like self."""
        F = self.field
        return ExactLinearMap(F, self.nrows, self.ncols, {
            r: {c: F.neg(v) for c, v in row.items()} for r, row in self.rows.items()})

    def is_zero(self):
        return not self.rows


def compose(*maps):
    """compose(f, g, h) = f o g o h."""
    out = maps[0]
    for m in maps[1:]:
        out = out.compose(m)
    return out


# ---------------------------------------------------------------------------
# elimination

def pivot_rows_gf2(rows):
    """The pivot rows of a GF(2) matrix given as ``(key, bitmask)`` pairs:
    the keys of the rows that did not reduce to zero against the earlier
    pivots, in the order they became pivots."""
    pivots, keys = {}, []
    for key, row in rows:
        while row:
            p = row.bit_length() - 1
            other = pivots.get(p)
            if other is None:
                pivots[p] = row
                keys.append(key)
                break
            row ^= other
    return keys


def pivot_rows_sparse(rows, p):
    """The pivot rows of a sparse integer matrix ``{row: {col: nonzero}}``
    over GF(p), p odd, or over Q for p = 0, in the order they were pivoted
    on; ``rows`` is consumed.

    Each step pivots on the shortest live row, the first of them in the
    order of ``rows``, at its column held by the fewest live rows, clears
    that column from every other row holding it and retires the pivot row.
    Entries that cancel are dropped at once, so rows and the column index
    hold nonzeros only. A row is only ever changed by adding multiples of
    pivot rows, and over Q by scaling it by a nonzero int, so every row that
    empties out lies in the span of the pivot rows: they are a maximal
    independent set of the original rows, and their number is the rank.

    Over GF(p) a row gains -f/pv times the pivot row, f its entry and pv the
    pivot's at the pivot column, reduced mod p.  Over Q the step is
    fraction-free (Bareiss, Math. Comp. 1968, without its division): with
    g = gcd(pv, f) the row becomes (pv/g) row - (f/g) pivot row, and it is
    scaled only when pv/g is not +-1.  That row is a nonzero multiple of the
    one a step over the rationals would give, so every row has the same
    zeros, and the same pivots are chosen, as in an elimination over Q.

    The shortest row comes off a heap of (length, position, row) entries:
    a row changed by a step is pushed again with its new length, and an entry
    whose row has since been retired or changed length is skipped when it
    comes off. So a step costs a heap push per row it changes, not a scan of
    every live row.
    """
    live = {r: cols for r, cols in rows.items() if cols}
    position = {r: k for k, r in enumerate(live)}
    heap = [(len(cols), k, r) for k, (r, cols) in enumerate(live.items())]
    heapify(heap)
    holders = {}
    for r, cols in live.items():
        for c in cols:
            holders.setdefault(c, set()).add(r)
    pivots = []
    while live:
        length, _, r = heappop(heap)
        prow = live.get(r)
        if prow is None or len(prow) != length:
            continue
        del live[r]
        pivots.append(r)
        for c in prow:
            holders[c].discard(r)
        pc = min(prow, key=lambda c: len(holders[c]))
        pv = prow.pop(pc)
        if p:
            minus_inv = -pow(pv, -1, p)
        for s in holders.pop(pc):
            row = live[s]
            f = row.pop(pc)
            # row <- a row + m prow
            if p:
                m = f * minus_inv % p
            else:
                g = gcd(pv, f)
                a, m = pv // g, -f // g
                if a < 0:
                    a, m = -a, -m
                if a != 1:
                    for c in row:
                        row[c] *= a
            for c, v in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = m * v % p if p else m * v
                    holders[c].add(s)
                else:
                    x = (old + m * v) % p if p else old + m * v
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                        holders[c].discard(s)
            if row:
                heappush(heap, (len(row), position[s], s))
            else:
                del live[s]
    return pivots


def pivot_rows(rows, p, skip=()):
    """The pivot rows of the integer rows ``{row: {col: nonzero}}`` over the
    field of characteristic ``p`` with the columns ``skip`` removed: a
    maximal independent set of its rows, whose number is its rank. XOR
    bitsets over GF(2), sparse elimination of a copy otherwise."""
    skip = set(skip)
    if p == 2:
        # or-ing big ints is much cheaper than adding them
        return pivot_rows_gf2(
            (r, reduce(or_, map((1).__lshift__, filterfalse(skip.__contains__, cols)), 0))
            for r, cols in rows.items())
    return pivot_rows_sparse({r: {c: v for c, v in cols.items() if c not in skip}
                              for r, cols in rows.items()}, p)


# ---------------------------------------------------------------------------
# field elements as ints

def _int_rows(rows, field):
    """``({row: {col: int}}, scale)``: the rows times ``scale`` as ints.

    Over Q the scale is the lcm of the denominators. GF(p) elements are
    lifted to ints in (-p/2, p/2], so the usual entries +-1 cancel as ints,
    at scale 1.
    """
    p = field.characteristic
    if p == 0:
        scale = lcm(*{v.denominator for row in rows.values() for v in row.values()})
        return {r: {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
                for r, row in rows.items()}, scale
    half = p // 2
    return {r: {c: v - p if v > half else v for c, v in row.items()}
            for r, row in rows.items()}, 1


def _field_rows(rows, scale, field):
    """The rows of ints ``rows`` divided by ``scale``, as elements of
    ``field``: the inverse of ``_int_rows``.  Each distinct value is
    converted once."""
    of = {v: field.div(field.from_int(v), field.from_int(scale))
          for v in {v for row in rows.values() for v in row.values()}}
    return {r: {c: of[v] for c, v in row.items()} for r, row in rows.items()}


def first_nonzero(left, right, field):
    """The first nonzero entry ``(row, col, value)`` of left o right, two
    maps given as ``(rows of ints, scale)``, each the map times its scale as
    ``_int_rows`` gives it, in row then column order, or None.

    The product is built one output row at a time and never stored.  Over
    GF(2) a row is a set of columns, and adding a row of ``right`` is a
    symmetric difference with its dict of columns.  Otherwise the sums are
    of plain ints: over GF(p) each is reduced once, and over Q it is exact
    because left o right vanishes exactly when (L left) o (R right) does,
    L and R their scales; the witness is divided back.
    """
    (left, left_scale), (right, right_scale) = left, right
    p, empty = field.characteristic, {}
    if p == 2:
        for r in sorted(left):
            acc = set()
            for mid in left[r]:
                acc.symmetric_difference_update(right.get(mid, empty))
            if acc:
                return r, min(acc), 1
        return None
    for r in sorted(left):
        acc = {}
        for mid, w in left[r].items():
            for c, v in right.get(mid, empty).items():
                acc[c] = acc.get(c, 0) + w * v
        if not any(acc.values()):
            continue
        hits = [c for c, x in acc.items() if (x % p if p else x)]
        if hits:
            c = min(hits)
            return r, c, field.div(field.from_int(acc[c]),
                                   field.from_int(left_scale * right_scale))
    return None
