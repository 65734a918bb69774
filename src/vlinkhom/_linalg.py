"""Exact rank computation over the supported fields.

``matrix_rank(entries, field)`` is the one entry point: it takes the
nonzero ``((row, col), value)`` entries of a matrix, such as a
differential's ``entries`` or one q-layer of them, and dispatches on the
field. Over Q and GF(p) a differential is eliminated sparsely with Markowitz
pivoting (``rank_sparse``): rows stay ``{col: nonzero}`` dicts, a column
index tracks which live rows hold each column, and each pivot is chosen
to keep fill-in small. Over GF(2) rows are bitmasks (Python ints) and are
reduced by XOR (``rank_gf2_rows``).
"""

from __future__ import annotations

from .fields import PrimeField


def rank_gf2_rows(rows):
    """Rank of a GF(2) matrix given as an iterable of bitmask rows."""
    pivots = {}
    rank = 0
    for row in rows:
        while row:
            p = row.bit_length() - 1
            other = pivots.get(p)
            if other is None:
                pivots[p] = row
                rank += 1
                break
            row ^= other
    return rank


def rank_sparse(rows, field):
    """Rank of a sparse matrix ``{row: {col: nonzero}}``; ``rows`` is consumed.

    Each step pivots on the shortest live row, at its column held by the
    fewest live rows, clears that column from every other row holding it
    and retires the pivot row. Entries that cancel are dropped at once, so
    rows and the column index hold nonzeros only.
    """
    live = {r: cols for r, cols in rows.items() if cols}
    holders = {}
    for r, cols in live.items():
        for c in cols:
            holders.setdefault(c, set()).add(r)
    add, mul, is_zero = field.add, field.mul, field.is_zero
    rank = 0
    while live:
        r = min(live, key=lambda k: len(live[k]))
        prow = live.pop(r)
        for c in prow:
            holders[c].discard(r)
        pc = min(prow, key=lambda c: len(holders[c]))
        minus_inv = field.neg(field.inv(prow.pop(pc)))
        prow = {c: mul(v, minus_inv) for c, v in prow.items()}
        for s in holders.pop(pc):
            row = live[s]
            f = row.pop(pc)
            for c, v in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = mul(f, v)
                    holders[c].add(s)
                else:
                    x = add(old, mul(f, v))
                    if is_zero(x):
                        del row[c]
                        holders[c].discard(s)
                    else:
                        row[c] = x
            if not row:
                del live[s]
        rank += 1
    return rank


def matrix_rank(entries, field):
    """Rank of the matrix with the nonzero ``((row, col), value)`` entries,
    over ``field``: XOR bitsets over GF(2), sparse elimination otherwise."""
    if isinstance(field, PrimeField) and field.p == 2:
        bit_rows = {}
        for (r, c), v in entries:
            if v % 2:
                bit_rows[r] = bit_rows.get(r, 0) | (1 << c)
        return rank_gf2_rows(bit_rows.values())
    rows = {}
    for (r, c), v in entries:
        rows.setdefault(r, {})[c] = v
    return rank_sparse(rows, field)
