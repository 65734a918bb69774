"""Independent oracles used by the tests.

These deliberately avoid the library's own machinery where the point is to
cross-check it: arc ends and splices read off the Gauss code, circle
counting by union-find instead of tracing, a dense classical Khovanov
construction with no twist data, and a standalone dense elimination for
ranks.  Of the library they import only ``tqft.elementary_map``, the
blocks that ``assembled_differential`` places by hand.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from vlinkhom.tqft import elementary_map


# -- arc ends and splices, read off the Gauss code ------------------------------

def crossing_ends(d):
    """{label: (Oi, Oo, Ui, Uo)}, the four arc ends at each crossing.  The
    arcs are numbered along the components in order, arc k running from its
    passage to the next one (cyclically), with tail end 2k and head end
    2k + 1; a passage is entered by the head of the arc before it (in) and
    left by the tail of its own arc (out)."""
    ends, first = {}, 0
    for comp in d.components:
        for pos, (label, over, _) in enumerate(comp):
            into = 2 * (first + (pos - 1) % len(comp)) + 1
            ends.setdefault(label, {})[over] = (into, 2 * (first + pos))
        first += len(comp)
    return {label: at[True] + at[False] for label, at in ends.items()}


def splice_pairing(d, bits):
    """{end: the end it is joined to} once crossing j (from 1) is smoothed by
    the j-th of ``bits``.  A positive crossing's 0-smoothing keeps the flow
    (over-in to under-out, under-in to over-out), and its 1-smoothing joins
    the two ins and the two outs; at a negative crossing the two swap."""
    sign = {label: s for comp in d.components for label, _, s in comp}
    ends, pairing = crossing_ends(d), {}
    for label, bit in zip(sorted(ends), bits):
        oi, oo, ui, uo = ends[label]
        flow = (bit == 0) == (sign[label] > 0)
        for a, b in ((oi, uo), (ui, oo)) if flow else ((oi, ui), (oo, uo)):
            pairing[a], pairing[b] = b, a
    return pairing


# -- circle counting by union-find -------------------------------------------

def circle_count(d, bits):
    """k(s) computed by union-find over arc ends (no tracing)."""
    pairing = splice_pairing(d, bits)
    arcs = sum(map(len, d.components))
    parent = list(range(2 * arcs))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for arc in range(arcs):
        union(2 * arc, 2 * arc + 1)
    for e, partner in pairing.items():
        union(e, partner)
    roots = {find(2 * arc) for arc in range(arcs)}
    free_loops = sum(1 for comp in d.components if not comp)
    return len(roots) + free_loops


# -- dense rank oracles -------------------------------------------------------

def rank_f2_dense(rows):
    """Rank over GF(2) of a dense 0/1 matrix (list of lists), no bitmasks."""
    rows = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_qq_dense(rows):
    """Rank over QQ of a dense matrix of rationals.

    Each row is scaled by the lcm of its denominators to integers, and the
    integer matrix is reduced by fraction-free (Bareiss) elimination: after
    k pivots every entry below them is a (k+1)-minor of the integer matrix,
    so each division by the previous pivot is exact and entries stay as
    small as those minors.
    """
    ints = []
    for r in rows:
        r = [Fraction(x) for x in r]
        scale = lcm(*(x.denominator for x in r))
        if any(r):
            ints.append([x.numerator * (scale // x.denominator) for x in r])
    ncols = len(ints[0]) if ints else 0
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(ints)) if ints[i][col]), None)
        if pivot is None:
            continue
        ints[rank], ints[pivot] = ints[pivot], ints[rank]
        top = ints[rank]
        p = top[col]
        for i in range(rank + 1, len(ints)):
            f = ints[i][col]
            ints[i] = [(p * a - f * b) // prev for a, b in zip(ints[i], top)]
        prev = p
        rank += 1
    return rank


def rank_fp_dense(rows, p):
    """Rank over GF(p) of a dense integer matrix, full reduced echelon form."""
    rows = [[x % p for x in r] for r in rows]
    rows = [r for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def pivot_rows_markowitz(rows, field):
    """The pivot rows of a sparse matrix ``{row: {col: nonzero}}`` of field
    elements, by the field's own arithmetic, in the order they were pivoted
    on; ``rows`` is left as it is.  The reference for the pivot lists of
    ``_linalg.pivot_rows`` on ints: the same Markowitz choice (the shortest
    live row, the first of them in the order of ``rows``, at its column held
    by the fewest live rows), by a scan of the live rows instead of a heap,
    and each row cleared by adding -f/pv times the pivot row."""
    live = {r: dict(cols) for r, cols in rows.items() if cols}
    order = {r: k for k, r in enumerate(live)}
    pivots = []
    while live:
        r = min(live, key=lambda r: (len(live[r]), order[r]))
        prow = live.pop(r)
        pivots.append(r)
        held = {c: sum(c in cols for cols in live.values()) for c in prow}
        pc = min(prow, key=held.__getitem__)
        ratio = field.neg(field.inv(prow[pc]))
        for s in [s for s, cols in live.items() if pc in cols]:
            row, m = live[s], field.mul(live[s][pc], ratio)
            for c, v in prow.items():
                x = field.add(row.get(c, field.zero), field.mul(m, v))
                if field.is_zero(x):
                    row.pop(c, None)
                else:
                    row[c] = x
            if not row:
                del live[s]
    return pivots


def dense_betti_qq(complex_):
    """Betti numbers recomputed densely with the standalone eliminator."""
    ranks = {}
    for i in range(complex_.min_degree, complex_.max_degree):
        m = complex_.differentials[i]
        dense = [[Fraction(0)] * m.ncols for _ in range(m.nrows)]
        for (r, c), v in m.entries:
            dense[r][c] = Fraction(v)
        ranks[i] = rank_qq_dense(dense)
    betti = {}
    for i in complex_.degrees:
        b = complex_.groups[i].dim - ranks.get(i, 0) - ranks.get(i - 1, 0)
        if b:
            betti[i] = b
    return betti


# -- first nonzero entry of a composite, by a plain dict product -------------

def first_nonzero_product(maps, characteristic):
    """(j, row, col, value) of the first nonzero entry of maps[j + 1] o maps[j]
    over Q (characteristic 0) or GF(p), at the lowest j, then row, then
    column; None if every product vanishes.

    ``maps`` lists each map's ((row, col), value) entries.  Each product is
    formed whole in a {(row, col): value} dict, with Fractions over Q and
    ints reduced mod p otherwise.
    """
    p = characteristic

    def norm(x):
        return Fraction(x) if p == 0 else int(x) % p

    for j in range(len(maps) - 1):
        right = {}
        for (mid, c), v in maps[j]:
            right.setdefault(mid, []).append((c, norm(v)))
        prod = {}
        for (r, mid), w in maps[j + 1]:
            for c, v in right.get(mid, ()):
                prod[(r, c)] = norm(prod.get((r, c), 0) + norm(w) * v)
        nonzero = sorted(rc for rc, x in prod.items() if x != 0)
        if nonzero:
            r, c = nonzero[0]
            return j, r, c, prod[(r, c)]
    return None


def chain_label(group, index):
    """(state, decoration) of a chain group's basis vector, by a linear scan
    over the states' offsets; decorations are big-endian, 1 before x."""
    state = max((s for s in group.states if group.offsets[s] <= index),
                key=group.offsets.get)
    k = len(group.smoothings[state].keys)
    local = index - group.offsets[state]
    return state, "".join("x" if (local >> (k - 1 - i)) & 1 else "1" for i in range(k))


def first_nonzero_d_squared(complex_):
    """(degree, source label, target label, value) of the first nonzero entry
    of d o d, from ``first_nonzero_product``; None if d o d = 0."""
    lo = complex_.min_degree
    maps = [complex_.differentials[i].entries for i in range(lo, complex_.max_degree)]
    hit = first_nonzero_product(maps, complex_.theory.field.characteristic)
    if hit is None:
        return None
    j, r, c, value = hit
    return (lo + j, chain_label(complex_.groups[lo + j], c),
            chain_label(complex_.groups[lo + j + 2], r), value)


# -- a differential assembled edge by edge, on decoded basis vectors ----------

def assembled_differential(complex_, i):
    """{(row, col): nonzero value} of d^i of ``complex_`` over its field,
    summed edge by edge over ``complex_.edges``.  Each basis vector of an
    edge's source state is decoded into one decoration bit per circle key
    (big-endian, 1 before x); the saddle's block (``tqft.elementary_map``)
    maps the bits of the circles ``bottom`` to those of ``top``, the other
    circles keep their bits by key, and the image is negated for an odd
    ``sign_exponent``.  No placement or scatter of the library is used."""
    th, src, tgt = complex_.theory, complex_.groups[i], complex_.groups[i + 1]
    F, sms, states = th.field, complex_.smoothings, set(src.states)
    out = {}
    for e in complex_.edges:
        if e.from_state not in states:
            continue
        block = elementary_map(th, e.kind, e.twist_in, e.twist_out)
        src_keys, tgt_keys = sms[e.from_state].keys, sms[e.to_state].keys
        for local in range(1 << len(src_keys)):
            bits = {key: local >> (len(src_keys) - 1 - p) & 1
                    for p, key in enumerate(src_keys)}
            col = 0
            for key in e.bottom:
                col = col << 1 | bits[key]
            for (r, c), v in block.entries:
                if c != col:
                    continue
                image = {key: b for key, b in bits.items() if key not in e.bottom}
                image.update((key, r >> (len(e.top) - 1 - p) & 1)
                             for p, key in enumerate(e.top))
                row = 0
                for key in tgt_keys:
                    row = row << 1 | image.pop(key)
                assert not image, "the spectators must be circles of the target"
                at = (tgt.offsets[e.to_state] + row, src.offsets[e.from_state] + local)
                out[at] = F.add(out.get(at, F.zero), F.neg(v) if e.sign_exponent % 2 else v)
    return {at: v for at, v in out.items() if not F.is_zero(v)}


# -- the placement of a cube edge, by circle keys ------------------------------

def edge_table(smoothings, sd, flips=()):
    """(row offset, column offset, block key, placement arguments) of the
    cube edge ``sd``, a ``SaddleDescriptor``, under the anchor ``flips``, a
    set of (state, circle key) pairs.  The offsets are recomputed from the
    states' circle counts, and the affected and phi'd circles are named by
    their keys and looked up among their states' keys."""
    s, t = sd.from_state, sd.to_state

    def offset(state):
        return sum(1 << sm.k for u, sm in smoothings.items()
                   if sm.r == state.count("1") and u < state)

    src_keys, tgt_keys = smoothings[s].keys, smoothings[t].keys
    bottom, top, twist_in, twist_out = sd.bottom, sd.top, sd.twist_in, sd.twist_out
    spectators = [k for k in src_keys if k not in bottom]
    assert spectators == [k for k in tgt_keys if k not in top], \
        "unaffected circles must match across the edge"
    twist_in = tuple(b ^ ((s, k) in flips) for b, k in zip(twist_in, bottom))
    twist_out = tuple(b ^ ((t, k) in flips) for b, k in zip(twist_out, top))
    phi_keys = tuple(k for k in spectators if ((s, k) in flips) != ((t, k) in flips))
    key = (sd.kind, twist_in, twist_out, len(phi_keys), sd.sign_exponent & 1)
    where = (tuple(src_keys.index(k) for k in bottom + phi_keys), len(src_keys),
             tuple(tgt_keys.index(k) for k in top + phi_keys), len(tgt_keys))
    return offset(t), offset(s), key, where


# -- the orientation count of rows 2 and 5 -----------------------------------

def orientation_betti(d):
    """Betti numbers under rows 2 and 5 (h = 1, theta = 0), read off the
    Gauss code alone: one generator for each of the 2^c orientations o of
    the c components, in degree r(o) - n_minus.  r(o) counts the crossings
    that are negative once o is applied, i.e. where the o-oriented splice is
    the 1-smoothing: the negative crossings whose two strands o reverses
    alike, and the positive ones whose strands o reverses differently.
    This is the count of Lee and of Turner (arXiv:math/0411225) in
    characteristic two."""
    comp_of = {}  # crossing -> [component of each passage]
    for ci, comp in enumerate(d.components):
        for label, _, sign in comp:
            comp_of.setdefault(label, [sign]).append(ci)
    n_minus = sum(1 for sign, _, _ in comp_of.values() if sign < 0)
    betti = {}
    for reversed_ in range(1 << len(d.components)):
        r = sum(1 for sign, a, b in comp_of.values()
                if (sign < 0) == ((reversed_ >> a & 1) == (reversed_ >> b & 1)))
        betti[r - n_minus] = betti.get(r - n_minus, 0) + 1
    return betti


# -- the parity count of theta != 0 on knots ------------------------------------

def parity_betti(d):
    """Betti numbers of a knot (a one-component diagram) under a theory
    with theta != 0, read off the Gauss code alone: two generators in the
    one degree that sums sign(c) over the odd crossings c.  A crossing is
    odd when an odd number of passages lie strictly between its two
    passages in the Gauss word: Gaussian parity, as in Manturov, *Parity
    in knot theory* (Sb. Math. 2010)."""
    (word,) = d.components
    first, degree = {}, 0
    for position, (label, _, sign) in enumerate(word):
        if label not in first:
            first[label] = position
        elif (position - first[label] - 1) % 2:
            degree += sign
    return {degree: 2}


# -- the vanishing rule of theta != 0 on links ----------------------------------

def theta_total_betti(d):
    """The total Betti number of ``d`` under a theory with theta != 0, read
    off the Gauss code alone: 0 when some component meets the other
    components in an odd total number of crossings, else 2^c for its c
    components.  Three components that meet pairwise once meet the others
    twice each, so a test of the pairs alone is not this rule."""
    comps_of = {}  # crossing -> the component of each of its two passages
    for ci, comp in enumerate(d.components):
        for label, _, _ in comp:
            comps_of.setdefault(label, []).append(ci)
    meets = [0] * len(d.components)
    for a, b in comps_of.values():
        if a != b:
            meets[a] += 1
            meets[b] += 1
    return 0 if any(m % 2 for m in meets) else 1 << len(d.components)


# -- classical Khovanov over F2 (planar diagrams, no twist machinery) --------

def classical_khovanov_f2_betti(d, smoothings):
    """Betti numbers of the classical Khovanov complex over F2.

    Valid for planar-realizable diagrams only: every saddle must change the
    circle count by one.  Uses the Frobenius algebra with x*x = 0,
    Delta(1) = 1(x)x + x(x)1, Delta(x) = x(x)x; signs are irrelevant mod 2.
    """
    n, n_minus = d.n, d.n_minus
    states_by_r = {}
    for state, sm in smoothings.items():
        states_by_r.setdefault(sm.r, []).append(state)
    for r in states_by_r:
        states_by_r[r].sort()

    def group(r):
        offsets, dim = {}, 0
        for s in states_by_r.get(r, []):
            offsets[s] = dim
            dim += 1 << smoothings[s].k
        return offsets, dim

    def decorations(state, index):
        k = smoothings[state].k
        return [(index >> (k - 1 - i)) & 1 for i in range(k)]

    def index_of(state, dec):
        idx = 0
        for b in dec:
            idx = (idx << 1) | b
        return idx

    ends_at, ranks = crossing_ends(d), {}
    for r in range(n):
        src_off, src_dim = group(r)
        tgt_off, tgt_dim = group(r + 1)
        rows = [[0] * src_dim for _ in range(tgt_dim)]
        for s in states_by_r.get(r, []):
            ss = smoothings[s]
            for j in range(n):
                if s[j] == "1":
                    continue
                t = s[:j] + "1" + s[j + 1:]
                st = smoothings[t]
                ends = ends_at[j + 1]
                bottom = sorted({ss.arc_circle[e >> 1] for e in ends})
                top = sorted({st.arc_circle[e >> 1] for e in ends})
                assert {len(bottom), len(top)} == {1, 2}, \
                    "classical oracle needs planar (merge/split) saddles"
                src_keys = ss.keys
                tgt_keys = st.keys
                for src_idx in range(1 << ss.k):
                    dec = decorations(s, src_idx)
                    spect = {src_keys[i]: dec[i] for i in range(ss.k)
                             if i not in bottom}
                    if len(bottom) == 2:  # merge: x*x = 0
                        a, b = dec[bottom[0]], dec[bottom[1]]
                        if a and b:
                            continue
                        out_vals = [{tgt_keys[top[0]]: a | b}]
                    else:                 # split
                        v = dec[bottom[0]]
                        k1, k2 = tgt_keys[top[0]], tgt_keys[top[1]]
                        if v:
                            out_vals = [{k1: 1, k2: 1}]
                        else:
                            out_vals = [{k1: 0, k2: 1}, {k1: 1, k2: 0}]
                    for out in out_vals:
                        full = dict(spect)
                        full.update(out)
                        tdec = [full[k] for k in tgt_keys]
                        row = tgt_off[t] + index_of(t, tdec)
                        col = src_off[s] + src_idx
                        rows[row][col] ^= 1
        ranks[r] = rank_f2_dense(rows)

    betti = {}
    for r in range(n + 1):
        _, dim = group(r)
        b = dim - ranks.get(r, 0) - ranks.get(r - 1, 0)
        if b:
            betti[r - n_minus] = b
    return betti
