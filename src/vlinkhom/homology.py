"""The chain complex of a diagram under a chosen theory, and its homology.

Chain groups live in homological degrees i = r(s) - n_minus.  The group at
degree i is the direct sum over states s with r(s) = i + n_minus of
V^(x)k(s), with states in lexicographic order, circles in canonical order
and decorations ordered with the unit before x; one pass over the smoothings
groups the states by r(s).  Each cube edge contributes (-1)^<s,t> times the
block of its saddle, scattered over the unaffected circles by bit
arithmetic on the basis indices straight into the differential's rows
``{row: {col: value}}``; nothing is sorted or filtered, as the blocks are
zero-free and distinct edges fill disjoint blocks.  Every row and column
key is the int object ``ints[index]`` of the cube's one table ``ints``, so
an index is one int, shared by every differential, guard, layer and pivot
list that names it, not a fresh int per entry.  The cube keeps one
record per edge, in one table per degree, and one generator scatters the
differentials one degree at a time, upward: ``build_complex`` keeps them
all, the streamed pass one at a time.  An anchor flip enters as a toggled
twist bit of the merge/split it feeds, or as a factor phi for a circle the
saddle does not touch.  A complex above MAX_CHAIN_DIM generators is refused
before it is built or as it is smoothed.

The work is split by what it depends on, as in Bar-Natan's geometric
formalism, where the cube and its saddles belong to the diagram and the
theory only evaluates them:

- once per diagram object: the smoothings, one table of each state's
  offset within its degree, the chain groups, the index table ``ints`` as
  long as the largest of them and, from one pass over
  ``diagram.saddles``, one record per edge in the list of its degree: its
  two offsets, block key (kind, twist_in, twist_out, phi'd spectators,
  sign parity), placement, and source and target smoothings.
  This cube is kept for the last diagram built, by identity, never by
  equality: later builds of that object (every theory, every anchor flip)
  reuse it, and it is dropped before the next diagram is smoothed.
  Complexes share its smoothings and groups as read-only views.
- once per theory: each distinct block, named by its saddle's (kind,
  twist_in, twist_out), its negative and its phi-padded variants, built on
  first use into one table per theory and lifted to ints once.  The tables
  of the last 4 theories built are kept, keyed by the theory's value.
- once per build: under anchor flips, each degree's list rebuilt with the
  records of the edges from or to a flipped state rewritten and every other
  record shared, then one scatter pass over all edges, the differentials
  and the d o d = 0 guard, which every build runs.

Each differential is scattered as ints, S_i d^i: each distinct block of a
theory is lifted once (``_Blocks.lifted``, by ``_linalg._int_rows``: over
GF(p) to ints in (-p/2, p/2], over Q times its scale, the lcm of its
denominators), and over Q the blocks of degree i are written at one scale
S_i, the lcm of their scales; S_i is 1 over GF(p).  d o d = 0 is asserted
eagerly, as each differential is scattered, because it is the one global
check on the twist convention.  ``_guarded`` keeps S_(i-1) d^(i-1) and
checks d^i d^(i-1) on those ints one output row at a time without building
the product (``_linalg.first_nonzero``).  The first nonzero entry, at the
lowest degree, row and column, becomes the DSquaredNonzero witness, its
value divided back by the two scales.  ``build_complex`` keeps the ints
and their scales as they are guarded (``ChainComplex.rows``); its field
elements (``ChainComplex.differentials``) are divided back on first read.

Homology is one layered elimination, ``_homology``, which ``homology``,
``graded_homology`` and the streamed pass all call.  Each degree is cut into
layers by a key per generator that every entry of the differential keeps:
graded homology (homogeneous theories only) keys each generator by its
q-degree, and ungraded homology is the one-layer case.  Each row of d^i is
handed, by reference, to the layer of its row, so the graded Betti numbers
sum over q to the ungraded ones.  Each layer is eliminated on ints by
``_linalg.pivot_rows``, keyed by the characteristic, from the scattered
ints: the streamed pass hands them over as they come, and ``homology`` and
``graded_homology`` read those a built complex keeps.  Rank never changes
the complex's rows.

The degrees are cancelled in turn, upward: each layer of d^(i+1) is
eliminated without the pivot rows of the same layer of d^i as columns, which
keeps its rank by Bar-Natan's Gaussian-elimination lemma (stated and argued
in the ``_linalg`` docstring, where ``pivot_rows`` applies the ``skip``).

So once d^i is guarded and eliminated only its pivot-row keys are read
again, and ``stream_homology`` (which ``homology_of`` and the CLI use) takes
homology in one upward pass over the degrees.  Step i scatters d^i from the
edges of degree i, checks d^i d^(i-1) = 0, splits its rows into layers (on
the graded path checking that every entry keeps q), eliminates each layer
without the pivot rows of d^(i-1) and drops d^(i-1), so at most two
differentials are alive.  The pass scatters the blocks of
``algebra.sparsest_basis(th)``, the complex of ``th`` conjugated by a change
of basis of each factor V over the theory's own field, twist bits included:
(1, x - h/2) over GF(p) with p = 3 mod 4 and over Q where its reduction
mod p (below) gives no answer, Lee's idempotents over GF(p) with
p = 1 mod 4 and for rows 2, 3, 5, 6, and (1, x + 1) for rows 4 and 8.  Its ranks (over GF(4) for rows 5, 6) and guard verdict are the same,
and a failure reruns in (1, x), so a DSquaredNonzero witness is named in
(1, x).  Graded homology needs h = t = 0 and theta = 0, where that basis is
(1, x).
Its errors come in the order of a build followed by its homology: a refusal
above MAX_CHAIN_DIM first, then DSquaredNonzero, then NotGraded, which is
raised only after the guard has passed every pair of degrees.

Ungraded homology over Q is taken through one prime first
(``_through_a_prime``): S_i d^i mod a prime p that divides no denominator
of (a, t, lambda, mu, beta) and neither a nor mu is S_i, a unit mod p,
times the complex of the theory's reduction (``algebra.reduced_mod_p``),
which for p = 1 mod 4 streams in Lee's idempotents.  Two arguments make it
exact.  The guard: ``_guard_bound`` bounds every entry of the int products
(S_(i+1) d^(i+1))(S_i d^i) by B < p/2, so a product 0 mod p is 0, and a
failure mod p reruns over Q in (1, x) for its witness.  The rank: d^i can
only lose rank e_i >= 0 mod p, and Betti_p(i) = Betti_Q(i) + e_i + e_(i-1)
(universal coefficients), so where no two adjacent degrees both have
homology mod p every e_i is 0.  Otherwise the pass runs over Q as above.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm
from types import MappingProxyType

from . import tqft
from ._linalg import ExactLinearMap, _field_rows, _int_rows, first_nonzero, pivot_rows
from .algebra import reduced_mod_p, sparsest_basis, structure_maps
from .diagram import coerce_state, cube_edges, saddles, smoothings_from_both_ends
from .errors import DSquaredNonzero, InputError, NotGraded, cut
from .jones import LaurentPoly


@dataclass(frozen=True)
class ChainGroup:
    """The chain group of one degree.  ``circles`` and ``offsets`` are the
    cube's, shared by all its groups, and answer for every state of it."""

    degree: int
    states: tuple              # this degree's states, in lexicographic order
    circles: MappingProxyType  # state -> its circle keys, in canonical order
    offsets: MappingProxyType  # state -> first index of its block in its degree
    dim: int

    def label(self, index):
        """(state, decoration) of the basis vector at ``index``, by a scan of
        the states: it only names a witness."""
        state = [s for s in self.states if self.offsets[s] <= index][-1]
        k, local = len(self.circles[state]), index - self.offsets[state]
        return state, "".join("x" if (local >> (k - 1 - i)) & 1 else "1" for i in range(k))


@dataclass(frozen=True)
class ChainComplex:
    diagram: object
    theory: object
    min_degree: int
    max_degree: int
    groups: MappingProxyType      # degree -> ChainGroup, shared with the cube
    rows: tuple                   # (i, rows of S_i d^i as ints, S_i), i upward
    smoothings: MappingProxyType  # state -> Smoothing, shared with the cube

    @cached_property
    def differentials(self):
        """Degree -> ExactLinearMap C^i -> C^(i+1) over the theory's field:
        ``rows`` divided by their scales (``_field_rows``) on first read."""
        F = self.theory.field
        return {i: ExactLinearMap(F, self.groups[i + 1].dim, self.groups[i].dim,
                                  _field_rows(rows, scale, F))
                for i, rows, scale in self.rows}

    @property
    def edges(self):
        """The edges as ``diagram.cube_edges`` gives them; no build reads them."""
        return tuple(cube_edges(self.diagram, self.smoothings))

    @property
    def degrees(self):
        return range(self.min_degree, self.max_degree + 1)

    def dims(self):
        return [self.groups[i].dim for i in self.degrees]


@dataclass(frozen=True)
class HomologyResult:
    betti: dict              # degree -> nonzero Betti number
    euler: int
    qtable: dict = None      # (degree, qdegree) -> dimension, graded runs only


class _Blocks(dict):
    """The blocks of one theory or basis (``algebra.structure_maps``), each
    built on first use: the block of a (kind, twist_in, twist_out) saddle,
    padded with phi on n_phi spectators, and negated for an odd sign parity.
    ``lifted`` gives them as ints, each lifted once."""

    def __init__(self, th):
        super().__init__()
        self.th, self.phi = th, structure_maps(th)[2]
        self._lifts = {}   # key -> (the block's rows as ints, its scale)
        self._scaled = {}  # (key, S) -> the block as those ints times S / its scale

    def __missing__(self, key):
        kind, twist_in, twist_out, n_phi, negate = key
        if negate:
            block = self[(kind, twist_in, twist_out, n_phi, 0)].negated()
        elif n_phi:
            block = self[(kind, twist_in, twist_out, n_phi - 1, 0)].kron(self.phi)
        else:
            block = tqft.elementary_map(self.th, kind, twist_in, twist_out)
        self[key] = block
        return block

    def lifted(self, edges):
        """``({key: block}, S)`` for the blocks of the records ``edges``, as
        ints that scatter to S times the differential: each block is lifted
        once (``_int_rows``), and its ints are multiplied by S / its scale
        once per S.  S is 1 over GF(p) and the lcm of the blocks' scales over
        Q.  GF(2) blocks are ints already: the table is ``self``."""
        field = self.th.field
        if field.characteristic == 2:
            return self, 1
        keys = {how[0] for _, _, how, _, _ in edges}
        for key in keys - self._lifts.keys():
            self._lifts[key] = _int_rows(self[key].rows, field)
        scale = lcm(*(self._lifts[key][1] for key in keys))
        for key in keys:
            if (key, scale) not in self._scaled:
                (rows, own), block = self._lifts[key], self[key]
                if own != scale:
                    m = scale // own
                    rows = {r: {c: m * v for c, v in row.items()}
                            for r, row in rows.items()}
                self._scaled[key, scale] = ExactLinearMap(field, block.nrows,
                                                          block.ncols, rows)
        return {key: self._scaled[key, scale] for key in keys}, scale


# The block tables of the last 4 theories built, keyed by the theory's
# value: two sweeps that alternate theories (the anchor-flip check
# alternates two) reuse both tables, as do rows 1 and 4 (one sparsest basis).
_blocks_of = lru_cache(maxsize=4)(_Blocks)


class Cube:
    """What a build takes from the diagram alone: the smoothings and chain
    groups (read-only views) and the one edge table ``by_degree``, which
    holds for each degree i, in the (state, position) order of
    ``diagram.saddles``, one record per edge from degree i: (row offset,
    column offset, shared (block key, ``tqft.placement``, placement
    arguments) without anchor flips, source ``Smoothing``, target
    ``Smoothing``).  Each record reads its two offsets from the one table
    ``offsets``, which gives every state the first index of its block in
    the group of its degree.  ``ints`` is ``list(range(largest group
    dim))``: each index's one int object, the key of every row and column
    that names it.  The smoothings, made from both ends of the cube inward,
    are refused once the sum of 2^k(s) passes MAX_CHAIN_DIM."""

    def __init__(self, d):
        n, n_minus = d.n, d.n_minus
        self.diagram = d
        found, self.dim = {}, 0
        for sm in smoothings_from_both_ends(d):
            found[sm.state] = sm
            self.dim += 1 << sm.k
            _refuse_above_cap(n, self.dim, "at least " if len(found) < 1 << n else "")
        smoothings = dict(sorted(found.items()))
        self.smoothings = MappingProxyType(smoothings)
        states = {i: [] for i in range(-n_minus, n - n_minus + 1)}
        offsets, sizes = {}, dict.fromkeys(states, 0)
        for s, sm in smoothings.items():  # in lexicographic order, kept per degree
            i = sm.r - n_minus
            states[i].append(s)
            offsets[s] = sizes[i]
            sizes[i] += 1 << sm.k
        circles = MappingProxyType({s: sm.keys for s, sm in smoothings.items()})
        offsets = MappingProxyType(offsets)
        self.ints = list(range(max(sizes.values())))
        self.groups = MappingProxyType({i: ChainGroup(i, tuple(states[i]), circles, offsets,
                                                      sizes[i]) for i in states})
        self.by_degree = {i: [] for i in range(-n_minus, n - n_minus)}
        self._placements = {}  # placement arguments -> tqft.placement
        self._hows = {}        # (block key, placement arguments) -> how
        for ss, st, _, kind, bottom, top, twist_in, twist_out, sign in saddles(d, smoothings):
            self.by_degree[ss.r - n_minus].append((
                offsets[st.state], offsets[ss.state],
                self._how((kind, twist_in, twist_out, 0, sign & 1), (bottom, ss.k, top, st.k)),
                ss, st))

    def dims(self):
        """The chain-group dimensions, from the lowest degree upward."""
        return [g.dim for g in self.groups.values()]

    def _how(self, key, where):
        """The shared (block key, ``tqft.placement(*where)``, ``where``)."""
        how = self._hows.get((key, where))
        if how is None:
            if where not in self._placements:
                self._placements[where] = tqft.placement(*where)
            how = self._hows[(key, where)] = (key, self._placements[where], where)
        return how

    def edges_with(self, anchor_flips):
        """``by_degree`` under ``anchor_flips``, (state, circle key) pairs as
        ``build_complex`` takes them, itself if none.  The pairs are checked
        in input order: each state by ``coerce_state`` (BadSyntax or
        LengthMismatch), then its key, an InputError unless it names a circle
        of that state.  Each degree's list is then rebuilt by reference: a
        record with a flipped end goes through ``_flipped``, and every other
        record is the cube's own."""
        flips = set()
        for state, key in anchor_flips:
            state = coerce_state(self.diagram, state)
            if key not in self.smoothings[state].keys:
                raise InputError(f"anchor flip: state {state} has no circle {cut(repr(key))}")
            flips.add((state, key))
        if not flips:
            return self.by_degree
        flipped = {s for s, _ in flips}
        return {i: [self._flipped(e, flips) if e[3].state in flipped or e[4].state in flipped
                    else e for e in edges]
                for i, edges in self.by_degree.items()}

    def _flipped(self, record, flips):
        """``record`` under the anchor flips ``flips``: a flip on a consumed
        circle toggles its twist bit (phi is an involution), and a spectator
        flipped on one side only gets phi."""
        row0, col0, how, ss, st = record
        (kind, twist_in, twist_out, _, parity), _, (bottom, k_in, top, k_out) = how
        src = [(ss.state, key) in flips for key in ss.keys]
        tgt = [(st.state, key) in flips for key in st.keys]
        twist_in = tuple([b ^ src[p] for b, p in zip(twist_in, bottom)])
        twist_out = tuple([b ^ tgt[q] for b, q in zip(twist_out, top)])
        phi = [(p, q) for p, q in zip([p for p in range(k_in) if p not in bottom],
                                      [q for q in range(k_out) if q not in top])
               if src[p] != tgt[q]]
        where = (bottom + tuple([p for p, _ in phi]), k_in,
                 top + tuple([q for _, q in phi]), k_out)
        return row0, col0, self._how((kind, twist_in, twist_out, len(phi), parity), where), ss, st


# The largest total chain dimension (generators over all degrees) a build
# accepts.  Taken degree by degree, as the CLI does, homology costs about
# 0.51 KB of memory per generator graded and 1.3 KB ungraded over GF(2):
# T(2,12), with 531,444 generators, peaked at 271 MB max RSS under
# `compute --theory manturov --graded`, 705 MB under f2_row7 and 688 MB under
# f2_row2 (two runs each, Python 3.11, 2-vCPU Linux).  So the cap allows
# about twice that; build_complex, which keeps every differential, needs more.
MAX_CHAIN_DIM = 1 << 20


def _refuse_above_cap(n, dim, at_least=""):
    """InputError if ``dim`` generators pass MAX_CHAIN_DIM, naming the count
    as ``at_least`` followed by ``dim``; from 2^64 on it is named by the
    power of two at or below it, which keeps str() within its digit limit."""
    if dim > MAX_CHAIN_DIM:
        count = f"at least 2^{dim.bit_length() - 1}" if dim >> 64 else f"{at_least}{dim:,}"
        raise InputError(f"{n} crossings: the chain complex has {count} generators, "
                         f"above the cap MAX_CHAIN_DIM = {MAX_CHAIN_DIM:,}")


# The cube of the last diagram built, kept for the next build of that same
# object (never of an equal one).  It is dropped before another diagram is
# smoothed, so at most one cube outlives the complexes that use it.
_last_cube = None


def _cube_of(d):
    """The cube of ``d``, built unless it is the last one, after the bound
    2^(n+1) is checked against MAX_CHAIN_DIM; a reused cube is checked
    against it too.  A refused diagram leaves no cube behind."""
    global _last_cube
    n = d.n
    # with a crossing every state has a circle, so the 2^n states give >= 2^(n+1)
    _refuse_above_cap(n, 2 ** (n + 1), f"at least 2^{n + 1} = ")
    if _last_cube is not None and _last_cube.diagram is d:
        _refuse_above_cap(n, _last_cube.dim)
    else:
        _last_cube = None  # free the old cube before smoothing another diagram
        _last_cube = Cube(d)
    return _last_cube


def _differentials(by_degree, th, ints):
    """Yield (i, rows of S d^i, S) for each degree i upward, each
    differential scattered afresh from the edges of its degree in the table
    ``by_degree`` (``Cube.edges_with``) into ``{row: {col: int}}`` at the
    scale S of its blocks (``_Blocks.lifted``), keyed by ``Cube.ints``,
    and handed over: the
    generator keeps none of them once it resumes, so a consumer that drops
    d^i holds one differential at a time.  This is the one scatter."""
    blocks, scatter = _blocks_of(th), tqft.scatter_extended
    for i, edges in by_degree.items():
        table, scale = blocks.lifted(edges)
        rows = {}
        # distinct edges join distinct state pairs, so their blocks are
        # disjoint, and a block has no zero entry to filter out
        for row0, col0, (key, placement, _), _, _ in edges:
            scatter(rows, table[key], placement, row0, col0, ints)
        yield i, rows, scale


def _guarded(groups, field, differentials):
    """Pass on each (i, rows of S d^i, S) of ``differentials`` once
    d^i d^(i-1) = 0 is checked.  Raise DSquaredNonzero at the first nonzero
    entry of some d^(i+1) d^i: the lowest degree, then target index, then
    source index.  Only d^(i-1) is kept."""
    before = None
    for i, rows, scale in differentials:
        hit = None if before is None else first_nonzero((rows, scale), before, field)
        if hit is not None:
            r, col, v = hit
            raise DSquaredNonzero(i - 1, groups[i - 1].label(col),
                                  groups[i + 1].label(r), field.to_str(v))
        before = rows, scale
        yield i, rows, scale


def build_complex(d, th, anchor_flips=(), check=True):
    """Assemble the based chain complex of ``d`` under the theory ``th``.

    ``anchor_flips`` is a collection of (state, circle_key) pairs, each
    state a 0/1 string, whose circle's canonical orientation is reversed
    before building maps; the build is otherwise canonical, and a pair that
    names no circle is an InputError.
    Raises DSquaredNonzero if the differential fails to square to zero
    (which would signal a twist-convention bug), unless ``check`` is false.
    A complex of more than MAX_CHAIN_DIM generators is refused with an
    InputError: on the lower bound 2^(n+1) before any state is smoothed, and
    on the sum of 2^k(s) as the states are smoothed.  Builds of the same
    diagram object share its cube (see the module docstring).
    """
    cube = _cube_of(d)
    rows = _differentials(cube.edges_with(anchor_flips), th, cube.ints)
    if check:
        rows = _guarded(cube.groups, th.field, rows)
    return ChainComplex(d, th, -d.n_minus, d.n - d.n_minus, cube.groups, tuple(rows),
                        cube.smoothings)


def _layer_pivots(p, layers, below):
    """The pivot rows of each layer of one differential d^i, from
    ``layers`` = {key: rows of d^i in that layer}.  Each layer is eliminated
    without the columns ``below[key]``, the pivot rows of the same layer of
    d^(i-1), which keeps its rank (module docstring)."""
    return {q: pivot_rows(layer, p, below.get(q, ()))
            for q, layer in layers.items()}


def _homology(th, c, differentials, graded):
    """The homology of the complex or cube ``c`` under ``th``, graded or
    not, from ``differentials``, which yields (i, rows of S d^i as ints, S)
    for each degree i upward.  Each row of d^i goes, by reference, to the
    layer of its generator's key: its q-degree when graded, else 0.  d^i maps each
    layer into the same layer of degree i + 1, so its rank at a key is the
    rank of that group of rows, taken with their original indices.  Of d^i
    only its pivot rows are kept, for d^(i+1).  NotGraded (an inhomogeneous
    theory, or the first entry, row-major, of the lowest degree that changes
    q-degree) is raised only once ``differentials`` is used up, so that a
    d o d guard on them checks every degree first."""
    F, ranks, below, bad = th.field, {}, {}, None
    if not graded:
        dims = {(i, 0): g.dim for i, g in c.groups.items()}
    elif all(F.is_zero(v) for v in (th.h, th.t, th.lam, th.mu)):
        qdeg = _qdegrees(c)
        dims = Counter((i, q) for i, qs in qdeg.items() for q in qs)
    else:
        bad = NotGraded("needs h = t = 0 and theta = 0 (preset manturov/f2_row1)")
    for i, rows, _ in differentials:
        if bad is not None:
            continue
        layers = {0: rows}
        if graded:
            layers, src, tgt, crossing = {}, qdeg[i], qdeg[i + 1], []
            for r, cols in rows.items():
                q = tgt[r]
                for col in cols:
                    if src[col] != q:
                        crossing.append((r, col))
                layers.setdefault(q, {})[r] = cols
            if crossing:
                r, col = min(crossing)
                bad = NotGraded(f"differential entry {c.groups[i].label(col)} -> "
                                f"{c.groups[i + 1].label(r)} changes q-degree")
                continue
        below = _layer_pivots(F.characteristic, layers, below)
        ranks.update(((i, q), len(pivots)) for q, pivots in below.items())
    if bad is not None:
        raise bad
    table, betti = {}, {}
    for (i, q), dim in sorted(dims.items()):
        b = dim - ranks.get((i, q), 0) - ranks.get((i - 1, q), 0)
        assert b >= 0
        if b:
            table[(i, q)] = b
            betti[i] = betti.get(i, 0) + b
    euler = sum(b if i % 2 == 0 else -b for i, b in betti.items())
    return HomologyResult(betti, euler, table if graded else None)


def homology(c):
    """Betti numbers by exact rank computation over the ground field."""
    return _homology(c.theory, c, c.rows, False)


# ---------------------------------------------------------------------------
# quantum grading (Manturov-type theories only)

def _qdegrees(c):
    """q-degree of every basis vector of the complex or cube ``c``, by
    homological degree: a state with k circles contributes
    k - 2 * (number of x's) + r(s) + n_plus - 2*n_minus, as deg(1) = 1 and
    deg(x) = -1."""
    d = c.diagram
    out = {}
    for i, grp in c.groups.items():
        shift = i + d.n_plus - d.n_minus  # r(s) = i + n_minus
        out[i] = [k + shift - 2 * local.bit_count()
                  for k in (len(grp.circles[s]) for s in grp.states)
                  for local in range(1 << k)]
    return out


def graded_homology(c):
    """Homology with the quantum grading: the homology of the same complex,
    split into q-degree layers.  Requires a homogeneous theory.

    The theory must have h = t = 0 and theta = 0 (the Manturov preset);
    every differential entry is additionally checked to preserve q-degree.
    """
    return _homology(c.theory, c, c.rows, True)


def graded_euler_poly(result):
    """The graded Euler characteristic as a Laurent polynomial in q."""
    terms = {}
    for (i, q), dim in (result.qtable or {}).items():
        terms[q] = terms.get(q, 0) + (dim if i % 2 == 0 else -dim)
    return LaurentPoly.make(terms)


# ---------------------------------------------------------------------------
# the streamed pass

def stream_homology(d, th, graded=False, anchor_flips=()):
    """(cube, result): the homology of ``d`` under ``th`` in one upward pass,
    graded as ``graded_homology`` or not as ``homology``, with
    ``anchor_flips`` as in ``build_complex``.  Each d^i is scattered,
    checked against d^(i-1) by the d o d guard, split into layers, eliminated
    and dropped, so at most two differentials are held at a time.  The
    result equals that of the same homology of ``build_complex(d, th,
    anchor_flips)``, and so do its errors: a refusal above MAX_CHAIN_DIM
    first, then DSquaredNonzero, then NotGraded.  The cube gives the chain
    groups (``cube.dims()``) and the smoothings.  Ungraded homology over Q
    is first taken mod a prime p above twice the guard bound and kept where
    no two adjacent degrees have homology mod p (``_through_a_prime``);
    otherwise the pass runs in ``algebra.sparsest_basis(th)`` (module
    docstring), which is ``th`` itself wherever graded homology is defined,
    and a guard failure there reruns in (1, x)."""
    cube = _cube_of(d)
    by_degree = cube.edges_with(anchor_flips)
    if not graded and th.field.characteristic == 0:
        result = _through_a_prime(d.n, cube, by_degree, th)
        if result is not None:
            return cube, result
    for basis in sparsest_basis(th), th:
        try:
            return cube, _streamed(cube, by_degree, th, basis, graded)
        except DSquaredNonzero:
            if basis is th:
                raise


def _streamed(cube, by_degree, th, basis, graded=False):
    """The homology of ``th`` on the edges ``by_degree`` of ``cube``, each
    differential scattered in ``basis`` (``th`` or a change of basis of it
    over its field) and guarded as it comes."""
    differentials = _guarded(cube.groups, th.field,
                             _differentials(by_degree, basis, cube.ints))
    return _homology(th, cube, differentials, graded)


def _guard_bound(n, by_degree, th):
    """B with |entry| <= B in every int product (S_(i+1) d^(i+1))(S_i d^i)
    of ``th`` on the edges ``by_degree``, read off the blocks that
    ``_Blocks.lifted`` scales to S_i: a row of d^(i+1) meets at most n
    edges, one block row each, so B is the largest over i of n times the
    largest row l1-norm of the blocks of degree i + 1 times the largest
    entry of those of degree i."""
    blocks, norms, tops = _blocks_of(th), [], []
    for edges in by_degree.values():
        rows = [row.values() for block in blocks.lifted(edges)[0].values()
                for row in block.rows.values()]
        norms.append(max((sum(map(abs, row)) for row in rows), default=0))
        tops.append(max((max(map(abs, row)) for row in rows), default=0))
    return max((n * norm * top for norm, top in zip(norms[1:], tops)), default=0)


def _through_a_prime(n, cube, by_degree, th):
    """The ungraded homology of the Q theory ``th`` on the edges
    ``by_degree`` from its reduction mod p > 2B, B of ``_guard_bound``,
    streamed in Lee's idempotents; a guard failure mod p reruns over Q in
    (1, x).  None where there is no such p or no certificate: two adjacent
    degrees with homology mod p (module docstring)."""
    reduced = reduced_mod_p(th, _guard_bound(n, by_degree, th))
    if reduced is None:
        return None
    try:
        result = _streamed(cube, by_degree, reduced, sparsest_basis(reduced))
    except DSquaredNonzero:
        return _streamed(cube, by_degree, th, th)
    return None if any(i + 1 in result.betti for i in result.betti) else result


def homology_of(d, th, anchor_flips=()):
    """The (ungraded) homology of ``d`` under ``th``, by the streamed pass."""
    return stream_homology(d, th, anchor_flips=anchor_flips)[1]


def betti_with_reversed_anchor(d, th, selector):
    """Homology with one circle's canonical orientation reversed.

    ``selector`` is a (state, circle_key) pair naming the circle whose
    reference orientation is flipped before the maps are built.
    """
    return homology_of(d, th, anchor_flips=(selector,))
