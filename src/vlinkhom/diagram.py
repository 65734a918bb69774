"""Virtual link diagrams as signed Gauss codes.

A diagram is a list of components, each a cyclic sequence of passages
(crossing label, over/under, sign).  Smoothing a state splices every
crossing according to its bit and sign, and the resulting circles are traced
with a canonical orientation (start at the minimal half-edge, forward).  The
four arc ends of every crossing are computed once per diagram, on first use;
each smoothing stores its state string, its circle keys, the circle of every
arc and the direction in which its circles traverse every arc (one bitmask)
when it is built.  A circle is its key: its arcs are the ones mapped to it.
The 2^n states are never listed: each is written from its index as it is
smoothed, so a consumer holds only the smoothings it keeps (a refused cube
those smoothed before the refusal, the Jones polynomial without a cube none).

Saddles between adjacent states are classified from the crossing alone, only
as the edges of the whole cube and by one classifier, ``saddles``, which names
circles by index (``cube_edges`` names them by key, in SaddleDescriptors).
The circle counts give the kind: a saddle that changes the count by one is a
pair of pants (merge or split), and one that takes one circle to one circle
is a punctured Moebius band, the nonorientable single-cycle saddle.  For the
orientable kinds the saddle square orients the four corner arcs, and each
twist bit compares that orientation with the circle's canonical direction on
one corner arc where the circle meets the crossing, read from the smoothing's
direction bitmask.

A Reidemeister move is a finder, a rewrite and an entry in ``random_moves``'s
table.  One finder per inverse pattern (``_kink``, ``_r2_pair``) returns the
crossing labels it finds at a site, or None; the site lists and the inverse
moves call only these, and an inverse move raises ``PatternNotFound`` when
its finder returns None.  The rewrites are one insert (``_inserted``) and one
removal (``_without``, which drops every passage of the given crossings and
relabels the rest 1..n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import (BadSyntax, DuplicateRole, LengthMismatch, MissingPassage,
                     PatternNotFound, SignMismatch, cut)


class Passage(NamedTuple):
    crossing: int
    over: bool
    sign: int  # +1 or -1

    def text(self):
        return f"{'O' if self.over else 'U'}{self.crossing}{'+' if self.sign > 0 else '-'}"


class _Crossing(NamedTuple):
    sign: int
    over: tuple   # (component, position)
    under: tuple


class VirtualLinkDiagram:
    """An immutable signed Gauss code with validated crossing structure."""

    def __init__(self, components, name="", classical=False):
        self.components = tuple(tuple(Passage(*p) for p in comp) for comp in components)
        self.name = name
        self.classical = bool(classical)
        self._index()

    def _index(self):
        """Validate the code and index its crossings, in one pass."""
        self._offsets = []
        self.total_arcs = 0
        ends = {}  # label -> [over, under] as (component, position, sign)
        for ci, comp in enumerate(self.components):
            self._offsets.append(self.total_arcs)
            self.total_arcs += len(comp)
            for pi, (label, over, sign) in enumerate(comp):
                if label < 1:
                    raise BadSyntax((ci, pi), "crossing labels must be positive")
                if sign not in (1, -1):
                    raise BadSyntax((ci, pi), "sign must be +1 or -1")
                rec = ends.setdefault(label, [None, None])
                slot = 0 if over else 1
                if rec[slot] is not None:
                    raise DuplicateRole(label, "over" if over else "under")
                rec[slot] = (ci, pi, sign)
        self.n = len(ends)
        for label in range(1, self.n + 1):
            if label not in ends:
                raise MissingPassage(label)
        self.crossings = {}
        for label, (over, under) in ends.items():
            if over is None or under is None:
                raise MissingPassage(label)
            if over[2] != under[2]:
                raise SignMismatch(label)
            self.crossings[label] = _Crossing(over[2], over[:2], under[:2])
        self.n_plus = sum(1 for c in self.crossings.values() if c.sign > 0)
        self.n_minus = self.n - self.n_plus

    # -- arc bookkeeping ---------------------------------------------------
    # Arc (comp, pos) runs from passage pos to passage pos+1 (cyclically);
    # its tail end is 2*arc and its head end 2*arc+1.

    @cached_property
    def ends(self):
        """The four arc ends (Oi, Oo, Ui, Uo) at every crossing, indexed by
        label - 1: over-in, the head of the arc into the over passage, then
        over-out, the tail of the arc out of it, and likewise under.

        Computed on first use, not in the constructor: move sequences build
        many diagrams that are never smoothed."""
        out = []
        for label in range(1, self.n + 1):
            cr, quad = self.crossings[label], []
            for comp, pos in (cr.over, cr.under):
                start, m = self._offsets[comp], len(self.components[comp])
                quad += [2 * (start + (pos - 1) % m) + 1, 2 * (start + pos)]
            out.append(tuple(quad))
        return tuple(out)

    @cached_property
    def splices(self):
        """Per crossing (label - 1) and bit, the two end pairs its smoothing
        joins, flattened to (e1, e2, e3, e4) for the pairs (e1, e2), (e3, e4).

        At a positive crossing the 0-smoothing joins over-in to under-out and
        under-in to over-out (the flow-preserving splice); the 1-smoothing
        joins the two inputs and the two outputs.  At a negative crossing the
        roles swap, which reproduces the classical unoriented 0/1 convention.
        """
        out = []
        for (oi, oo, ui, uo), label in zip(self.ends, range(1, self.n + 1)):
            oriented, crossed = (oi, uo, ui, oo), (oi, ui, oo, uo)
            out.append((oriented, crossed) if self.crossings[label].sign > 0
                       else (crossed, oriented))
        return tuple(out)

    # -- derived diagrams ----------------------------------------------------

    def relabeled(self, perm):
        """Apply a bijection old-label -> new-label to all crossings."""
        comps = [[Passage(perm[p.crossing], p.over, p.sign) for p in comp]
                 for comp in self.components]
        return VirtualLinkDiagram(comps, self.name, self.classical)

    def reversed_component(self, comp):
        """Component ``comp`` traversed backwards: each crossing it shares with
        another component changes sign, and its self-crossings keep theirs."""
        own = [p.crossing for p in self.components[comp]]
        comps = [[p._replace(sign=-p.sign) if own.count(p.crossing) == 1 else p for p in c]
                 for c in self.components]
        comps[comp].reverse()
        return VirtualLinkDiagram(comps, self.name, self.classical)

    # -- serialization -------------------------------------------------------

    def serialize(self):
        return ";".join(",".join(p.text() for p in comp) for comp in self.components)

    def to_json_obj(self):
        obj = {
            "name": self.name,
            "components": [[{"c": p.crossing, "o": p.over, "s": p.sign}
                            for p in comp] for comp in self.components],
        }
        if self.classical:
            obj["classical"] = True
        return obj

    def __eq__(self, other):
        return (isinstance(other, VirtualLinkDiagram)
                and self.components == other.components)

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        label = self.name or "diagram"
        return f"<{label}: {self.serialize() or '(unknot)'}>"


# ---------------------------------------------------------------------------
# parsing

# The most digits a crossing label may have.  Labels run from 1 to the
# number of crossings, which is far below 10^18 for any diagram that fits in
# memory, and int() refuses more than 4,300 digits, leading zeros included.
MAX_LABEL_DIGITS = 18


def parse_gauss(text, name="", classical=False):
    """Parse the text grammar: components split by ';', passages by ','.

    A passage is ('O'|'U') label ('+'|'-'), the label at most
    MAX_LABEL_DIGITS ASCII digits; an empty component is a zero-crossing
    unknot.  The unicode minus sign is accepted.
    """
    components = []
    pos = 0
    for chunk in text.split(";"):
        comp = []
        inner = 0
        for token in chunk.split(","):
            tok = token.strip()
            where = pos + inner
            if not tok:
                if chunk.strip() and len(chunk.split(",")) > 1:
                    raise BadSyntax(where, "empty passage")
                inner += len(token) + 1
                continue
            role = tok[0].upper()
            if role not in ("O", "U"):
                raise BadSyntax(where, f"expected O or U, got {tok[0]!r}")
            body = tok[1:].replace("−", "-")
            if not body or body[-1] not in "+-":
                raise BadSyntax(where, "passage must end in + or -")
            sign = 1 if body[-1] == "+" else -1
            digits = body[:-1].strip()
            if not (digits.isascii() and digits.isdigit()):
                raise BadSyntax(where, f"bad crossing label {cut(repr(digits))}")
            if len(digits) > MAX_LABEL_DIGITS:
                raise BadSyntax(where, f"crossing label of {len(digits):,} digits, above "
                                f"the limit MAX_LABEL_DIGITS = {MAX_LABEL_DIGITS}")
            comp.append(Passage(int(digits), role == "O", sign))
            inner += len(token) + 1
        components.append(comp)
        pos += len(chunk) + 1
    return VirtualLinkDiagram(components, name, classical)


def diagram_from_json_obj(obj):
    """Build a diagram from the JSON object format; BadSyntax if malformed."""
    comps = obj.get("components") if isinstance(obj, dict) else None
    if not isinstance(comps, list) or not all(isinstance(c, list) for c in comps):
        raise BadSyntax("components", "a JSON diagram needs 'components', "
                        "a list of lists of passages")
    name, classical = obj.get("name", ""), obj.get("classical", False)
    if not isinstance(name, str):
        raise BadSyntax("name", f"must be a string, got {cut(repr(name))}")
    if not isinstance(classical, bool):
        raise BadSyntax("classical", f"must be true or false, got {cut(repr(classical))}")
    return VirtualLinkDiagram(
        [[_json_passage(p, f"components[{ci}][{pi}]") for pi, p in enumerate(comp)]
         for ci, comp in enumerate(comps)], name, classical)


def _json_passage(p, where):
    if not isinstance(p, dict) or not {"c", "o", "s"} <= p.keys():
        raise BadSyntax(where, f"a passage needs keys 'c', 'o' and 's', got {cut(repr(p))}")
    c, o, s = p["c"], p["o"], p["s"]
    # bool is a subclass of int, so the exact types are tested
    if type(c) is not int:
        raise BadSyntax(where, f"'c' must be an integer crossing label, got {cut(repr(c))}")
    if type(o) is not bool:
        raise BadSyntax(where, f"'o' must be true or false, got {cut(repr(o))}")
    if type(s) is not int:
        raise BadSyntax(where, f"'s' must be 1 or -1, got {cut(repr(s))}")
    return Passage(c, o, s)


def load_diagram(path):
    """Load a diagram file (JSON if it looks like JSON, text grammar else)."""
    import json
    import os

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadSyntax(exc.start, "diagram file is not UTF-8 text") from None
    stripped = text.strip()
    stem = os.path.splitext(os.path.basename(path))[0]
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BadSyntax(exc.pos, f"invalid JSON: {exc.msg} (line {exc.lineno}, "
                            f"column {exc.colno})") from None
        except ValueError:  # an integer past int()'s digit limit
            raise BadSyntax(0, "invalid JSON: an integer has too many digits") from None
        except RecursionError:
            raise BadSyntax(0, "invalid JSON: nested too deeply") from None
        return diagram_from_json_obj(obj)
    return parse_gauss(stripped, name=stem)


# ---------------------------------------------------------------------------
# smoothings

@dataclass(frozen=True, slots=True)
class Circle:
    """One circle of a smoothing, named by its key.

    Its arcs are those that ``Smoothing.arc_circle`` maps to it, and the
    direction in which it runs through each is a bit of ``Smoothing.forward``.
    ``key`` is the minimal half-edge over its arcs (2*arc for a forward
    traversal, 2*arc+1 backward), which identifies the circle and anchors its
    canonical orientation.  Free loops (components with no crossings) have no
    arcs and carry a key beyond every half-edge.
    """

    key: int


@dataclass(frozen=True, slots=True)
class Smoothing:
    """The state circles Gamma_s, with the tables the cube is built from.

    ``state`` is the 0/1 string of the bits, ``keys`` the circle keys in
    canonical order, ``arc_circle`` the index of each arc's circle and
    ``forward`` a bitmask of the arcs whose circle traverses them from tail
    to head.  ``circles`` names each key as a ``Circle``, made on each read.
    """

    state: str
    keys: tuple
    arc_circle: tuple  # arc -> index into keys
    forward: int       # bit a set iff arc a is traversed tail to head

    @property
    def circles(self):
        return tuple(map(Circle, self.keys))

    @property
    def r(self):
        return self.state.count("1")

    @property
    def k(self):
        return len(self.keys)


def coerce_state(d, state):
    """``state``, a 0/1 string, stripped; BadSyntax for anything else and
    LengthMismatch unless it has one bit per crossing of ``d``."""
    text = state.strip() if isinstance(state, str) else None
    if text is None or any(ch not in "01" for ch in text):
        raise BadSyntax(0, f"state must be a 0/1 string, got {cut(repr(state))}")
    if len(text) != d.n:
        raise LengthMismatch(d.n, len(text))
    return text


def _smooth(d, state):
    """The smoothing of the 0/1 string ``state``: each crossing joins the two
    end pairs that ``d.splices`` gives for its bit, and the circles are
    traced through that end-to-end pairing."""
    pairing = [-1] * (2 * d.total_arcs)
    for splice, bit in zip(d.splices, map(int, state)):
        e1, e2, e3, e4 = splice[bit]
        pairing[e1], pairing[e2], pairing[e3], pairing[e4] = e2, e1, e4, e3
    arc_circle = [-1] * d.total_arcs
    forward = 0
    keys = []
    # a circle's key is twice its least arc, so tracing from each arc not yet
    # seen, in order, finds the circles in canonical order
    for start in range(d.total_arcs):
        if arc_circle[start] >= 0:
            continue
        idx = len(keys)
        arc, fwd = start, 1
        while True:
            arc_circle[arc] = idx
            forward |= fwd << arc
            enter_end = pairing[2 * arc + fwd]  # leave by the head going forward
            arc, fwd = enter_end >> 1, 1 - (enter_end & 1)
            if arc == start:
                assert fwd, "circle closed against its own direction"
                break
        keys.append(2 * start)
    for ci, comp in enumerate(d.components):
        if not comp:
            keys.append(2 * d.total_arcs + ci)
    return Smoothing(state, tuple(keys), tuple(arc_circle), forward)


def _smooth_index(d, j):
    """The smoothing of the j-th state in lexicographic order, whose bits
    are j in n binary digits ("" for n = 0)."""
    return _smooth(d, bin(j | 1 << d.n)[3:])


def all_smoothings(d):
    """All 2^n smoothings, keyed by state string, in lexicographic order."""
    return {sm.state: sm for sm in (_smooth_index(d, j) for j in range(1 << d.n))}


def smoothings_from_both_ends(d):
    """All 2^n smoothings, one at a time, alternately from the two ends of the
    lexicographic order (0...0, 1...1, 0...01, 1...10, ...), each state made
    from its index when it is smoothed.  Mirroring ``d`` complements every
    state, so a running sum of 2^k(s) grows alike for both."""
    last = (1 << d.n) - 1
    return (_smooth_index(d, last - i // 2 if i % 2 else i // 2) for i in range(last + 1))


# ---------------------------------------------------------------------------
# saddles

@dataclass(frozen=True, slots=True)
class SaddleDescriptor:
    """A classified cube edge from ``from_state`` to ``to_state``.

    ``bottom``/``top`` list the affected circle keys in canonical order;
    ``twist_in``/``twist_out`` carry one bit per affected circle for the
    orientable kinds and are empty for the single-cycle saddle.
    ``sign_exponent`` is the number of 1-bits strictly before the changed
    position in ``to_state``.
    """

    from_state: str
    to_state: str
    position: int
    kind: str  # "merge" | "split" | "single_cycle"
    bottom: tuple
    top: tuple
    twist_in: tuple
    twist_out: tuple
    sign_exponent: int


# A saddle is connected (every affected circle meets the crossing) and has
# Euler characteristic -1, which is 2 - 2g - b with g handles or 2 - h - b
# with h crosscaps for b boundary circles.  So b = 3 forces a pair of pants
# and b = 2 a punctured Moebius band: the circle counts give the kind.
_KINDS = {(2, 1): "merge", (1, 2): "split", (1, 1): "single_cycle"}

# The saddle square orients the corners (Oi, Oo, Ui, Uo) of its crossing:
# over-in and the end paired with neither of its partners point up, its two
# partners down.  Over-in is paired with under-out in one of the two states
# and with under-in in the other, so the over ends point up and the under
# ends down.  A circle runs into the crossing at an end when its direction on
# the arc agrees with the end being a head, and its twist bit is 1 where the
# up/down orientation disagrees with that.  So the bit is the circle's
# forward bit on the corner arc, flipped at over-out and under-in.
_CORNER_FLIP = (0, 1, 1, 0)


def _side(sm, a, b):
    """(circle indices, twist bits) of one smoothing at a saddle with Oi and
    Oo corner arcs a and b.  No splice joins Oi to Oo, so the circles of a and
    b are those of the two end pairs, all on the corners, with a and b their
    first corner arcs; a bit is the direction bit there XOR ``_CORNER_FLIP``."""
    x, y, forward = sm.arc_circle[a], sm.arc_circle[b], sm.forward
    x_bit, y_bit = forward >> a & 1 ^ _CORNER_FLIP[0], forward >> b & 1 ^ _CORNER_FLIP[1]
    if x == y:
        return (x,), (x_bit,)
    return ((x, y), (x_bit, y_bit)) if x < y else ((y, x), (y_bit, x_bit))


def saddles(d, smoothings):
    """Classify every edge of the cube of ``d``, whose 2^n smoothings
    ``smoothings`` holds by state, in (state, position) order: yield its
    source and target ``Smoothing`` and the other fields of its
    ``SaddleDescriptor``, with circle indices in ``bottom`` and ``top``."""
    corners = [(oi >> 1, oo >> 1, ui >> 1, uo >> 1) for oi, oo, ui, uo in d.ends]
    for state in sorted(smoothings):
        ss = smoothings[state]
        j = state.find("0")
        while j >= 0:
            st = smoothings[state[:j] + "1" + state[j + 1:]]
            a, b, c, e = corners[j]
            bottom, twist_in = _side(ss, a, b)
            top, twist_out = _side(st, a, b)
            kind = _KINDS[len(bottom), len(top)]
            if kind == "single_cycle":
                twist_in = twist_out = ()
            # an arc with both ends at the crossing must get one up, one down
            assert kind == "single_cycle" or a != b and c != e, \
                "corner orientations conflict on an orientable saddle"
            lo, hi, p, q, sk, tk = bottom[0], bottom[-1], top[0], top[-1], ss.keys, st.keys
            assert (sk[:lo] + sk[lo + 1:hi] + sk[hi + 1:]
                    == tk[:p] + tk[p + 1:q] + tk[q + 1:]), \
                "unaffected circles must match across the edge"
            yield ss, st, j, kind, bottom, top, twist_in, twist_out, state.count("1", 0, j)
            j = state.find("0", j + 1)


def cube_edges(d, smoothings=None):
    """All n * 2^(n-1) classified cube edges, in (state, position) order:
    ``saddles`` with the affected circles named by their keys."""
    sms = smoothings if smoothings is not None else all_smoothings(d)
    return [SaddleDescriptor(ss.state, st.state, j, kind, tuple([ss.keys[i] for i in b]),
                             tuple([st.keys[i] for i in t]), *twists_and_sign)
            for ss, st, j, kind, b, t, *twists_and_sign in saddles(d, sms)]


# ---------------------------------------------------------------------------
# Reidemeister moves

R1_VARIANTS = ((1, "ou"), (1, "uo"), (-1, "ou"), (-1, "uo"))
R2_VARIANTS = ("parallel", "antiparallel")


def r1_sites(d):
    return [(ci, pos) for ci, comp in enumerate(d.components)
            for pos in range(max(len(comp), 1))]


def r2_site_pairs(d):
    return list(itertools.permutations(r1_sites(d), 2))


def r1_inverse_sites(d):
    return [site for site in r1_sites(d) if _kink(d, site)]


def r2_inverse_sites(d):
    """Sites (component, position) of removable R2 over-pairs."""
    return [site for site in r1_sites(d) if _r2_pair(d, site)]


def _kink(d, site):
    """The label of the kink whose two passages start at ``site``, as a
    1-tuple, or None.  Both positions of a two-passage component name the
    same kink, so there it is found at position 0 only."""
    ci, pos = site
    comp = d.components[ci]
    m = len(comp)
    if not 0 <= pos < (m if m > 2 else m - 1):
        return None
    label = comp[pos].crossing
    return (label,) if comp[(pos + 1) % m].crossing == label else None


def _r2_pair(d, site):
    """The labels of the R2 bigon whose adjacent over-passages start at
    ``site``, or None: its two crossings carry opposite signs and their
    under-passages are cyclically adjacent on one component."""
    ci, pos = site
    comp = d.components[ci]
    m = len(comp)
    if not 0 <= pos < m:
        return None
    p1, p2 = comp[pos], comp[(pos + 1) % m]
    if not (p1.over and p2.over) or p1.sign == p2.sign:
        return None
    uc, u1 = d.crossings[p1.crossing].under
    vc, u2 = d.crossings[p2.crossing].under
    mu = len(d.components[uc])
    if uc != vc or (u1 - u2) % mu not in (1, mu - 1):
        return None
    return p1.crossing, p2.crossing


def _found(finder, d, site):
    """The labels ``finder`` returns at ``site``; PatternNotFound if None."""
    labels = finder(d, site)
    if labels is None:
        raise PatternNotFound(f"no move pattern at site {site}")
    return labels


def _inserted(d, inserts):
    """``d`` with each (component, position, passages) of ``inserts`` spliced
    in before that position of the original code, taken modulo the
    component's length; of two inserts at one position the later lands
    first."""
    comps = [list(c) for c in d.components]
    at = [(ci, pos % len(comps[ci]) if comps[ci] else 0, passages)
          for ci, pos, passages in inserts]
    for ci, pos, passages in sorted(at, key=lambda ins: ins[1], reverse=True):
        comps[ci][pos:pos] = passages
    return VirtualLinkDiagram(comps, d.name, d.classical)


def _without(d, labels):
    """``d`` without any passage of the crossings ``labels``; the others
    are relabelled 1..n in their old order."""
    kept = [c for c in range(1, d.n + 1) if c not in labels]
    relabel = {old: new for new, old in enumerate(kept, start=1)}
    comps = [[Passage(relabel[p.crossing], p.over, p.sign) for p in comp
              if p.crossing in relabel] for comp in d.components]
    return VirtualLinkDiagram(comps, d.name, d.classical)


def apply_r1(d, site, variant):
    """Insert a kink (new crossing n+1) at ``site`` = (component, position).

    ``variant`` indexes R1_VARIANTS: kink sign and whether the over or the
    under passage comes first.
    """
    if variant not in range(len(R1_VARIANTS)):
        raise ValueError(f"an R1 variant is 0, 1, 2 or 3, got {cut(repr(variant))}")
    sign, order = R1_VARIANTS[variant]
    pair = [Passage(d.n + 1, True, sign), Passage(d.n + 1, False, sign)]
    ci, pos = site
    return _inserted(d, [(ci, pos, pair if order == "ou" else pair[::-1])])


def apply_r1_inverse(d, site):
    """Remove the kink whose first passage sits at ``site``."""
    return _without(d, _found(_kink, d, site))


def apply_r2(d, sites, variant):
    """Slide one strand over another: insert crossings n+1, n+2.

    ``sites`` is a pair of distinct insertion sites; the first receives the
    two over-passages.  ``variant`` is "parallel" (the two strands traverse
    the bigon the same way; under-passages in the same order) or
    "antiparallel" (under-passages reversed).  The two new crossings always
    carry opposite signs.
    """
    if variant not in R2_VARIANTS:
        raise ValueError(f"an R2 variant is parallel or antiparallel, got {cut(repr(variant))}")
    (ca, pa), (cb, pb) = sites
    if (ca, pa) == (cb, pb):
        raise PatternNotFound("r2 sites must be distinct")
    c1, c2 = d.n + 1, d.n + 2
    if variant == "parallel":
        block_a = [Passage(c1, True, 1), Passage(c2, True, -1)]
        block_b = [Passage(c1, False, 1), Passage(c2, False, -1)]
    else:
        block_a = [Passage(c1, True, -1), Passage(c2, True, 1)]
        block_b = [Passage(c2, False, 1), Passage(c1, False, -1)]
    return _inserted(d, [(ca, pa, block_a), (cb, pb, block_b)])


def apply_r2_inverse(d, site):
    """Remove the R2 pair whose adjacent over-passages start at ``site``."""
    return _without(d, _found(_r2_pair, d, site))


_MOVES = {"r1": apply_r1, "r2": apply_r2,
          "r1inv": apply_r1_inverse, "r2inv": apply_r2_inverse}


def random_moves(d, count, rng, max_crossings=8):
    """Apply ``count`` random R1/R2 moves (and inverses), keeping n bounded.

    Growth moves are disabled once they would push the crossing count past
    ``max_crossings``; inverse moves are used when available.  Returns the
    final diagram and a human-readable trail of the moves applied.
    """
    trail = []
    current = d
    for step in range(count):
        # (kind, site) for an inverse move, (kind, site, variant) otherwise
        candidates = []
        if current.n + 1 <= max_crossings:
            candidates += [("r1", site, v) for site in r1_sites(current) for v in range(4)]
        if current.n + 2 <= max_crossings:
            candidates += [("r2", pair, v) for pair in r2_site_pairs(current)
                           for v in R2_VARIANTS]
        candidates += [("r1inv", site) for site in r1_inverse_sites(current)]
        candidates += [("r2inv", site) for site in r2_inverse_sites(current)]
        if not candidates:
            trail.append("stuck: no moves available")
            break
        kind, *args = rng.choice(candidates)
        current = _MOVES[kind](current, *args)
        trail.append(f"{step}: {kind} at {args[0]}"
                     + (f" variant {args[1]}" if len(args) > 1 else ""))
    return current, trail


# ---------------------------------------------------------------------------
# braid closures (used to build the shipped corpus and test diagrams)

def braid_closure(word, name="", classical=True):
    """Close a braid word into a diagram.

    ``word`` lists generators: +i crosses the strand in position i over
    position i+1, -i crosses it under.  All strands are oriented the same
    way, so +i yields a positive crossing and -i a negative one.  A
    generator 0 is refused with BadSyntax at its index in ``word``.
    """
    if not word:
        return VirtualLinkDiagram([[]], name, classical)
    k = max(abs(w) for w in word) + 1
    position_of = list(range(k))   # strand token at each position
    records = [[] for _ in range(k)]
    ends_at = list(range(k))
    for idx, w in enumerate(word, start=1):
        if w == 0:
            raise BadSyntax(idx - 1, "braid generators are nonzero, got 0")
        i = abs(w) - 1
        sa, sb = position_of[i], position_of[i + 1]
        sign = 1 if w > 0 else -1
        over_token = sa if w > 0 else sb
        under_token = sb if w > 0 else sa
        records[over_token].append(Passage(idx, True, sign))
        records[under_token].append(Passage(idx, False, sign))
        position_of[i], position_of[i + 1] = sb, sa
    for pos, token in enumerate(position_of):
        ends_at[token] = pos
    components = []
    seen = [False] * k
    for start in range(k):
        if seen[start]:
            continue
        comp = []
        token = start
        while not seen[token]:
            seen[token] = True
            comp.extend(records[token])
            token = ends_at[token]
        components.append(comp)
    return VirtualLinkDiagram(components, name, classical)
