"""Evaluation rules of the unoriented TQFT on elementary cobordisms.

The structure matrices (product, coproduct, phi, theta, counit, unit) are
not tabulated here: each is read off the functions of ``algebra`` -- the
same ones ``verify_axioms`` checks -- by evaluating them on basis tensors.
Orientable pieces evaluate through the Frobenius algebra, with the flip
involution inserted wherever a boundary identification disagrees with the
reference orientation of its circle (the twist bits).  The nonorientable
one-circle-to-one-circle piece acts by multiplication with the crosscap
element theta; by the axiom phi(theta*v) = theta*v this needs no twist data.
Every matrix is an ``ExactLinearMap``: nonzero scalars stored row-major as
``{row: {col: value}}``, the layout that the cube assembly, the d o d check
and elimination all read.  ``scatter_extended`` pads a block with identities
on the other tensor factors by bit arithmetic on basis indices and writes it
straight into the rows of a differential; the cube assembly in ``homology``
scatters every edge through it, at a ``placement`` (the index masks of the
factors) that it computes once per cube.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import algebra
from .errors import DimensionMismatch, InputError


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
# padding a block with identities

def _factor_masks(positions, k):
    """Index bits of a k-factor basis vector for each index of a block
    acting on the factors ``positions`` (both big-endian)."""
    masks = [0]
    for p in positions:
        bit = 1 << (k - 1 - p)
        masks = [m | b for m in masks for b in (0, bit)]
    return masks


def placement(in_pos, k_in, out_pos, k_out):
    """Where a block goes in ``scatter_extended``: it maps the factors
    ``in_pos`` of V^(x)k_in to the factors ``out_pos`` of V^(x)k_out, and the
    remaining factors are matched up in order.  Returns the index bits of the
    block's rows and columns, and the row and the column offsets of the
    spectator indices, in matching order."""
    spectators_in = [p for p in range(k_in) if p not in in_pos]
    spectators_out = [p for p in range(k_out) if p not in out_pos]
    if len(spectators_in) != len(spectators_out):
        raise DimensionMismatch("spectator factor counts differ")
    return (_factor_masks(out_pos, k_out), _factor_masks(in_pos, k_in),
            _factor_masks(spectators_out, k_out), _factor_masks(spectators_in, k_in))


def scatter_extended(rows_out, block, masks, row0, col0):
    """Write the entries of ``block`` padded with identities, shifted by
    ``row0`` and ``col0``, into the rows ``{row: {col: value}}`` of
    ``rows_out``, at the factor placement ``masks`` (see ``placement``)."""
    rows, cols, spectator_rows, spectator_cols = masks
    if block.ncols != len(cols) or block.nrows != len(rows):
        raise DimensionMismatch("block shape does not match its factor positions")
    # block and spectator bits are disjoint, so or-ing them is adding them
    placed = [(row0 + rows[r], [(cols[c], v) for c, v in row.items()])
              for r, row in block.rows.items()]
    for sr, sc in zip(spectator_rows, spectator_cols):
        c0 = col0 + sc
        for r, row in placed:
            target = rows_out.get(r + sr)
            if target is None:
                rows_out[r + sr] = {c0 + c: v for c, v in row}
            else:
                for c, v in row:
                    target[c0 + c] = v


# ---------------------------------------------------------------------------
# structure maps as matrices, derived from the algebra
# (basis order 1, x; tensor factors big-endian)

def _structure_matrix(th, n_in, n_out, image):
    """The matrix of a map V^(x)n_in -> V^(x)n_out.

    ``image`` takes n_in basis elements and returns their image as a
    TensorElement of rank n_out.
    """
    basis = th.basis()
    entries = {}
    for col, word in enumerate(itertools.product((0, 1), repeat=n_in)):
        for idx, c in image(*(basis[i] for i in word)).terms:
            entries[(sum(b << (n_out - 1 - i) for i, b in enumerate(idx)), col)] = c
    return ExactLinearMap.make(th.field, 1 << n_out, 1 << n_in, entries)


def product_matrix(th):
    return _structure_matrix(
        th, 2, 1, lambda u, v: algebra.tensor_of(algebra.multiply(th, u, v)))


def coproduct_matrix(th):
    return _structure_matrix(th, 1, 2, lambda v: algebra.comultiply(th, v))


def phi_matrix(th):
    return _structure_matrix(th, 1, 1, lambda v: algebra.tensor_of(algebra.phi(th, v)))


def theta_matrix(th):
    """Multiplication by theta = lam*1 + mu*x."""
    return _structure_matrix(th, 1, 1, lambda v: algebra.tensor_of(
        algebra.multiply(th, algebra.theta(th), v)))


def counit_matrix(th):
    return _structure_matrix(th, 1, 0, lambda v: algebra.TensorElement.make(
        th.field, 0, {(): algebra.counit(th, v)}))


def unit_matrix(th):
    return _structure_matrix(th, 0, 1, lambda: algebra.tensor_of(algebra.unit(th)))


# ---------------------------------------------------------------------------
# elementary cobordisms

@dataclass(frozen=True)
class Merge:
    """Two circles fuse into one; twists flag orientation mismatches."""
    twist_in: tuple = (0, 0)
    twist_out: int = 0


@dataclass(frozen=True)
class Split:
    """One circle splits into two."""
    twist_in: int = 0
    twist_out: tuple = (0, 0)


@dataclass(frozen=True)
class SingleCycle:
    """One circle to one circle through a twice-punctured projective plane."""


@dataclass(frozen=True)
class Cylinder:
    twist: int = 0


@dataclass(frozen=True)
class Cap:
    """The disc as a cobordism from nothing to a circle (the unit)."""


@dataclass(frozen=True)
class Cup:
    """The disc as a cobordism from a circle to nothing (the counit)."""


def _phi_power(th, n):
    return phi_matrix(th) if n % 2 else ExactLinearMap.identity(th.field, 2)


def elementary_map(th, cob):
    """The matrix of an elementary cobordism on its affected tensor factors."""
    if isinstance(cob, Merge):
        pre = _phi_power(th, cob.twist_in[0]).kron(_phi_power(th, cob.twist_in[1]))
        return compose(_phi_power(th, cob.twist_out), product_matrix(th), pre)
    if isinstance(cob, Split):
        post = _phi_power(th, cob.twist_out[0]).kron(_phi_power(th, cob.twist_out[1]))
        return compose(post, coproduct_matrix(th), _phi_power(th, cob.twist_in))
    if isinstance(cob, SingleCycle):
        return theta_matrix(th)
    if isinstance(cob, Cylinder):
        return _phi_power(th, cob.twist)
    if isinstance(cob, Cap):
        return unit_matrix(th)
    if isinstance(cob, Cup):
        return counit_matrix(th)
    raise TypeError(f"not an elementary cobordism: {cob!r}")


# ---------------------------------------------------------------------------
# closed surfaces

def evaluate_closed_surface(th, genus, crosscaps):
    """Evaluate the closed surface with the given genus and crosscap count.

    ``crosscaps == 0`` means the orientable surface of that genus; otherwise
    the surface is nonorientable with ``crosscaps`` crosscaps and ``genus``
    extra handles.  The value is eps(H^genus * theta^crosscaps) where H is
    the handle element m(Delta(1)).
    """
    if genus < 0 or crosscaps < 0:
        raise InputError(f"genus and crosscaps must be nonnegative, got "
                         f"genus={genus}, crosscaps={crosscaps}")
    v = algebra.element_power(th, algebra.handle_element(th), genus)
    v = algebra.multiply(th, v, algebra.element_power(th, algebra.theta(th), crosscaps))
    return algebra.counit(th, v)
