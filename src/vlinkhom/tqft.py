"""Evaluation rules of the unoriented TQFT on elementary cobordisms and
closed surfaces.

Every map is an ``ExactLinearMap`` (see ``_linalg``) composed from the
structure matrices of ``algebra``.  Orientable pieces evaluate through the
Frobenius algebra, with the flip involution phi inserted wherever a
boundary identification disagrees with the reference orientation of its
circle (the twist bits).  The nonorientable one-circle-to-one-circle piece
acts by multiplication with the crosscap element theta; by the axiom
phi(theta*v) = theta*v this needs no twist data.  A closed surface
evaluates as eps o (m o Delta)^genus o theta^crosscaps o i.

``scatter_extended`` pads a block with identities on the other tensor
factors by bit arithmetic on basis indices and writes it straight into the
rows of a differential; the cube assembly in ``homology`` scatters every
edge through it, at a ``placement`` (the index masks of the factors) that it
computes once per cube.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._linalg import ExactLinearMap, compose
from .algebra import (coproduct_matrix, counit_matrix, phi_matrix, product_matrix,
                      theta_matrix, unit_matrix)
from .errors import DimensionMismatch, InputError


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
    raise TypeError(f"not an elementary cobordism: {cob!r}")


# ---------------------------------------------------------------------------
# closed surfaces

def evaluate_closed_surface(th, genus, crosscaps):
    """Evaluate the closed surface with the given genus and crosscap count.

    ``crosscaps == 0`` means the orientable surface of that genus; otherwise
    the surface is nonorientable with ``crosscaps`` crosscaps and ``genus``
    extra handles.  The value is eps o (m o Delta)^genus o theta^crosscaps o i:
    a disc, then each crosscap multiplies by theta and each handle by
    m(Delta(1)), and a disc closes the surface.
    """
    if genus < 0 or crosscaps < 0:
        raise InputError(f"genus and crosscaps must be nonnegative, got "
                         f"genus={genus}, crosscaps={crosscaps}")
    handle, theta = compose(product_matrix(th), coproduct_matrix(th)), theta_matrix(th)
    v = unit_matrix(th)
    for _ in range(crosscaps):
        v = theta.compose(v)
    for _ in range(genus):
        v = handle.compose(v)
    return counit_matrix(th).compose(v).entry(0, 0)
