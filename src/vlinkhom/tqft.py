"""Evaluation rules of the unoriented TQFT on saddles and closed surfaces.

Every map is an ``ExactLinearMap`` (see ``_linalg``) composed from the
structure matrices of ``algebra``.  A saddle's block is read straight off
its kind and twist bits, as ``diagram.saddles`` classifies them.  A
merge or a split evaluates through the Frobenius algebra, with the flip
involution phi on each circle whose twist bit is set, i.e. whose boundary
identification disagrees with the circle's reference orientation.  A
single-cycle saddle acts by multiplication with the crosscap element theta;
by the axiom phi(theta*v) = theta*v it needs no twist bits.  A closed
surface evaluates as eps o (m o Delta)^genus o theta^crosscaps o i, with
both powers taken by repeated squaring.

``scatter_extended`` pads a block with identities on the other tensor
factors by bit arithmetic on basis indices and writes it straight into the
rows of a differential; the cube assembly in ``homology`` scatters every
edge through it, at a ``placement`` (the index masks of the factors, from
the circle indices the saddle affects) that it computes once per cube.
"""

from __future__ import annotations

from ._linalg import ExactLinearMap, compose
from .algebra import (coproduct_matrix, counit_matrix, phi_matrix, product_matrix,
                      structure_maps, theta_matrix, unit_matrix)
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
# saddles

def elementary_map(th, kind, twist_in, twist_out):
    """The block of a saddle of ``kind`` ("merge", "split" or
    "single_cycle") with one twist bit per affected circle, as
    ``diagram.saddles`` gives them: phi^out o m o (phi^a (x) phi^b) for a
    merge, (phi^a (x) phi^b) o Delta o phi^in for a split, and theta for a
    single-cycle saddle, which needs no twist bits.  ``th`` may also be what
    ``algebra.sparsest_basis`` returns, in any field: a ``TheoryParams`` in
    the basis (1, x - h/2) or (1, x + 1), or an ``Idempotents``, whose
    blocks are read the same way off ``algebra.structure_maps``."""
    m, delta, phi, theta = structure_maps(th)
    if kind == "single_cycle":
        return theta
    ident = ExactLinearMap.identity(th.field, 2)
    pre = [phi if b else ident for b in twist_in]
    post = [phi if b else ident for b in twist_out]
    if kind == "merge":
        return compose(post[0], m, pre[0].kron(pre[1]))
    if kind == "split":
        return compose(post[0].kron(post[1]), delta, pre[0])
    raise ValueError(f"not a saddle kind: {kind!r}")


# ---------------------------------------------------------------------------
# closed surfaces

# The largest genus, and the largest crosscap count, that
# ``evaluate_closed_surface`` accepts.  Over Q an entry of (m o Delta)^g can
# have about g bits (H = 2(x - 1) for the triple 1,0,1), so an unbounded
# count could exhaust memory; at the cap a value takes well under a second.
MAX_SURFACE_COUNT = 1 << 20


def _power(m, n):
    """m^n for a square map m and n >= 0, by repeated squaring."""
    out = ExactLinearMap.identity(m.field, m.nrows)
    while n:
        if n & 1:
            out = out.compose(m)
        n >>= 1
        if n:
            m = m.compose(m)
    return out


def evaluate_closed_surface(th, genus, crosscaps):
    """Evaluate the closed surface with the given genus and crosscap count.

    ``crosscaps == 0`` means the orientable surface of that genus; otherwise
    the surface is nonorientable with ``crosscaps`` crosscaps and ``genus``
    extra handles.  The value is eps o (m o Delta)^genus o theta^crosscaps o i:
    a disc, then each crosscap multiplies by theta and each handle by
    m(Delta(1)), and a disc closes the surface.  A negative count, or one
    above MAX_SURFACE_COUNT, is an InputError.
    """
    if genus < 0 or crosscaps < 0:
        raise InputError(f"genus and crosscaps must be nonnegative, got "
                         f"genus={genus}, crosscaps={crosscaps}")
    if max(genus, crosscaps) > MAX_SURFACE_COUNT:
        raise InputError(f"genus and crosscaps must be at most MAX_SURFACE_COUNT = "
                         f"{MAX_SURFACE_COUNT:,}, got genus={genus}, crosscaps={crosscaps}")
    handle = compose(product_matrix(th), coproduct_matrix(th))
    return compose(counit_matrix(th), _power(handle, genus),
                   _power(theta_matrix(th), crosscaps), unit_matrix(th)).entry(0, 0)
