"""Saddle blocks, tensor extension and surface evaluation."""

import itertools

import pytest

from vlinkhom.algebra import all_presets, preset, theory_from_triple
from vlinkhom.errors import DimensionMismatch
from vlinkhom.fields import GF2, QQ
from vlinkhom.tqft import (MAX_SURFACE_COUNT, ExactLinearMap, compose,
                           coproduct_matrix, counit_matrix, elementary_map,
                           evaluate_closed_surface, phi_matrix, placement,
                           product_matrix, scatter_extended, theta_matrix,
                           unit_matrix)

Q = QQ.from_int


def q_theory(a=1, lam=0, mu=1):
    return theory_from_triple(Q(a), Q(lam), Q(mu))


def test_merge_row1_matrix():
    # x*x = 0 in row 1
    m = elementary_map(preset("manturov"), "merge", (0, 0), (0,))
    assert m.entry_map() == {(0, 0): 1, (1, 1): 1, (1, 2): 1}


def test_structure_matrices_follow_the_formulas():
    # pin the big-endian layout of algebra.py's matrices against the
    # defining formulas on a theory where every constant is distinct
    # (theta = -1*1 + 2*x)
    th = theory_from_triple(Q(2), Q(-1), Q(2))
    f, h, t = th.f, th.h, th.t
    assert product_matrix(th).entry_map() == {
        (0, 0): 1, (1, 1): 1, (1, 2): 1, (0, 3): t, (1, 3): h}
    assert coproduct_matrix(th).entry_map() == {
        (0, 0): -h * f, (1, 0): f, (2, 0): f, (0, 1): f * t, (3, 1): f}
    assert theta_matrix(th).entry_map() == {
        (0, 0): Q(-1), (1, 0): Q(2), (0, 1): 2 * t, (1, 1): -1 + 2 * h}
    assert phi_matrix(th) == ExactLinearMap.identity(QQ, 2)  # beta = 0
    assert phi_matrix(preset("f2_row2")).entry_map() == {(0, 0): 1, (0, 1): 1, (1, 1): 1}
    assert counit_matrix(th).entry_map() == {(0, 1): Q(2)}


def test_single_cycle_row1_zero_row7_theta():
    assert elementary_map(preset("manturov"), "single_cycle", (), ()).is_zero()
    m = elementary_map(preset("f2_row7"), "single_cycle", (), ())
    # theta = x, h = t = 0: 1 -> x, x -> x*x = 0
    assert m.entry_map() == {(1, 0): 1}


def test_single_cycle_twist_agnostic():
    # phi o (theta .) = (theta .) as matrices, for every preset
    for th in all_presets() + [q_theory(2, 1, 1)]:
        tmat = theta_matrix(th)
        assert phi_matrix(th).compose(tmat) == tmat
        assert tmat.compose(phi_matrix(th)) == tmat


def test_merge_double_twist_collapses():
    # phi o m o (phi (x) phi) = m
    for th in all_presets():
        assert elementary_map(th, "merge", (1, 1), (1,)) == \
            elementary_map(th, "merge", (0, 0), (0,))


def test_global_twist_flip_is_invisible():
    # flipping every twist bit leaves the matrix unchanged
    for th in all_presets():
        for kind, n_in, n_out in (("merge", 2, 1), ("split", 1, 2)):
            for ti in itertools.product((0, 1), repeat=n_in):
                for to in itertools.product((0, 1), repeat=n_out):
                    flipped = (tuple(1 - b for b in ti), tuple(1 - b for b in to))
                    assert elementary_map(th, kind, ti, to) == \
                        elementary_map(th, kind, *flipped)


def test_unknown_saddle_kind_raises():
    with pytest.raises(ValueError, match="cylinder"):
        elementary_map(preset("manturov"), "cylinder", (0,), (0,))


def test_cylinder_composition_is_identity():
    # the twisted cylinder is phi, and phi o phi = id
    for th in all_presets():
        assert compose(phi_matrix(th), phi_matrix(th)) == ExactLinearMap.identity(th.field, 2)


def test_cup_cap_sphere():
    for th in all_presets() + [q_theory()]:
        assert compose(counit_matrix(th), unit_matrix(th)).is_zero()


def test_extended_entries_phi_on_each_of_two():
    th = preset("f2_row2")
    phi, ident = phi_matrix(th), ExactLinearMap.identity(GF2, 2)
    ints = list(range(4))
    for pos, expected in ((0, phi.kron(ident)), (1, ident.kron(phi))):
        ext = {}
        scatter_extended(ext, phi, placement((pos,), 2, (pos,), 2), 0, 0, ints)
        assert ExactLinearMap(GF2, 4, 4, ext) == expected


def test_extended_entries_shape_mismatch():
    th = preset("manturov")
    with pytest.raises(DimensionMismatch):
        # a 2 -> 1 block placed as if it acted on one factor
        scatter_extended({}, product_matrix(th), placement((0,), 2, (0,), 2), 0, 0,
                         list(range(4)))


def test_compose_dimension_mismatch():
    th = preset("manturov")
    with pytest.raises(DimensionMismatch):
        compose(unit_matrix(th), unit_matrix(th))


def test_torus_from_elementary_pieces_any_twists():
    # eps o merge o split o i evaluates to 2 for every twist assignment
    for th in all_presets() + [q_theory(1, 1, 1)]:
        two = th.field.from_int(2)
        for ti, to in itertools.product(itertools.product((0, 1), repeat=2), repeat=2):
            torus = compose(
                counit_matrix(th),
                elementary_map(th, "merge", ti, (0,)),
                elementary_map(th, "split", (0,), to),
                unit_matrix(th))
            assert torus.entry(0, 0) == two


# -- closed surfaces -----------------------------------------------------------

def test_sphere_and_torus_values():
    for th in all_presets():
        assert evaluate_closed_surface(th, 0, 0) == th.field.zero
        assert evaluate_closed_surface(th, 1, 0) == th.field.from_int(2)
    thq = q_theory(1, 0, 1)
    assert evaluate_closed_surface(thq, 0, 0) == Q(0)
    assert evaluate_closed_surface(thq, 1, 0) == Q(2)


def test_crosscap_value_row7():
    assert evaluate_closed_surface(preset("f2_row7"), 0, 1) == 1


def test_crosscap_normalization():
    # eps(H^g theta^k) = eps(H^(g+1) theta^(k-2)) for k >= 2
    theories = all_presets() + [q_theory(1, 0, 1), q_theory(2, 1, 1), q_theory(1, -1, 1)]
    for th in theories:
        for k in range(2, 7):
            for g in range(0, 4):
                assert evaluate_closed_surface(th, g, k) == \
                    evaluate_closed_surface(th, g + 1, k - 2), (th.name, g, k)


def test_surface_powers_match_one_piece_at_a_time():
    # repeated squaring against eps o H o ... o H o theta o ... o theta o i,
    # one handle or crosscap at a time
    for th in all_presets() + [q_theory(1, 0, 1), q_theory(2, 1, 1)]:
        handle = compose(product_matrix(th), coproduct_matrix(th))
        for k in range(4):
            v = unit_matrix(th)
            for _ in range(k):
                v = theta_matrix(th).compose(v)
            for g in range(20):
                assert evaluate_closed_surface(th, g, k) == \
                    counit_matrix(th).compose(v).entry(0, 0), (th.name, g, k)
                v = handle.compose(v)


def test_surface_values_at_the_cap():
    # H = 2(x - 1) with (x - 1)^2 = -1, so eps(H^g(1)) is -2^g for g = 3
    # mod 4 and 0 for g = 0 mod 4, the cap itself
    th = q_theory(1, 0, 1)
    assert evaluate_closed_surface(th, MAX_SURFACE_COUNT - 1, 0) == \
        -2 ** (MAX_SURFACE_COUNT - 1)
    assert evaluate_closed_surface(th, MAX_SURFACE_COUNT, 0) == 0


def test_klein_bottle_two_routes():
    # eps(theta^2) computed directly and through m(phi (x) Id)Delta(1)
    for th in all_presets() + [q_theory(1, 2, 1)]:
        direct = evaluate_closed_surface(th, 0, 2)
        klein = compose(counit_matrix(th), product_matrix(th),
                        phi_matrix(th).kron(ExactLinearMap.identity(th.field, 2)),
                        coproduct_matrix(th), unit_matrix(th))
        assert direct == klein.entry(0, 0)


def test_counit_unit_matrices():
    th = q_theory(1, 0, 1)
    assert counit_matrix(th).entry_map() == {(0, 1): Q(1)}
    assert unit_matrix(th).entry_map() == {(0, 0): Q(1)}
