"""Elementary cobordism maps, tensor extension and surface evaluation."""

import itertools

import pytest

from vlinkhom.algebra import all_presets, preset, theory_from_triple
from vlinkhom.errors import DimensionMismatch
from vlinkhom.fields import GF2, QQ
from vlinkhom.tqft import (ExactLinearMap, Merge, SingleCycle, Split, compose,
                           coproduct_matrix, counit_matrix, elementary_map,
                           evaluate_closed_surface, phi_matrix, placement,
                           product_matrix, scatter_extended, theta_matrix,
                           unit_matrix)

Q = QQ.from_int


def q_theory(a=1, lam=0, mu=1):
    return theory_from_triple(Q(a), Q(lam), Q(mu))


def test_merge_row1_matrix():
    # x*x = 0 in row 1
    m = elementary_map(preset("manturov"), Merge())
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
    assert elementary_map(preset("manturov"), SingleCycle()).is_zero()
    m = elementary_map(preset("f2_row7"), SingleCycle())
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
        assert elementary_map(th, Merge(twist_in=(1, 1), twist_out=1)) == \
            elementary_map(th, Merge())


def test_global_twist_flip_is_invisible():
    # flipping every twist bit leaves the matrix unchanged
    for th in all_presets():
        for ti in itertools.product((0, 1), repeat=2):
            for to in (0, 1):
                flipped = Merge(twist_in=(1 - ti[0], 1 - ti[1]), twist_out=1 - to)
                assert elementary_map(th, Merge(twist_in=ti, twist_out=to)) == \
                    elementary_map(th, flipped)
        for ti in (0, 1):
            for to in itertools.product((0, 1), repeat=2):
                flipped = Split(twist_in=1 - ti, twist_out=(1 - to[0], 1 - to[1]))
                assert elementary_map(th, Split(twist_in=ti, twist_out=to)) == \
                    elementary_map(th, flipped)


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
    for pos, expected in ((0, phi.kron(ident)), (1, ident.kron(phi))):
        ext = {}
        scatter_extended(ext, phi, placement((pos,), 2, (pos,), 2), 0, 0)
        assert ExactLinearMap(GF2, 4, 4, ext) == expected


def test_extended_entries_shape_mismatch():
    th = preset("manturov")
    with pytest.raises(DimensionMismatch):
        # a 2 -> 1 block placed as if it acted on one factor
        scatter_extended({}, product_matrix(th), placement((0,), 2, (0,), 2), 0, 0)


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
                elementary_map(th, Merge(twist_in=ti, twist_out=0)),
                elementary_map(th, Split(twist_in=0, twist_out=to)),
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
