"""State-sum Jones polynomial: known values, identities, invariance."""

import random
import tracemalloc

import pytest

from vlinkhom import corpus
from vlinkhom.diagram import (all_smoothings, apply_r1, apply_r2, braid_closure,
                              parse_gauss, random_moves)
from vlinkhom.jones import CIRCLE_POLY, LaurentPoly, jones_at_one, kauffman_jones

# unnormalised Jones polynomials in the Khovanov convention
# (unknot -> q + 1/q); classical values cross-checked against the
# literature, virtual ones frozen from the state sum
KNOWN = {
    "unknot": {-1: 1, 1: 1},
    "unlink2": {-2: 1, 0: 2, 2: 1},
    "trefoil": {1: 1, 3: 1, 5: 1, 9: -1},
    "figure_eight": {-5: 1, 5: 1},
    "cinquefoil": {3: 1, 5: 1, 7: 1, 15: -1},
    "virtual_trefoil": {1: 1, 2: -1, 3: 1, 6: 1},
    "kishino": {-1: 1, 1: 1},  # trivial Jones, the Kishino hallmark
}


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_known_values(name):
    assert kauffman_jones(corpus.load(name)) == LaurentPoly.make(KNOWN[name])


def test_jones_at_one_matches_polynomial():
    for name in corpus.all_names():
        d = corpus.load(name)
        assert kauffman_jones(d).at_one() == jones_at_one(d)


def test_unknot_values():
    assert kauffman_jones(parse_gauss("")) == CIRCLE_POLY
    assert jones_at_one(parse_gauss("")) == 2
    assert jones_at_one(parse_gauss(";")) == 4


def test_disjoint_unknot_multiplies():
    for name in ("trefoil", "virtual_trefoil", "kishino"):
        d = corpus.load(name)
        with_loop = parse_gauss(d.serialize() + ";", name=name + "+o")
        assert kauffman_jones(with_loop) == CIRCLE_POLY * kauffman_jones(d)


def test_invariance_under_r1_r2():
    for name in ("unknot", "trefoil", "virtual_trefoil", "figure_eight"):
        d = corpus.load(name)
        base = kauffman_jones(d)
        for v in range(4):
            assert kauffman_jones(apply_r1(d, (0, 0), v)) == base
        if d.n >= 2:
            assert kauffman_jones(apply_r2(d, ((0, 0), (0, 2)), "parallel")) == base
            assert kauffman_jones(apply_r2(d, ((0, 1), (0, 3)), "antiparallel")) == base


def test_invariance_under_random_walks():
    for name in ("trefoil", "kishino"):
        d = corpus.load(name)
        moved, _ = random_moves(d, 25, random.Random(f"jones:{name}"), max_crossings=8)
        assert kauffman_jones(moved) == kauffman_jones(d)


def test_r3_pairs_equal():
    for da, db in corpus.load_r3_pairs():
        assert kauffman_jones(da) == kauffman_jones(db)


def test_mirror_flips_variable():
    # mirroring every crossing (swap over/under, flip signs) sends q -> 1/q
    d = corpus.load("trefoil")
    mirror = parse_gauss(",".join(
        ("U" if p.over else "O") + str(p.crossing) + "-" for p in d.components[0]))
    assert kauffman_jones(mirror) == kauffman_jones(d).substitute_inverse()


def test_jones_without_a_cube_keeps_no_smoothing():
    # the 2^14 states of the closure of (s1 s2^-1)^7 are counted by (r, k)
    # one smoothing at a time: a list of them held about 9 MB
    d = braid_closure([1, -2] * 7)
    tracemalloc.start()
    try:
        streamed = kauffman_jones(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert streamed == kauffman_jones(d, all_smoothings(d))


def test_laurent_poly_arithmetic():
    p = LaurentPoly.make({1: 2, -1: 1})
    assert (p * LaurentPoly.make({0: 1})) == p
    assert dict((p * p).terms) == {2: 4, 0: 4, -2: 1}
    # the q^0 terms cancel and are not stored
    assert (CIRCLE_POLY * LaurentPoly.make({1: 1, -1: -1})).terms == ((-2, -1), (2, 1))
    assert p.at_one() == 3
    assert p.to_json() == {"1": 2, "-1": 1}
