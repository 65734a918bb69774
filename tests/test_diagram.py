"""Gauss code parsing, smoothing, saddle classification and moves."""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import circle_count, splice_pairing
from vlinkhom import corpus
from vlinkhom.diagram import (all_smoothings,
                              apply_r1, apply_r1_inverse, apply_r2,
                              apply_r2_inverse, braid_closure, coerce_state,
                              cube_edges, parse_gauss,
                              r1_inverse_sites, r2_inverse_sites, random_moves,
                              smoothings_from_both_ends, diagram_from_json_obj)
from vlinkhom.errors import (BadSyntax, DuplicateRole, LengthMismatch,
                             MissingPassage, PatternNotFound, SignMismatch)

TREFOIL = "O1+,U2+,O3+,U1+,O2+,U3+"
VTREFOIL = "O1+,O2+,U1+,U2+"


# -- parsing -------------------------------------------------------------------

def test_parse_trefoil():
    d = parse_gauss(TREFOIL)
    assert d.n == 3 and d.n_plus == 3 and d.n_minus == 0
    assert len(d.components) == 1 and len(d.components[0]) == 6


def test_parse_empty_is_unknot():
    d = parse_gauss("")
    assert d.n == 0 and len(d.components) == 1 and d.components[0] == ()


def test_parse_two_unlink():
    d = parse_gauss(";")
    assert d.n == 0 and len(d.components) == 2


def test_parse_unicode_minus_and_whitespace():
    d = parse_gauss(" O1− , U1- ")
    assert d.n == 1 and d.n_minus == 1


def test_parse_sign_mismatch():
    with pytest.raises(SignMismatch) as exc:
        parse_gauss("O1+,U1-")
    assert exc.value.label == 1


def test_parse_duplicate_role():
    with pytest.raises(DuplicateRole):
        parse_gauss("O1+,O1+")


def test_parse_missing_passage():
    with pytest.raises(MissingPassage):
        parse_gauss("O1+,U1+,O2+,U3+,U2+,O3+".replace("U3+,", "").replace("O3+", "O3+,U4+,O4+"))
    with pytest.raises(MissingPassage):
        parse_gauss("O2+,U2+")  # labels must start at 1
    with pytest.raises(MissingPassage):
        parse_gauss("O1+,U1-,O3+,U3+")  # the gap in the labels is found first


def test_parse_bad_syntax():
    for text in ("X1+", "O1", "O+", "Oone+", "O1+,,U1+"):
        with pytest.raises(BadSyntax):
            parse_gauss(text)


def test_labels_are_ascii_digits_of_bounded_length():
    assert parse_gauss("O%s1+,U1+" % ("0" * 17)) == parse_gauss("O1+,U1+")
    for text in ("O1+,U\u00b2+", "O1+,U\u0661+", "O1+,U%s+" % ("1" * 19),
                 "O1+,U%s1+" % ("0" * 5000)):
        with pytest.raises(BadSyntax) as info:
            parse_gauss(text)
        assert info.value.position == 4, text


def test_serialize_roundtrip_corpus():
    for name in corpus.all_names():
        d = corpus.load(name)
        again = parse_gauss(d.serialize(), name=d.name, classical=d.classical)
        assert again == d


def test_json_roundtrip():
    d = corpus.load("figure_eight")
    again = diagram_from_json_obj(d.to_json_obj())
    assert again == d and again.classical


# -- smoothing -----------------------------------------------------------------

def test_smooth_unknot():
    d = parse_gauss("")
    sm = all_smoothings(d)[""]
    assert sm.k == 1 and sm.r == 0


def test_smooth_length_mismatch():
    with pytest.raises(LengthMismatch):
        coerce_state(parse_gauss(TREFOIL), "00")


# k(s) for the right trefoil, frozen from the union-find oracle
TREFOIL_K = {"000": 2, "001": 1, "010": 1, "100": 1,
             "011": 2, "101": 2, "110": 2, "111": 3}


def test_trefoil_circle_counts():
    d = parse_gauss(TREFOIL)
    sms = all_smoothings(d)
    for state, expected in TREFOIL_K.items():
        assert circle_count(d, [int(b) for b in state]) == expected
        assert sms[state].k == expected


# k(s) for the virtual trefoil, frozen from the union-find oracle
VTREFOIL_K = {"00": 1, "01": 1, "10": 1, "11": 2}


def test_virtual_trefoil_circle_counts():
    d = parse_gauss(VTREFOIL)
    sms = all_smoothings(d)
    for state, expected in VTREFOIL_K.items():
        assert circle_count(d, [int(b) for b in state]) == expected
        assert sms[state].k == expected


def test_smoothing_against_oracle_corpus():
    for name in corpus.all_names():
        d = corpus.load(name)
        for sm in all_smoothings(d).values():
            assert sm.k == circle_count(d, map(int, sm.state))


def test_arcs_partition_into_circles():
    for name in ("trefoil", "kishino", "virtual_trefoil", "figure_eight"):
        d = corpus.load(name)
        for sm in all_smoothings(d).values():
            assert len(sm.arc_circle) == d.total_arcs
            # every arc belongs to one circle, every circle has an arc, and
            # each circle's key is its least half-edge 2a + 1 - forward(a)
            least = {}
            for a, i in enumerate(sm.arc_circle):
                half = 2 * a + 1 - (sm.forward >> a & 1)
                least[i] = min(least.get(i, half), half)
            assert least == {i: c.key for i, c in enumerate(sm.circles)}


def assert_smoothing_tables(d):
    """Each smoothing's stored state, circle keys and arc directions agree
    with its bits and circles and with the splices read off the Gauss code,
    and the smoothings made from both ends of the cube are the same."""
    sms = all_smoothings(d)
    assert list(sms) == ["".join(w) for w in itertools.product("01", repeat=d.n)]
    for state, sm in sms.items():
        assert sm.state == state
        assert sm.r == sum(map(int, sm.state))
        assert sm.keys == tuple(c.key for c in sm.circles)
        assert sm.forward >> d.total_arcs == 0
        # each circle leaves an arc by its far end, in the direction it runs,
        # and enters an arc of the same circle at its near end
        pairing = splice_pairing(d, map(int, sm.state))
        for a, i in enumerate(sm.arc_circle):
            enter = pairing[2 * a + (sm.forward >> a & 1)]
            b = enter >> 1
            assert sm.arc_circle[b] == i
            assert enter == 2 * b + 1 - (sm.forward >> b & 1)
    assert {sm.state: sm for sm in smoothings_from_both_ends(d)} == sms


def test_smoothing_tables_on_the_corpus():
    for name in corpus.all_names():
        assert_smoothing_tables(corpus.load(name))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=0, max_size=6))
def test_smoothing_tables_on_braid_closures(word):
    assert_smoothing_tables(braid_closure(word))


# -- saddles ---------------------------------------------------------------------

def test_cube_edges_match_pinned_saddles():
    # Every edge of 44 diagrams: the corpus, O1+,O2-,U1+,U2-, R1 kinks, an
    # R2 move, multi-component codes with free loops and seeded random
    # virtual codes.  The file stores each Gauss code with its edges.
    pinned = json.loads((Path(__file__).parent / "golden" / "saddles.json").read_text())
    assert sum(len(entry["edges"]) for entry in pinned) >= 2000
    for entry in pinned:
        edges = [[e.from_state, e.to_state, e.kind, list(e.bottom), list(e.top),
                  list(e.twist_in), list(e.twist_out), e.sign_exponent]
                 for e in cube_edges(parse_gauss(entry["code"]))]
        assert edges == entry["edges"], entry["name"]


def test_cube_edge_counts():
    assert len(cube_edges(parse_gauss(TREFOIL))) == 12
    assert len(cube_edges(parse_gauss(""))) == 0
    assert len(cube_edges(parse_gauss(VTREFOIL))) == 4


def test_virtual_trefoil_edge_kinds():
    d = parse_gauss(VTREFOIL)
    kinds = {(e.from_state, e.to_state): e.kind for e in cube_edges(d)}
    assert kinds == {("00", "10"): "single_cycle", ("00", "01"): "single_cycle",
                     ("10", "11"): "split", ("01", "11"): "split"}


def test_classical_diagrams_have_no_single_cycles():
    for name in corpus.CLASSICAL_NAMES:
        d = corpus.load(name)
        for e in cube_edges(d):
            assert e.kind in ("merge", "split"), (name, e)


def test_saddle_circle_count_step():
    for name in corpus.all_names():
        d = corpus.load(name)
        sms = all_smoothings(d)
        for e in cube_edges(d, sms):
            dk = sms[e.to_state].k - sms[e.from_state].k
            assert abs(dk) <= 1
            assert {"merge": -1, "split": 1, "single_cycle": 0}[e.kind] == dk


def test_trefoil_edge_kind():
    edges = {(e.from_state, e.to_state): e for e in cube_edges(parse_gauss(TREFOIL))}
    assert edges["000", "100"].kind == "merge"  # k goes 2 -> 1


def test_sign_exponent_rule():
    edges = {(e.from_state, e.to_state): e for e in cube_edges(parse_gauss(TREFOIL))}
    e = edges["101", "111"]
    assert e.position == 1 and e.sign_exponent == 1
    e = edges["011", "111"]
    assert e.position == 0 and e.sign_exponent == 0


def test_square_faces_anticommute():
    # <s,t> + <t,u> + <s,t'> + <t',u> is odd on every square face
    for name in ("trefoil", "kishino", "virtual_trefoil"):
        d = corpus.load(name)
        sms = all_smoothings(d)
        exps = {(e.from_state, e.to_state): e.sign_exponent for e in cube_edges(d, sms)}
        for s in sms.values():
            zeros = [j for j in range(d.n) if s.state[j] == "0"]
            for j1, j2 in itertools.combinations(zeros, 2):
                t1 = _flip(s.state, j1)
                t2 = _flip(s.state, j2)
                u = _flip(t1, j2)
                total = (exps[(s.state, t1)] + exps[(t1, u)]
                         + exps[(s.state, t2)] + exps[(t2, u)])
                assert total % 2 == 1


def _flip(state, j):
    return state[:j] + "1" + state[j + 1:]


def test_r2_unknot_cube():
    # the 2-crossing unknot made by a parallel self-R2; its cube mixes a
    # merge-split path with a theta^2 path (hand-verified twists)
    d = parse_gauss("O1+,O2-,U1+,U2-")
    edges = {(e.from_state, e.to_state): e for e in cube_edges(d)}
    assert edges[("00", "10")].kind == "split"
    assert edges[("00", "10")].twist_in == (0,)
    assert edges[("00", "10")].twist_out == (0, 0)
    assert edges[("00", "01")].kind == "single_cycle"
    assert edges[("01", "11")].kind == "single_cycle"
    merge = edges[("10", "11")]
    assert merge.kind == "merge"
    assert merge.twist_in == (1, 0) and merge.twist_out == (1,)


# -- moves ---------------------------------------------------------------------

def test_r1_on_unknot():
    d = apply_r1(parse_gauss(""), (0, 0), 0)
    assert d.serialize() == "O1+,U1+"
    assert d.n_plus == 1
    # any position on an empty component inserts at 0
    assert apply_r1(parse_gauss(";"), (1, 4), 3).serialize() == ";U1-,O1-"


def test_r1_variants_counts():
    d = parse_gauss(TREFOIL)
    for v, (sign, _) in enumerate(((1, "ou"), (1, "uo"), (-1, "ou"), (-1, "uo"))):
        d1 = apply_r1(d, (0, 2), v)
        assert d1.n == 4
        assert d1.n_plus == d.n_plus + (1 if sign > 0 else 0)


def test_r1_roundtrip():
    d = parse_gauss(TREFOIL)
    d1 = apply_r1(d, (0, 2), 3)
    sites = r1_inverse_sites(d1)
    assert (0, 2) in sites
    assert apply_r1_inverse(d1, (0, 2)) == d
    # positions wrap around the component
    assert apply_r1(d, (0, 8), 1) == apply_r1(d, (0, 2), 1)
    d2 = apply_r1(d, (0, 6), 2)
    assert d2.serialize() == "O4-,U4-,O1+,U2+,O3+,U1+,O2+,U3+"
    assert apply_r1_inverse(d2, (0, 0)) == d


def assert_inverse_applies_exactly_at_its_sites(sites_of, apply, removed):
    # the corpus and 20-move walks from it; a site is any component and
    # any position from -1 to one past the end
    diagrams = [corpus.load(name) for name in corpus.all_names()]
    diagrams += [random_moves(d, 20, random.Random(f"sites:{d.name}"), 8)[0]
                 for d in list(diagrams)]
    found = 0
    for d in diagrams:
        sites = sites_of(d)
        found += len(sites)
        for ci, comp in enumerate(d.components):
            for pos in range(-1, len(comp) + 2):
                if (ci, pos) in sites:
                    assert apply(d, (ci, pos)).n == d.n - removed
                else:
                    with pytest.raises(PatternNotFound):
                        apply(d, (ci, pos))
    assert found >= 10


def test_r1_inverse_pattern_not_found():
    with pytest.raises(PatternNotFound):
        apply_r1_inverse(parse_gauss(TREFOIL), (0, 0))
    # a two-passage kink component has its kink at position 0 only
    assert r1_inverse_sites(parse_gauss("O1+,U1+")) == [(0, 0)]
    with pytest.raises(PatternNotFound):
        apply_r1_inverse(parse_gauss("O1+,U1+"), (0, 1))
    assert_inverse_applies_exactly_at_its_sites(r1_inverse_sites, apply_r1_inverse, 1)


def test_r2_roundtrip_same_component():
    d = parse_gauss(TREFOIL)
    for variant in ("parallel", "antiparallel"):
        d2 = apply_r2(d, ((0, 1), (0, 4)), variant)
        assert d2.n == 5
        assert d2.n_plus == d.n_plus + 1 and d2.n_minus == d.n_minus + 1
        sites = r2_inverse_sites(d2)
        assert sites, "inserted R2 pattern must be detectable"
        assert any(apply_r2_inverse(d2, s) == d for s in sites)
    # positions are reduced modulo the length before either block goes in;
    # of two blocks at one position the second lands first
    for sites, variant, expected in (
            (((0, 7), (0, 3)), "parallel", "O1+,O4+,O5-,U2+,O3+,U4+,U5-,U1+,O2+,U3+"),
            (((0, 4), (0, 9)), "antiparallel", "O1+,U2+,O3+,U5+,U4-,U1+,O4-,O5+,O2+,U3+"),
            (((0, 1), (0, 7)), "parallel", "O1+,U4+,U5-,O4+,O5-,U2+,O3+,U1+,O2+,U3+")):
        d2 = apply_r2(d, sites, variant)
        assert d2.serialize() == expected
        assert any(apply_r2_inverse(d2, s) == d for s in r2_inverse_sites(d2))


def test_r2_roundtrip_two_components():
    d = parse_gauss(";")
    d2 = apply_r2(d, ((0, 0), (1, 0)), "parallel")
    assert d2.n == 2 and len(d2.components) == 2
    back = apply_r2_inverse(d2, r2_inverse_sites(d2)[0])
    assert back == d
    # any position on an empty component inserts at 0
    d3 = apply_r2(parse_gauss("O1+,U1+;"), ((1, 3), (0, 5)), "antiparallel")
    assert d3.serialize() == "O1+,U3+,U2-,U1+;O2-,O3+"
    d4 = apply_r2(d, ((1, 3), (1, 0)), "parallel")
    assert d4.serialize() == ";U1+,U2-,O1+,O2-"
    assert apply_r2_inverse(d4, r2_inverse_sites(d4)[0]) == d


def test_r2_rejects_equal_sites():
    with pytest.raises(PatternNotFound):
        apply_r2(parse_gauss(""), ((0, 0), (0, 0)), "parallel")


@pytest.mark.parametrize("variant", [4, -1, "0"], ids=repr)
def test_r1_rejects_unknown_variant(variant):
    with pytest.raises(ValueError, match="0, 1, 2 or 3"):
        apply_r1(parse_gauss(TREFOIL), (0, 2), variant)


@pytest.mark.parametrize("variant", ["Parallel", 0, None], ids=repr)
def test_r2_rejects_unknown_variant(variant):
    with pytest.raises(ValueError, match="parallel or antiparallel"):
        apply_r2(parse_gauss(TREFOIL), ((0, 1), (0, 4)), variant)


@pytest.mark.parametrize("run, error", [
    (lambda d: coerce_state(d, "x" * 5000), BadSyntax),
    (lambda d: apply_r1(d, (0, 0), "x" * 5000), ValueError),
    (lambda d: apply_r2(d, ((0, 1), (0, 4)), "x" * 5000), ValueError),
], ids=["smooth_state", "r1_variant", "r2_variant"])
def test_a_long_library_argument_is_cut_in_its_message(run, error):
    with pytest.raises(error) as info:
        run(parse_gauss(TREFOIL))
    message = str(info.value)
    assert len(message) < 300 and message.endswith("..."), message


def test_r2_inverse_pattern_not_found():
    with pytest.raises(PatternNotFound):
        apply_r2_inverse(parse_gauss(TREFOIL), (0, 0))
    assert_inverse_applies_exactly_at_its_sites(r2_inverse_sites, apply_r2_inverse, 2)


def test_random_moves_bounded_and_deterministic():
    d = corpus.load("figure_eight")
    m1, t1 = random_moves(d, 30, random.Random(11), max_crossings=7)
    m2, t2 = random_moves(d, 30, random.Random(11), max_crossings=7)
    assert m1 == m2 and t1 == t2
    assert m1.n <= 7


def test_random_moves_match_pinned_walks():
    # 50-move walks from every corpus diagram, seeds 0-9, at 6 and 8
    # crossings: the final code and the whole trail of each.
    pinned = json.loads((Path(__file__).parent / "golden" / "moves.json").read_text())
    assert len(pinned) == 2 * 10 * len(corpus.all_names())
    for entry in pinned:
        name, seed = entry["name"], entry["seed"]
        moved, trail = random_moves(corpus.load(name), 50, random.Random(f"{seed}:{name}"),
                                    entry["max_crossings"])
        assert (moved.serialize(), trail) == (entry["final"], entry["trail"]), \
            (name, seed, entry["max_crossings"])


# -- braid closures ---------------------------------------------------------------

def test_braid_closure_trefoil():
    d = braid_closure([1, 1, 1])
    assert d.n == 3 and d.n_plus == 3
    assert len(d.components) == 1
    k_values = sorted(sm.k for sm in all_smoothings(d).values())
    expected = sorted(TREFOIL_K.values())
    assert k_values == expected


def test_braid_closure_figure_eight():
    d = braid_closure([1, -2, 1, -2])
    assert d.n == 4 and d.n_plus == 2 and d.n_minus == 2
    assert len(d.components) == 1


def test_braid_closure_refuses_generator_0():
    for word, index in (([0], 0), ([1, 0, -1], 1)):
        with pytest.raises(BadSyntax, match=f"position {index}: .*got 0"):
            braid_closure(word)


def test_braid_closure_component_count():
    assert len(braid_closure([1, 2, 1]).components) == 2   # permutation (13)
    assert len(braid_closure([1]).components) == 1
    assert len(braid_closure([]).components) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=6))
def test_braid_closures_are_valid_and_smoothable(word):
    d = braid_closure(word)
    for sm in all_smoothings(d).values():
        assert sm.k == circle_count(d, map(int, sm.state))
        assert sm.k >= 1
