"""Chain complex assembly, homology, grading and convention independence."""

import importlib
import json
import random
import time
import tracemalloc
import types
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (assembled_differential, chain_label, classical_khovanov_f2_betti,
                     dense_betti_qq, edge_table, first_nonzero_d_squared,
                     orientation_betti, parity_betti, rank_f2_dense, rank_fp_dense,
                     rank_qq_dense, theta_total_betti)
from vlinkhom import corpus
from vlinkhom.algebra import (PRESET_NAMES, all_presets, preset,
                              random_rational_triples, reduced_mod_p,
                              sparsest_basis, theory_from_triple)
from vlinkhom import tqft
from vlinkhom.cli import EXIT_COMPUTE, EXIT_MISMATCH, main
from vlinkhom.diagram import (VirtualLinkDiagram, all_smoothings, braid_closure,
                              coerce_state, cube_edges, parse_gauss, saddles,
                              smoothings_from_both_ends)
from vlinkhom.errors import (BadSyntax, DSquaredNonzero, InputError, LengthMismatch,
                             NotGraded, VlinkhomError)
from vlinkhom.fields import QQ, PrimeField, RationalField
from vlinkhom.homology import (betti_with_reversed_anchor, build_complex,
                               graded_euler_poly, graded_homology, homology,
                               homology_of, stream_homology)
from vlinkhom.jones import LaurentPoly, jones_at_one, kauffman_jones
from vlinkhom.tqft import ExactLinearMap, phi_matrix

Q = QQ.from_int
# the module; ``vlinkhom.homology`` as an attribute is the function homology()
H = importlib.import_module("vlinkhom.homology")
D = importlib.import_module("vlinkhom.diagram")
L = importlib.import_module("vlinkhom._linalg")
GOLDEN_DIR = Path(__file__).parent / "golden"


def q_theory(a=1, lam=0, mu=1):
    return theory_from_triple(Q(a), Q(lam), Q(mu))


RATIONAL_SAMPLES = [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, -1, 2), (-1, 3, 1)]


# -- basic complexes -------------------------------------------------------------

def test_unknot_complex():
    c = build_complex(parse_gauss(""), preset("manturov"))
    assert c.min_degree == c.max_degree == 0
    assert c.dims() == [2]
    res = homology(c)
    assert res.betti == {0: 2} and res.euler == 2


def test_trefoil_dims():
    # forced by the k(s) values: 1,3,3,1 states of dimensions 2^k
    c = build_complex(corpus.load("trefoil"), preset("manturov"))
    assert c.dims() == [4, 6, 12, 8]
    assert [len(c.groups[i].states) for i in c.degrees] == [1, 3, 3, 1]


def test_degree_range_uses_negative_crossings():
    c = build_complex(corpus.load("figure_eight"), preset("manturov"))
    assert (c.min_degree, c.max_degree) == (-2, 2)


def test_virtual_trefoil_single_cycle_blocks():
    d = corpus.load("virtual_trefoil")
    # row 7 has theta = x: the single-cycle differential block is nonzero
    c7 = build_complex(d, preset("f2_row7"))
    assert not c7.differentials[0].is_zero()
    # row 1 has theta = 0: the same block vanishes
    c1 = build_complex(d, preset("manturov"))
    assert c1.differentials[0].is_zero()


def test_d_squared_zero_everywhere():
    theories = all_presets() + [q_theory(*s) for s in RATIONAL_SAMPLES]
    for name in corpus.all_names():
        d = corpus.load(name)
        for th in theories:
            build_complex(d, th)  # raises DSquaredNonzero on failure


# -- homology values ---------------------------------------------------------------

# frozen from the dense rational oracle; rational theories are Lee-type
QQ_BETTI = {
    "unknot": {0: 2},
    "unlink2": {0: 4},
    "trefoil": {0: 2},
    "figure_eight": {0: 2},
    "cinquefoil": {0: 2},
    "virtual_trefoil": {2: 2},
    "kishino": {0: 2},
}


@pytest.mark.parametrize("name", sorted(QQ_BETTI))
def test_rational_homology_against_dense_oracle(name):
    d = corpus.load(name)
    c = build_complex(d, q_theory(1, 0, 1))
    res = homology(c)
    assert res.betti == dense_betti_qq(c)
    assert res.betti == QQ_BETTI[name]
    assert res.euler == jones_at_one(d)


# frozen manturov (F2 row 1) Betti numbers; trefoil and figure-eight agree
# with the classical Khovanov homology over F2
MANTUROV_BETTI = {
    "unknot": {0: 2},
    "unlink2": {0: 4},
    "trefoil": {0: 2, 2: 2, 3: 2},
    "figure_eight": {-2: 2, -1: 2, 0: 2, 1: 2, 2: 2},
    "cinquefoil": {0: 2, 2: 2, 3: 2, 4: 2, 5: 2},
    "virtual_trefoil": {0: 2, 1: 2, 2: 2},
    "kishino": {0: 2},
}


@pytest.mark.parametrize("name", sorted(MANTUROV_BETTI))
def test_manturov_betti(name):
    res = homology_of(corpus.load(name), preset("manturov"))
    assert res.betti == MANTUROV_BETTI[name]


def test_classical_oracle_agreement():
    for name in corpus.CLASSICAL_NAMES:
        d = corpus.load(name)
        mine = homology_of(d, preset("manturov")).betti
        oracle = classical_khovanov_f2_betti(d, all_smoothings(d))
        assert mine == oracle, name


def test_euler_identity_all_theories():
    theories = all_presets() + [q_theory(*s) for s in RATIONAL_SAMPLES]
    for name in corpus.all_names():
        d = corpus.load(name)
        j1 = jones_at_one(d)
        for th in theories:
            assert homology_of(d, th).euler == j1


def test_odd_prime_field():
    th = theory_from_triple(*(PrimeField(5).from_int(v) for v in (1, 0, 1)),
                            field=PrimeField(5))
    res = homology_of(corpus.load("trefoil"), th)
    assert res.euler == 2


@pytest.mark.parametrize("word, field", [
    ([1] * 7, QQ), ([1] * 7, PrimeField(1000003)),
    ([1, -2] * 5, QQ), ([1, -2] * 5, PrimeField(1000003)),
])
def test_larger_knots_have_two_lee_generators(word, field):
    # Lee's theorem: the (1,0,1) theory of a knot has rank 2, in degree 0;
    # T(2,7) and the 10-crossing closure of (s1 s2^-1)^5 need sparse ranks
    th = theory_from_triple(*(field.from_int(v) for v in (1, 0, 1)), field=field)
    assert homology_of(braid_closure(word), th).betti == {0: 2}


# -- grading -----------------------------------------------------------------------

def test_graded_unknot():
    res = graded_homology(build_complex(parse_gauss(""), preset("manturov")))
    assert res.qtable == {(0, 1): 1, (0, -1): 1}
    assert dict(graded_euler_poly(res).terms) == {1: 1, -1: 1}


# frozen from the graded run; trefoil matches the classical Khovanov
# F2 table for the right trefoil
TREFOIL_QTABLE = {(0, 1): 1, (0, 3): 1, (2, 5): 1, (2, 7): 1, (3, 7): 1, (3, 9): 1}


def test_graded_trefoil():
    res = graded_homology(build_complex(corpus.load("trefoil"), preset("manturov")))
    assert res.qtable == TREFOIL_QTABLE
    assert res.betti == MANTUROV_BETTI["trefoil"]


def test_graded_euler_equals_kauffman_jones():
    man = preset("manturov")
    for name in corpus.all_names():
        d = corpus.load(name)
        res = graded_homology(build_complex(d, man))
        assert graded_euler_poly(res) == kauffman_jones(d), name
        assert sum(res.qtable.values()) == sum(res.betti.values())


@pytest.mark.parametrize("d", [corpus.load(n) for n in corpus.all_names()]
                         + [braid_closure([1] * k, name=f"t2_{k}") for k in range(3, 8)],
                         ids=lambda d: d.name)
def test_graded_and_ungraded_homology_agree(d):
    # graded homology splits the ungraded groups into q-layers
    c = build_complex(d, preset("manturov"))
    graded, plain = graded_homology(c), homology(c)
    assert graded.betti == plain.betti
    for i in c.degrees:
        layers = [v for (j, _), v in graded.qtable.items() if j == i]
        assert sum(layers) == plain.betti.get(i, 0), i
    assert graded.euler == plain.euler


def test_graded_rejects_inhomogeneous_theories(monkeypatch):
    d = corpus.load("trefoil")
    for bad in ("f2_row2", "f2_row4", "f2_row7", "f2_row8"):
        with pytest.raises(NotGraded):
            graded_homology(build_complex(d, preset(bad)))
    with pytest.raises(NotGraded):
        graded_homology(build_complex(d, q_theory(1, 0, 1)))
    # streamed, graded Q takes the prime as ungraded Q does: mu != 0 mod p,
    # so the one pass mod p raises the same NotGraded once its guard passes
    th, passes = MUTATION_THEORIES["q 1/3,1/2,5"], record_passes(monkeypatch)
    for name in ("trefoil", "virtual_trefoil"):
        d = corpus.load(name)
        with pytest.raises(NotGraded) as built:
            graded_homology(build_complex(d, th))
        passes.clear()
        with pytest.raises(NotGraded) as streamed:
            stream_homology(d, th, graded=True)
        assert str(streamed.value) == str(built.value)
        (p, own_basis), = passes
        assert p % 4 == 1 and not own_basis, name


# one generator's q-degree shifted by 2: a row of d^0 on the trefoil, a column
# of d^-2 on the figure eight; the witness is the first entry, in row-major
# order, that joins generators of different q-degrees
PINNED_NOT_GRADED = [
    ("trefoil", 1, 5,
     "theory is not quantum-graded: differential entry ('000', '1x') -> "
     "('100', 'x') changes q-degree"),
    ("figure_eight", -2, 1,
     "theory is not quantum-graded: differential entry ('0000', '11x') -> "
     "('0001', '1x') changes q-degree"),
]


@pytest.mark.parametrize("name, degree, index, message", PINNED_NOT_GRADED)
def test_not_graded_entry_witness_is_pinned(monkeypatch, name, degree, index, message):
    qdegrees = H._qdegrees

    def shifted(c):
        out = qdegrees(c)
        out[degree][index] += 2
        return out

    d = corpus.load(name)
    c = build_complex(d, preset("manturov"))
    monkeypatch.setattr(H, "_qdegrees", shifted)
    with pytest.raises(NotGraded) as info:
        graded_homology(c)
    assert str(info.value) == message
    with pytest.raises(NotGraded) as streamed:
        stream_homology(d, preset("manturov"), graded=True)
    assert str(streamed.value) == message


def test_cli_reports_the_not_graded_witness(monkeypatch, capsys, tmp_path):
    name, degree, index, message = PINNED_NOT_GRADED[0]
    qdegrees = H._qdegrees

    def shifted(c):
        out = qdegrees(c)
        out[degree][index] += 2
        return out

    monkeypatch.setattr(H, "_qdegrees", shifted)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(corpus.load(name).to_json_obj()))
    assert main(["compute", "--theory", "manturov", "--graded",
                 "--diagram", str(path)]) == EXIT_COMPUTE
    assert json.loads(capsys.readouterr().out) == {"error": {
        "kind": "NotGraded", "message": message}}


def test_streamed_pass_reports_d_squared_before_not_graded(monkeypatch):
    # the q-degree shift makes degree 0 of the trefoil not graded; the guard,
    # made to fail on the last pair of degrees, still checks every pair first
    name, degree, index, _ = PINNED_NOT_GRADED[0]
    qdegrees, check, seen = H._qdegrees, H.first_nonzero, []

    def shifted(c):
        out = qdegrees(c)
        out[degree][index] += 2
        return out

    def failing_last(*maps):
        # the trefoil has three differentials, so two products to check
        seen.append(maps)
        return (0, 0, 1) if len(seen) == 2 else check(*maps)

    d, th = corpus.load(name), preset("manturov")
    assert d.n == 3 and sparsest_basis(th) is th  # so the pass runs once
    monkeypatch.setattr(H, "_qdegrees", shifted)
    monkeypatch.setattr(H, "first_nonzero", failing_last)
    with pytest.raises(DSquaredNonzero) as info:
        stream_homology(d, th, graded=True)
    assert info.value.degree == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)])
def test_the_stream_lifts_each_distinct_block_once(monkeypatch, field):
    # each block of a basis is lifted to ints on its first use and never
    # again, and no differential is lifted: the guard and elimination read
    # the ints the blocks scatter to.  The exact pass, called directly,
    # lifts the blocks of the sparsest basis; over Q the stream lifts those
    # of (1, x), which bound its guard, and of its reduction mod p
    lifted = []

    def lifting(rows, F):
        lifted.append(rows)
        return L._int_rows(rows, F)

    monkeypatch.setattr(H, "_int_rows", lifting)
    d = braid_closure([1, -2] * 3)
    one = field.one
    th = theory_from_triple(one, field.zero, one, field=field)
    cube = H._cube_of(d)
    used = {how[0] for edges in cube.by_degree.values() for _, _, how, _, _ in edges}
    assert len(used) > 1

    def assert_lifted_once(run, bases):
        H._blocks_of.cache_clear()
        lifted.clear()
        for _ in range(2):
            run()
        assert len(lifted) == len(used) * len(bases)
        assert sorted(map(id, lifted)) == sorted(id(H._blocks_of(basis)[key].rows)
                                                 for basis in bases for key in used)

    basis = sparsest_basis(th)
    assert_lifted_once(lambda: H._streamed(cube, cube.by_degree, th, basis), [basis])
    if field == QQ:
        reduced = reduced_mod_p(th, H._guard_bound(d.n, cube.by_degree, th))
        assert reduced.field == PrimeField(1000033)
        assert_lifted_once(lambda: stream_homology(d, th), [th, sparsest_basis(reduced)])
    else:
        assert_lifted_once(lambda: stream_homology(d, th), [basis])


@pytest.mark.parametrize("theory", ["q 1/3,1/2,5", "fp:1000003 1,0,1"])
def test_the_stream_does_no_field_arithmetic_once_its_blocks_are_lifted(
        monkeypatch, theory):
    th, d = MUTATION_THEORIES[theory], braid_closure([1, -2] * 3)
    cube, basis = H._cube_of(d), sparsest_basis(th)
    stream_homology(d, th)  # builds and lifts the blocks
    H._streamed(cube, cube.by_degree, th, basis)  # and those of the exact pass
    calls, kinds = [], set()
    # every field, the reduction's GF(p) too
    for cls in (RationalField, PrimeField):
        for name in ("add", "sub", "mul", "div", "neg", "inv", "from_int", "is_zero"):
            monkeypatch.setattr(cls, name, counted(calls, name, getattr(cls, name)))
    scatter = H._differentials

    def watching(*args):
        for i, rows, scale in scatter(*args):
            kinds.update(type(v) for row in rows.values() for v in row.values())
            yield i, rows, scale

    monkeypatch.setattr(H, "_differentials", watching)
    assert H._streamed(cube, cube.by_degree, th, basis).betti
    assert kinds == {int} and calls == []
    # the theory's own arithmetic, once per pass: over Q its reduction mod p
    # and that reduction's sparsest basis
    if th.field == QQ:
        reduced = reduced_mod_p(th, H._guard_bound(d.n, cube.by_degree, th))
        assert reduced.field == PrimeField(675000037)
        sparsest_basis(reduced)
    else:
        sparsest_basis(th)
    own = calls[:]
    calls.clear()
    kinds.clear()
    assert stream_homology(d, th)[1].betti
    assert kinds == {int} and calls == own


@pytest.mark.parametrize("theory, run", [("q 1/3,1/2,5", homology),
                                         ("fp:1000003 1,0,1", homology),
                                         ("manturov", graded_homology)])
def test_homology_of_a_built_complex_converts_nothing(monkeypatch, theory, run):
    # a built complex keeps the ints it scattered: its homology reads them as
    # they are, and the field view is made only when it is first read
    th, d = MUTATION_THEORIES[theory], braid_closure([1, -2] * 3)
    c, unknot = build_complex(d, th), build_complex(parse_gauss(""), th)
    calls = []
    for name in ("_int_rows", "_field_rows"):
        monkeypatch.setattr(H, name, counted(calls, name, getattr(H, name)))
    for name in ("add", "sub", "mul", "div", "neg", "inv", "from_int", "is_zero"):
        monkeypatch.setattr(th.field, name, counted(calls, name, getattr(th.field, name)))
    run(unknot)  # the theory's own arithmetic, once per call
    own = calls[:]
    calls.clear()
    assert run(c).betti
    assert calls == own and "_int_rows" not in own
    assert "differentials" not in vars(c)
    assert c.differentials and "_field_rows" in calls and "differentials" in vars(c)


# -- convention independence --------------------------------------------------------

def test_anchor_flip_identity_on_unknot():
    d = parse_gauss("")
    hom = betti_with_reversed_anchor(d, preset("manturov"), ("", 0))
    assert hom.betti == {0: 2}


def test_anchor_flips_preserve_betti():
    rng = random.Random(7)
    row7 = preset("f2_row7")
    thq = q_theory(1, 0, 1)
    for name in ("virtual_trefoil", "kishino", "trefoil"):
        d = corpus.load(name)
        sms = all_smoothings(d)
        base7 = homology_of(d, row7).betti
        baseq = homology_of(d, thq).betti
        for _ in range(12):
            state = rng.choice(sorted(sms))
            circle = rng.choice(sms[state].circles).key
            assert betti_with_reversed_anchor(d, row7, (state, circle)).betti == base7
            assert betti_with_reversed_anchor(d, thq, (state, circle)).betti == baseq


def test_anchor_flips_with_nontrivial_involution():
    # rows 2 and 5 have phi(x) = 1 + x, so flips genuinely conjugate maps
    for row in ("f2_row2", "f2_row5"):
        th = preset(row)
        for name in ("virtual_trefoil", "kishino"):
            d = corpus.load(name)
            base = homology_of(d, th).betti
            sms = all_smoothings(d)
            rng = random.Random(f"{row}:{name}")
            for _ in range(8):
                state = rng.choice(sorted(sms))
                circle = rng.choice(sms[state].circles).key
                assert betti_with_reversed_anchor(d, th, (state, circle)).betti \
                    == base


def _flip_conjugator(c, i, flips):
    """Block-diagonal map on C^i: phi on every flipped (state, circle)
    factor, identity on the others."""
    th = c.theory
    grp = c.groups[i]
    one, ident = ExactLinearMap.identity(th.field, 1), ExactLinearMap.identity(th.field, 2)
    entries = {}
    for s in grp.states:
        block = one
        for key in grp.smoothings[s].keys:
            block = block.kron(phi_matrix(th) if (s, key) in flips else ident)
        off = grp.offsets[s]
        for (r, col), v in block.entries:
            entries[(off + r, off + col)] = v
    return ExactLinearMap.make(th.field, grp.dim, grp.dim, entries)


def test_anchor_flips_conjugate_the_differentials():
    # rows 2 and 5 have phi(x) = 1 + x: flipping anchors must give exactly
    # d'_i = Phi_(i+1) o d_i o Phi_i, whether the flipped circle is consumed
    # by an edge's saddle or is a spectator of it
    covered, changed = set(), 0
    for row in ("f2_row2", "f2_row5"):
        th = preset(row)
        for name in ("virtual_trefoil", "kishino"):
            d = corpus.load(name)
            plain = build_complex(d, th)
            selectors = [(s, k) for s in sorted(plain.smoothings)
                         for k in plain.smoothings[s].keys]
            for flips in [[sel] for sel in selectors] + [selectors[::3]]:
                for e in plain.edges:
                    for s, k in flips:
                        if s == e.from_state:
                            covered.add("consumed" if k in e.bottom else "spectator")
                flipped = build_complex(d, th, anchor_flips=flips)
                for i in range(plain.min_degree, plain.max_degree):
                    expected = _flip_conjugator(plain, i + 1, set(flips)).compose(
                        plain.differentials[i]).compose(_flip_conjugator(plain, i, set(flips)))
                    assert flipped.differentials[i] == expected, (row, name, flips, i)
                changed += flipped.differentials != plain.differentials
    assert covered == {"consumed", "spectator"}
    assert changed


def test_anchor_flip_selectors_must_name_a_circle():
    d = braid_closure([1, 1, 1])
    th = preset("f2_row2")
    plain = build_complex(d, th).differentials
    assert build_complex(d, th, anchor_flips=[("010", 0)]).differentials != plain
    with pytest.raises(LengthMismatch):
        build_complex(d, th, anchor_flips=[("0101", 0)])
    for selector in (("2222", 0), ("010", 12345)):
        with pytest.raises(InputError):
            build_complex(d, th, anchor_flips=[selector])


def test_anchor_flip_selectors_are_checked_in_input_order():
    d = braid_closure([1, 1, 1])
    th = preset("f2_row2")
    for flips, error in (([("010", 12345), ("0101", 0)], InputError),
                         ([("0101", 0), ("010", 12345)], LengthMismatch)):
        for run in (lambda: build_complex(d, th, anchor_flips=flips),
                    lambda: stream_homology(d, th, anchor_flips=flips)):
            with pytest.raises(InputError) as info:
                run()
            assert type(info.value) is error, flips
    with pytest.raises(InputError) as info:
        homology_of(d, th, anchor_flips=[("010", 12345)])
    assert str(info.value) == "anchor flip: state 010 has no circle 12345"


def test_a_long_anchor_flip_is_cut_in_its_message():
    d, th = corpus.load("trefoil"), preset("f2_row2")
    for flips, error in (([("000", "k" * 5000)], InputError),
                         ([("x" * 5000, 0)], BadSyntax)):
        with pytest.raises(error) as info:
            build_complex(d, th, anchor_flips=flips)
        message = str(info.value)
        assert len(message) < 300 and message.endswith("..."), message


def test_states_are_0_1_strings_only():
    d = braid_closure([1, 1, 1])
    with pytest.raises(BadSyntax):
        coerce_state(d, (0, 1, 0))
    with pytest.raises(BadSyntax):
        build_complex(d, preset("f2_row2"), anchor_flips=[((0, 1, 0), 0)])


def test_each_distinct_block_is_built_once(monkeypatch):
    # blocks are kept per theory across builds: start from no kept table, so
    # that every block these builds use is built here, once in total
    H._blocks_of.cache_clear()
    calls = []
    real = tqft.elementary_map

    def counting(th, *saddle):
        calls.append(saddle)
        return real(th, *saddle)

    monkeypatch.setattr(tqft, "elementary_map", counting)
    c = build_complex(braid_closure([1] * 9), preset("f2_row2"), check=False)
    assert len(c.edges) == 2304
    assert 0 < len(calls) == len(set(calls)) <= 17
    d = corpus.load("kishino")
    sms = all_smoothings(d)
    for th in (preset("f2_row5"), q_theory(1, 0, 1)):
        calls.clear()
        build_complex(d, th)
        for s in sms:
            for key in sms[s].keys:
                build_complex(d, th, anchor_flips=[(s, key)])
        build_complex(d, th, anchor_flips=[(s, sms[s].circles[0].key) for s in sms])
        assert 0 < len(calls) == len(set(calls)) <= 17


def counted(calls, name, fn):
    """``fn``, appending ``name`` to ``calls`` on each call."""
    def wrapped(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapped


def recording(seen, fn):
    """``fn``, appending the result of each call to ``seen``."""
    def wrapped(*args):
        seen.append(fn(*args))
        return seen[-1]
    return wrapped


def test_flips_reuse_the_cube_of_the_diagram(monkeypatch):
    calls = []
    monkeypatch.setattr(H, "smoothings_from_both_ends",
                        counted(calls, "smooth", smoothings_from_both_ends))
    monkeypatch.setattr(H, "saddles", counted(calls, "edges", saddles))
    d = corpus.load("cinquefoil")
    th = preset("f2_row7")
    base = homology_of(d, th).betti
    sms = all_smoothings(d)
    rng = random.Random(7)
    for _ in range(100):
        state = rng.choice(sorted(sms))
        selector = (state, rng.choice(sms[state].circles).key)
        assert betti_with_reversed_anchor(d, th, selector).betti == base
    assert calls == ["smooth", "edges"]


def test_d_squared_guard_runs_on_every_flipped_build(monkeypatch):
    calls = []
    monkeypatch.setattr(H, "saddles",
                        counted(calls, "edges", mutated_saddles("twist", "first")))
    d = corpus.load("trefoil")
    th = MUTATION_THEORIES["f2_row2"]
    with pytest.raises(DSquaredNonzero):
        build_complex(d, th)
    sms = all_smoothings(d)
    selectors = [(s, k) for s in sorted(sms) for k in sms[s].keys]
    for selector in selectors:
        with pytest.raises(DSquaredNonzero):
            build_complex(d, th, anchor_flips=[selector])
    assert len(selectors) == 14 and calls == ["edges"]


def test_equal_diagrams_do_not_share_a_cube(monkeypatch):
    th = MUTATION_THEORIES["f2_row2"]
    first = corpus.load("trefoil")
    with monkeypatch.context() as mp:
        mp.setattr(H, "saddles", mutated_saddles("twist", "first"))
        build_complex(first, th, check=False)
    # the same object keeps its (broken) cube; an equal one is built afresh
    with pytest.raises(DSquaredNonzero):
        build_complex(first, th)
    second = corpus.load("trefoil")
    assert second == first
    build_complex(second, th)  # smoothed and classified afresh: d^2 = 0


def test_complexes_share_a_read_only_cube():
    d = corpus.load("trefoil")
    plain = build_complex(d, preset("f2_row2"))
    flipped = build_complex(d, preset("f2_row5"), anchor_flips=[("010", 0)])
    assert plain.smoothings == flipped.smoothings and plain.groups == flipped.groups
    assert plain.edges == flipped.edges
    with pytest.raises(TypeError):
        plain.smoothings["000"] = None
    with pytest.raises(TypeError):
        plain.groups[0] = None
    with pytest.raises(TypeError):
        plain.groups[0].offsets["100"] = 0
    assert plain.groups[0].smoothings is plain.smoothings
    with pytest.raises(TypeError):
        plain.groups[0].smoothings["100"] = None
    assert build_complex(d, preset("f2_row2")).differentials == plain.differentials


def test_a_built_complex_does_not_keep_its_cube_alive():
    # the complex keeps the cube's smoothings and groups, not the cube, so
    # the cube goes once the next diagram's build drops it
    d = corpus.load("trefoil")
    c = build_complex(d, preset("f2_row2"))
    cube = weakref.ref(H._cube_of(d))
    build_complex(corpus.load("figure_eight"), preset("f2_row2"))
    assert cube() is None
    assert c.dims() == [4, 6, 12, 8] and homology(c).betti


def random_virtual_code(rng, n, c=1):
    """A signed Gauss code of n crossings whose 2n passages, in random
    order, are cut into c nonempty components (c <= 2n)."""
    passages = [(i + 1, True, rng.choice((1, -1))) for i in range(n)]
    passages += [(label, False, s) for label, _, s in passages]
    rng.shuffle(passages)
    cuts = sorted(rng.sample(range(1, 2 * n), c - 1))
    return VirtualLinkDiagram([passages[a:b] for a, b in zip([0, *cuts], [*cuts, 2 * n])])


def test_fuzz_random_virtual_diagrams():
    # random signed Gauss codes are almost never planar; every complex
    # build asserts d^2 = 0 and the Euler characteristic must match the
    # state sum
    rng = random.Random(20240815)
    theories = [preset("manturov"), preset("f2_row2"), preset("f2_row7"),
                preset("f2_row8"), q_theory(1, 0, 1)]
    single_cycles = 0
    for _ in range(40):
        d = random_virtual_code(rng, rng.randint(1, 5))
        single_cycles += sum(1 for e in cube_edges(d)
                             if e.kind == "single_cycle")
        j1 = jones_at_one(d)
        for th in theories:
            assert homology_of(d, th).euler == j1
    assert single_cycles > 0


def test_relabeling_preserves_betti():
    d = corpus.load("figure_eight")
    perm = {1: 3, 2: 1, 3: 4, 4: 2}
    relabeled = d.relabeled(perm)
    for th in (preset("manturov"), preset("f2_row7"), q_theory(1, 1, 1)):
        assert homology_of(relabeled, th).betti == homology_of(d, th).betti


def test_component_reversal_preserves_betti():
    # reversing a knot changes nothing; reversing one component of a link
    # flips the sign of each crossing it shares with another, which moves
    # every degree by the change in n_minus: T(2,4) has 4 positive shared
    # crossings, so its degrees move by -4 and its Jones polynomial by q^-12
    t24 = braid_closure([1, 1, 1, 1])
    cases = [(corpus.load("trefoil"), 0), (corpus.load("virtual_trefoil"), 0), (t24, -4)]
    for d, shift in cases:
        rev = d.reversed_component(0)
        for th in (preset("manturov"), preset("f2_row5"), q_theory(1, 0, 1)):
            assert homology_of(rev, th).betti == {
                i + shift: b for i, b in homology_of(d, th).betti.items()}
    assert homology_of(t24, preset("manturov")).betti == {0: 2, 2: 2, 3: 2, 4: 2}
    assert kauffman_jones(t24.reversed_component(0)) == \
        LaurentPoly.make({-12: 1}) * kauffman_jones(t24)


def test_euler_from_smoothings_identity():
    # euler = sum_s (-1)^(r - n_minus) 2^k computed at chain level
    for name in corpus.all_names():
        d = corpus.load(name)
        c = build_complex(d, preset("manturov"))
        chain_euler = sum((dim if (i % 2 == 0) else -dim)
                          for i, dim in zip(c.degrees, c.dims()))
        assert chain_euler == jones_at_one(d)
        assert homology(c).euler == chain_euler


@pytest.mark.parametrize("theory", ["q 1,0,1", "fp:1000003 1,0,1", "f2_row7", "manturov"])
def test_homology_leaves_the_complex_unchanged(theory):
    # elimination consumes its rows: homology must work on copies, so a
    # second call sees the same differentials and gives the same result;
    # the entries are read only afterwards and compared with a fresh build
    th = MUTATION_THEORIES[theory]
    for name in corpus.all_names():
        d = corpus.load(name)
        c, fresh = build_complex(d, th), build_complex(d, th)
        runs = [homology, graded_homology] if theory == "manturov" else [homology]
        for run in runs:
            assert run(c) == run(c), (name, run.__name__)
        for i in range(c.min_degree, c.max_degree):
            m, ref = c.differentials[i], fresh.differentials[i]
            assert (m.nrows, m.ncols, m.entries) == (ref.nrows, ref.ncols, ref.entries), \
                (name, i)


@pytest.mark.parametrize("theory", ["q 1/3,1/2,5", "q 1/2,3,-2/3", "fp:1000003 1,0,1",
                                    "fp:1000033 1,0,1", "f2_row2"])
def test_field_view_matches_an_edge_by_edge_assembly(theory):
    # the field view divides the guarded ints back by their scales: each d^i
    # must equal the sum over its edges of the saddle's block applied to
    # decoded basis vectors, which reads no scatter, placement or lift
    F = PrimeField(1000033)
    th = {**MUTATION_THEORIES,
          "fp:1000033 1,0,1": theory_from_triple(F.one, F.zero, F.one, field=F)}[theory]
    for d in [corpus.load(n) for n in corpus.all_names()] + [braid_closure([1, -2] * 3)]:
        c = build_complex(d, th)
        for i in range(c.min_degree, c.max_degree):
            assert c.differentials[i].entry_map() == assembled_differential(c, i), (d.name, i)


# -- the cube's edge table ----------------------------------------------------------

def assert_edge_table_matches_oracle(d, rng):
    """Each degree's records in the cube of ``d``, in order, against the
    edges from that degree as ``diagram.cube_edges`` lists them: each
    record's source and target smoothings, and its row and column offsets,
    block key and placement without anchor flips and under three random
    sets of them, equal those ``oracles.edge_table`` reads off the edge's
    SaddleDescriptor; each flipped build passes the d o d guard under
    f2_row2 and f2_row5, whose phi is not the identity."""
    cube = H.Cube(d)
    sms = cube.smoothings
    edges = cube_edges(d, sms)
    assert sum(len(records) for records in cube.by_degree.values()) == len(edges)
    selectors = [(s, k) for s in sorted(sms) for k in sms[s].keys]
    flip_sets = [set()] + [set(rng.sample(selectors, rng.randint(1, len(selectors))))
                           for _ in range(3)]
    for flips in flip_sets:
        for i, records in cube.edges_with(flips).items():
            of_degree = [sd for sd in edges if sd.from_state.count("1") - d.n_minus == i]
            assert len(records) == len(of_degree), (i, flips)
            for (row0, col0, (key, placement, _), ss, st), sd in zip(records, of_degree):
                assert (ss, st) == (sms[sd.from_state], sms[sd.to_state]), sd
                row0_, col0_, key_, where = edge_table(sms, sd, flips)
                assert (row0, col0, key, placement) == \
                    (row0_, col0_, key_, tqft.placement(*where)), (sd, flips)
        if flips:
            for row in ("f2_row2", "f2_row5"):
                build_complex(d, preset(row), anchor_flips=flips)


def test_edge_table_matches_the_oracle_on_the_corpus():
    rng = random.Random(17)
    for name in corpus.all_names():
        assert_edge_table_matches_oracle(corpus.load(name), rng)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_edge_table_matches_the_oracle_on_braid_closures(word, rng):
    assert_edge_table_matches_oracle(braid_closure(word), rng)


def test_edge_table_matches_the_oracle_on_random_virtual_codes():
    rng = random.Random(20240816)
    for _ in range(20):
        assert_edge_table_matches_oracle(random_virtual_code(rng, rng.randint(1, 5)), rng)


def test_anchor_flips_share_every_untouched_list_and_record():
    # only the records with a flipped end are rewritten, every other record
    # is the cube's own, and the cube's own table is never changed
    rng = random.Random(229)
    for name in corpus.all_names():
        d = corpus.load(name)
        cube = H.Cube(d)
        sms, plain = cube.smoothings, {i: list(rs) for i, rs in cube.by_degree.items()}
        assert cube.edges_with(set()) is cube.by_degree
        selectors = [(s, k) for s in sorted(sms) for k in sms[s].keys]
        for size in (1, 1, 2, 3, len(selectors)):
            flips = set(rng.sample(selectors, min(size, len(selectors))))
            flipped = {s for s, _ in flips}
            by_degree = cube.edges_with(flips)
            assert by_degree.keys() == plain.keys()
            for i, records in by_degree.items():
                touched = [ss.state in flipped or st.state in flipped
                           for *_, ss, st in plain[i]]
                assert [new is old for new, old in zip(records, plain[i])] == \
                    [not t for t in touched], (name, flips, i)
            for i, records in cube.by_degree.items():
                assert all(r is p for r, p in zip(records, plain[i], strict=True)), (name, i)


def test_builds_make_no_saddle_descriptor(monkeypatch, capsys):
    def no_descriptor(*args):
        raise AssertionError("a build made a SaddleDescriptor")

    monkeypatch.setattr(D, "SaddleDescriptor", no_descriptor)
    th = preset("f2_row2")
    for name in corpus.all_names():
        d = corpus.load(name)
        base = homology_of(d, th).betti
        sms = all_smoothings(d)
        selectors = [(s, k) for s in sorted(sms) for k in sms[s].keys]
        for flips in [selectors[:1], selectors[-1:], selectors[::2]]:
            assert homology_of(d, th, anchor_flips=flips).betti == base
    for argv, golden in (
            (("compute", "--theory", "manturov", "--graded"), "compute_manturov_graded.json"),
            (("invariance", "--seed", "42", "--theory", "manturov"), "invariance_manturov.json")):
        assert main(list(argv)) == 0
        assert capsys.readouterr().out.encode("utf-8") == (GOLDEN_DIR / golden).read_bytes()


# -- the d^2 guard on mutated cubes ---------------------------------------------

F_P = PrimeField(1000003)
MUTATION_THEORIES = {
    **{name: preset(name) for name in PRESET_NAMES},
    "q 1,0,1": q_theory(1, 0, 1),
    "fp:1000003 1,0,1": theory_from_triple(F_P.one, F_P.zero, F_P.one, field=F_P),
    "q 1/2,3,-2/3": theory_from_triple(Fraction(1, 2), Q(3), Fraction(-2, 3)),
    "q 1/3,1/2,5": theory_from_triple(Fraction(1, 3), Fraction(1, 2), Q(5)),
}


def mutated_saddles(kind, which):
    """``diagram.saddles`` with one edge broken: the ``which`` ("first" or
    "last") orientable edge with twist_in[0] flipped (kind "twist"), or the
    first or last edge with its sign flipped (kind "sign")."""
    def saddles_of(d, smoothings):
        edges = list(saddles(d, smoothings))
        picks = [k for k, e in enumerate(edges)
                 if kind == "sign" or e[3] != "single_cycle"]
        if picks:
            k = picks[0 if which == "first" else -1]
            ss, st, j, kind_, bottom, top, twist_in, twist_out, sign = edges[k]
            if kind == "sign":
                sign += 1
            else:
                twist_in = (1 - twist_in[0],) + twist_in[1:]
            edges[k] = ss, st, j, kind_, bottom, top, twist_in, twist_out, sign
        return edges
    return saddles_of


# Twist flips break d^2 only under f2_row2 and f2_row5 (10 corpus diagrams
# each); a sign flip breaks it in every theory of odd characteristic on the
# 11 corpus diagrams with a crossing, and never mod 2.
@pytest.mark.parametrize("kind, which, fired", [
    ("twist", "first", 20), ("twist", "last", 20),
    ("sign", "first", 44), ("sign", "last", 44),
])
def test_d_squared_guard_agrees_with_dict_product_oracle(monkeypatch, kind, which, fired):
    monkeypatch.setattr(H, "saddles", mutated_saddles(kind, which))
    hits = 0
    for name in corpus.all_names():
        d = corpus.load(name)
        for th in MUTATION_THEORIES.values():
            c = build_complex(d, th, check=False)  # never raises
            expected = first_nonzero_d_squared(c)
            if expected is None:
                build_complex(d, th)
                homology_of(d, th)
                continue
            hits += 1
            with pytest.raises(DSquaredNonzero) as info:
                build_complex(d, th)
            degree, source, target, value = expected
            assert (info.value.degree, info.value.source, info.value.target,
                    info.value.value) == (degree, source, target, th.field.to_str(value))
            with pytest.raises(DSquaredNonzero) as streamed:
                homology_of(d, th)
            assert str(streamed.value) == str(info.value)
    assert hits == fired


# witness messages pinned from the guard that built the whole product d o d;
# the row-wise guard must repeat them byte for byte
PINNED_D_SQUARED = [
    ("trefoil", "f2_row2", "twist", "first",
     "d^2 != 0 at degree 0: ('000', 'x1') -> ('101', '11') has value 1"),
    ("cinquefoil", "f2_row5", "twist", "last",
     "d^2 != 0 at degree 3: ('01110', '111') -> ('11111', '1111x') has value 1"),
    ("virtual_trefoil", "q 1/3,1/2,5", "sign", "first",
     "d^2 != 0 at degree 0: ('00', '1') -> ('11', '11') has value -141/250"),
    ("trefoil", "q 1/3,1/2,5", "sign", "last",
     "d^2 != 0 at degree 1: ('010', '1') -> ('111', '111') has value 297/1250"),
    ("trefoil", "fp:1000003 1,0,1", "sign", "first",
     "d^2 != 0 at degree 0: ('000', '11') -> ('101', '11') has value 999999"),
]


@pytest.mark.parametrize("name, theory, kind, which, message", PINNED_D_SQUARED)
def test_d_squared_witness_messages_are_pinned(monkeypatch, name, theory, kind, which,
                                               message):
    monkeypatch.setattr(H, "saddles", mutated_saddles(kind, which))
    d, th = corpus.load(name), MUTATION_THEORIES[theory]
    with pytest.raises(DSquaredNonzero) as info:
        build_complex(d, th)
    assert str(info.value) == message
    # streamed, and graded too: none of these theories is graded, and the
    # guard's error comes before that one.  The fast pass fails its guard
    # (mod a prime = 1 mod 4 over Q, graded or not) and the exact pass names
    # the witness
    passes, p = record_passes(monkeypatch), th.field.characteristic
    for run in (lambda: homology_of(d, th),
                lambda: stream_homology(d, th, graded=True)):
        passes.clear()
        with pytest.raises(DSquaredNonzero) as streamed:
            run()
        assert str(streamed.value) == message
        (fast, own_basis), exact = passes
        assert exact == (p, True) and not own_basis
        assert fast % 4 == 1 if p == 0 else fast == p


def test_cli_reports_the_d_squared_witness(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(H, "saddles", mutated_saddles("twist", "first"))
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(corpus.load("trefoil").to_json_obj()))
    for graded in ([], ["--graded"]):
        assert main(["compute", "--theory", "f2_row2", "--diagram", str(path),
                     *graded]) == EXIT_MISMATCH
        assert json.loads(capsys.readouterr().out) == {"error": {
            "kind": "DSquaredNonzero", "message": PINNED_D_SQUARED[0][-1]}}


def test_chain_group_label_matches_a_linear_scan():
    c = build_complex(braid_closure([1, -2, 1, 1, -2, -2, 1], name="seven"),
                      preset("f2_row7"), check=False)
    assert c.diagram.n == 7
    for i in c.degrees:
        group = c.groups[i]
        assert [group.label(j) for j in range(group.dim)] == \
            [chain_label(group, j) for j in range(group.dim)]


# -- the streamed pass ------------------------------------------------------------

STREAM_THEORIES = [*PRESET_NAMES, "q 1,0,1", "fp:1000003 1,0,1"]


def outcome(run):
    """What ``run()`` returns, or the type and message of the error it raises."""
    try:
        return run()
    except VlinkhomError as exc:
        return type(exc), str(exc)


def assert_stream_matches_build(d, th):
    """The streamed pass gives the cube of ``build_complex`` and the same
    homology, graded and ungraded, or the same error."""
    c = build_complex(d, th)
    cube, _ = stream_homology(d, th)
    assert cube.dims() == c.dims() and cube.smoothings == c.smoothings
    for graded, run in ((False, homology), (True, graded_homology)):
        assert outcome(lambda: stream_homology(d, th, graded=graded)[1]) == outcome(
            lambda: run(c)), graded


@pytest.mark.parametrize("theory", STREAM_THEORIES)
def test_streamed_pass_matches_the_built_complex_on_the_corpus(theory):
    for name in corpus.all_names():
        assert_stream_matches_build(corpus.load(name), MUTATION_THEORIES[theory])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6),
       st.sampled_from(STREAM_THEORIES))
def test_streamed_pass_matches_the_built_complex_on_braid_closures(word, theory):
    assert_stream_matches_build(braid_closure(word), MUTATION_THEORIES[theory])


class WatchedRows(dict):
    """The rows of one differential, watched by a weak reference."""


@pytest.mark.parametrize("theory, graded", [
    ("manturov", True), ("f2_row2", False), ("q 1,0,1", False),
    ("fp:1000003 1,0,1", False),
])
def test_streamed_pass_holds_at_most_two_differentials(monkeypatch, theory, graded):
    # as each d^i is handed over, count the differentials still alive
    watched, alive = [], []
    scatter = H._differentials

    def watching(*args):
        for i, rows, scale in scatter(*args):
            rows = WatchedRows(rows)
            watched.append(weakref.ref(rows))
            alive.append(sum(ref() is not None for ref in watched))
            yield i, rows, scale

    monkeypatch.setattr(H, "_differentials", watching)
    d, th = braid_closure([1, -2] * 3), MUTATION_THEORIES[theory]
    _, streamed = stream_homology(d, th, graded=graded)
    assert len(watched) == d.n and max(alive) == 2
    assert all(ref() is None for ref in watched)
    # a consumer that keeps all d.n of them, and the watch sees it
    cube = H._cube_of(d)
    kept = list(H._differentials(cube.by_degree, sparsest_basis(th), cube.ints))
    assert sum(ref() is not None for ref in watched[d.n:]) == len(kept) == d.n
    assert streamed == (graded_homology if graded else homology)(build_complex(d, th))


def two_anchor_flips(d):
    """The first circle of the lowest state and the last of the highest."""
    sms = H._cube_of(d).smoothings
    first, last = min(sms), max(sms)
    return ((first, sms[first].keys[0]), (last, sms[last].keys[-1]))


@pytest.mark.parametrize("theory, graded, flips", [
    ("manturov", True, False), ("f2_row2", False, True),
    ("fp:1000003 1,0,1", False, False), ("q 1/3,1/2,5", False, False),
])
def test_every_index_is_one_int_of_the_cube(monkeypatch, theory, graded, flips):
    # each generator index is the object ints[k] of its cube's table, in the
    # rows the scatter yields, in those a built complex keeps and in every
    # pivot list, so no index is held as a second int object.  Python shares
    # the ints up to 256 anyway: (s1 s2^-1)^4 has a chain group of 290
    th, seen, top = MUTATION_THEORIES[theory], [], 0
    scatter, eliminate = H._differentials, H.pivot_rows

    def watching(*args):
        for i, rows, scale in scatter(*args):
            seen.append(rows)
            yield i, rows, scale

    def recording(rows, p, skip=()):
        pivots = eliminate(rows, p, skip)
        seen.append({r: () for r in pivots})
        return pivots

    monkeypatch.setattr(H, "_differentials", watching)
    monkeypatch.setattr(H, "pivot_rows", recording)
    diagrams = [corpus.load(name) for name in corpus.all_names()]
    diagrams += [braid_closure([1, -2] * 3), braid_closure([1, -2] * 4)]
    for d in diagrams:
        anchor_flips = two_anchor_flips(d) if flips else ()
        seen.clear()
        stream_homology(d, th, graded=graded, anchor_flips=anchor_flips)
        c = build_complex(d, th, anchor_flips)
        seen.extend(rows for _, rows, _ in c.rows)
        (graded_homology if graded else homology)(c)
        ints = H._cube_of(d).ints
        assert len(ints) == max(c.dims())
        for rows in seen:
            for r, cols in rows.items():
                assert r is ints[r], (d.name, r)
                assert all(col is ints[col] for col in cols), (d.name, r)
                top = max(top, r, *cols)
    assert top > 256


# -- the sparsest basis of V --------------------------------------------------------

def random_virtual_links(seed, count, max_n=8):
    """``count`` seeded random virtual links of 1-3 components and 1 to
    ``max_n`` crossings."""
    rng = random.Random(seed)
    links = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        links.append(random_virtual_code(rng, n, rng.randint(1, min(3, 2 * n))))
    return links


# the ungraded stream of the rows of each pair scatters the same blocks
ROW_PAIRS = [("f2_row1", "f2_row4"), ("f2_row7", "f2_row8"),
             ("f2_row2", "f2_row5"), ("f2_row3", "f2_row6")]


def test_row_pairs_have_equal_betti_in_the_standard_basis():
    # through build_complex and homology, which read no sparsest-basis table
    links = random_virtual_links(5, 12, max_n=6)
    assert {len(d.components) for d in links} == {1, 2, 3}
    for d in [corpus.load(name) for name in corpus.all_names()] + links:
        for row, twin in ROW_PAIRS:
            assert homology(build_complex(d, preset(row))).betti == \
                homology(build_complex(d, preset(twin))).betti, (d, row, twin)


def test_streamed_pass_matches_the_built_complex_on_random_virtual_links():
    links = random_virtual_links(18, 16)
    assert {len(d.components) for d in links} == {1, 2, 3}
    assert max(d.n for d in links) == 8
    for d in links:
        for name in PRESET_NAMES[:8]:
            assert_stream_matches_build(d, preset(name))


def test_streamed_pass_matches_the_built_complex_under_anchor_flips():
    # rows 2 and 5 take the idempotent basis, where phi swaps e_0 and e_1
    rng = random.Random(2)
    diagrams = [corpus.load(name) for name in ("kishino", "virtual_trefoil", "r3_a2")]
    diagrams += random_virtual_links(9, 4, max_n=6)
    for row in ("f2_row2", "f2_row5"):
        th = preset(row)
        for d in diagrams:
            sms = all_smoothings(d)
            selectors = [(s, key) for s in sorted(sms) for key in sms[s].keys]
            for size in (1, 2, 5):
                flips = rng.sample(selectors, min(size, len(selectors)))
                assert homology_of(d, th, anchor_flips=flips) == \
                    homology(build_complex(d, th, anchor_flips=flips)), (row, d, flips)


def sparse_guard_fires(monkeypatch, kind, which, theories):
    """How many (corpus diagram, theory) builds under ``mutated_saddles(kind,
    which)`` fail the d o d guard in ``sparsest_basis(th)``, asserting that
    they are exactly those whose (1, x) build has a nonzero d o d: the
    guard does not depend on the basis of V."""
    monkeypatch.setattr(H, "saddles", mutated_saddles(kind, which))
    fired = 0
    for name in corpus.all_names():
        d = corpus.load(name)
        for row, th in theories.items():
            expected = first_nonzero_d_squared(build_complex(d, th, check=False))
            cube = H._cube_of(d)
            try:
                for _ in H._guarded(cube.groups, th.field,
                                    H._differentials(cube.by_degree, sparsest_basis(th),
                                                     cube.ints)):
                    pass
            except DSquaredNonzero:
                fired += 1
                assert expected is not None, (name, row)
            else:
                assert expected is None, (name, row)
    return fired


@pytest.mark.parametrize("which", ["first", "last"])
def test_sparsest_basis_fails_the_guard_on_the_same_builds(monkeypatch, which):
    # a broken twist bit included
    theories = {row: preset(row) for row in PRESET_NAMES[:8]}
    assert sparse_guard_fires(monkeypatch, "twist", which, theories) == 20


# the sparsest basis is (1, x - h/2) over Q and GF(p), p = 3 mod 4, and
# Lee's idempotents over GF(p), p = 1 mod 4; ungraded Q streams mod a prime
ODD_FIELDS = [QQ] + [PrimeField(p) for p in (3, 5, 7, 13, 1000003, 1000033)]


def odd_field_theories(count, seed):
    """The triples 1,0,1 and 1,1,1 (h = 0) and ``count`` seeded random triples
    over each field of ODD_FIELDS, but those whose a or mu is 0 there, by name."""
    out = {}
    for F in ODD_FIELDS:
        for triple in [(1, 0, 1), (1, 1, 1)] + random_rational_triples(count, seed):
            a, lam, mu = (F.from_int(int(v)) for v in triple)
            if not (F.is_zero(a) or F.is_zero(mu)):
                name = f"{F!r} {','.join(map(F.to_str, (a, lam, mu)))}"
                out[name] = theory_from_triple(a, lam, mu, field=F)
    return out


@pytest.mark.parametrize("which", ["first", "last"])
def test_sparsest_basis_fails_the_sign_guard_on_the_same_builds(monkeypatch, which):
    # a flipped sign breaks d o d outside characteristic 2 on the 11 corpus
    # diagrams with a crossing
    theories = {**odd_field_theories(0, 0), "q 1/2,3,-2/3": MUTATION_THEORIES["q 1/2,3,-2/3"],
                "q 1/3,1/2,5": MUTATION_THEORIES["q 1/3,1/2,5"]}
    assert len(theories) == 16
    assert sparse_guard_fires(monkeypatch, "sign", which, theories) == 176


def test_streamed_betti_match_the_standard_basis_over_odd_fields():
    theories = odd_field_theories(3, 21)
    assert len(theories) == 33
    links = random_virtual_links(21, 10, max_n=6)
    braids = [braid_closure(w) for w in ([1, -2] * 3, [1] * 5, [1, 2, -1, 2], [-1, -1, 2])]
    for d in [corpus.load(name) for name in corpus.all_names()] + links + braids:
        for name, th in theories.items():
            assert homology_of(d, th).betti == homology(build_complex(d, th)).betti, (d, name)


def test_streamed_pass_matches_the_built_complex_under_random_rational_triples():
    # the sparsest bases of these triples have blocks with denominators, so
    # each d^i is scattered as ints at a scale S_i, the lcm of its blocks'
    theories = [theory_from_triple(*t) for t in random_rational_triples(10, 25)]
    diagrams = [corpus.load(name) for name in corpus.all_names()]
    diagrams += [braid_closure(w) for w in ([1, -2] * 3, [1] * 5, [1, 2, -1, 2])]
    scales = set()
    for th in theories:
        for d in diagrams:
            assert_stream_matches_build(d, th)
            cube = H._cube_of(d)
            scales.update(s for _, _, s in H._differentials(cube.by_degree, sparsest_basis(th),
                                                            cube.ints))
    assert max(scales) >= 625


# -- Q through one prime -------------------------------------------------------------

def record_passes(monkeypatch):
    """The list that gets (characteristic of th, basis is th) for each
    ``_streamed`` pass from here on."""
    passes, streamed = [], H._streamed

    def watching(cube, by_degree, th, basis, graded=False):
        passes.append((th.field.characteristic, basis is th))
        return streamed(cube, by_degree, th, basis, graded)

    monkeypatch.setattr(H, "_streamed", watching)
    return passes


def test_the_q_stream_takes_a_reduction_mod_p_and_matches_exact_q(monkeypatch):
    # every ungraded Q stream is one pass mod p, certified: none goes on to
    # the exact pass
    theories = [theory_from_triple(*t) for t in random_rational_triples(6, 27)]
    theories += [MUTATION_THEORIES["q 1/3,1/2,5"], MUTATION_THEORIES["q 1/2,3,-2/3"]]
    links = random_virtual_links(27, 8, max_n=6)
    assert {len(d.components) for d in links} == {1, 2, 3}
    diagrams = [corpus.load(name) for name in corpus.all_names()] + links
    reduced = []
    monkeypatch.setattr(H, "reduced_mod_p", recording(reduced, H.reduced_mod_p))
    passes = record_passes(monkeypatch)
    rng, cases = random.Random(27), 0
    for th in theories:
        for d in diagrams:
            sms = all_smoothings(d)
            selectors = [(s, key) for s in sorted(sms) for key in sms[s].keys]
            for flips in ((), rng.sample(selectors, min(2, len(selectors)))):
                passes.clear()
                assert homology_of(d, th, anchor_flips=flips) == \
                    homology(build_complex(d, th, anchor_flips=flips)), (d, th, flips)
                (p, own_basis), = passes
                assert p == reduced[-1].field.characteristic and p % 4 == 1, (d, th, flips)
                assert not own_basis, (d, th, flips)
                cases += 1
    assert len(reduced) == cases
    assert min(over.field.characteristic for over in reduced) == 1000033


def test_a_p_torsion_complex_fails_the_certificate_and_comes_back_exact(monkeypatch):
    # one differential, the 1x1 matrix [p] at the prime the stream takes:
    # 0 mod p, so Betti_p is 1 in the adjacent degrees 0 and 1, and over Q
    # it has rank 1 and no homology; [3] is certified mod p at once.  The
    # pass after a failed certificate is the exact one, th in (1, x)
    th = q_theory()
    prime = reduced_mod_p(th, 0).field.characteristic
    group = types.SimpleNamespace(dim=1)
    cube = types.SimpleNamespace(groups={0: group, 1: group}, edges_with=lambda flips: {0: []},
                                 ints=[0])

    def one_entry(value):
        def differentials(by_degree, basis, ints):
            p = basis.field.characteristic
            v = value % p if p else value
            yield 0, {0: {0: v}} if v else {}, 1
        return differentials

    monkeypatch.setattr(H, "_cube_of", lambda d: cube)
    passes = record_passes(monkeypatch)
    for value, expected in ((prime, [(prime, False), (0, True)]), (3, [(prime, False)])):
        passes.clear()
        monkeypatch.setattr(H, "_differentials", one_entry(value))
        got, result = stream_homology(types.SimpleNamespace(n=1), th)
        assert got is cube and passes == expected, value
        assert (result.betti, result.euler) == ({}, 0), value


def product_peak(c):
    """The largest entry of |S_(i+1) d^(i+1)| |S_i d^i| over the int rows of
    the built complex ``c``, entrywise absolute values: a bound on every
    entry of the products the d o d guard checks."""
    peak, rows = 0, [rows for _, rows, _ in c.rows]
    for right, left in zip(rows, rows[1:]):
        for row in left.values():
            acc = {}
            for mid, w in row.items():
                for col, v in right.get(mid, {}).items():
                    acc[col] = acc.get(col, 0) + abs(w * v)
            peak = max(peak, *acc.values())
    return peak


def test_the_prime_passes_twice_the_guard_bound_on_every_build(monkeypatch):
    # under 1/3,1/2,5 the products pass 10^6, so a prime read off the 10^6
    # floor alone could hide a nonzero entry of d o d
    th, seen = MUTATION_THEORIES["q 1/3,1/2,5"], []
    monkeypatch.setattr(H, "reduced_mod_p",
                        lambda th, bound: seen.append(bound) or reduced_mod_p(th, bound))
    diagrams = [corpus.load(name) for name in corpus.all_names()]
    diagrams += [braid_closure(w) for w in ([1, -2] * 3, [1, -2] * 4, [1] * 5, [1, 2, -1, 2])]
    peaks = []
    for d in diagrams:
        seen.clear()
        homology_of(d, th)
        (bound,) = seen
        peaks.append(product_peak(build_complex(d, th)))
        p = reduced_mod_p(th, bound).field.characteristic
        assert peaks[-1] <= bound < p / 2 and 2 * peaks[-1] < p, d
    assert max(peaks) > 10 ** 6


@pytest.mark.parametrize("which", ["first", "last"])
def test_the_reduced_guard_fails_where_the_q_guard_fails(monkeypatch, which):
    # a flipped sign breaks d o d on the 11 corpus diagrams with a crossing:
    # the pass mod p fails its guard on those, and the rerun over Q in (1, x)
    # raises the witness of the built complex
    monkeypatch.setattr(H, "saddles", mutated_saddles("sign", which))
    passes, streamed = [], H._streamed

    def watching(cube, by_degree, th, basis, graded=False):
        passes.append((th.field.characteristic, basis is th))
        return streamed(cube, by_degree, th, basis, graded)

    monkeypatch.setattr(H, "_streamed", watching)
    fired = 0
    for name in corpus.all_names():
        d = corpus.load(name)
        for theory in ("q 1,0,1", "q 1/2,3,-2/3", "q 1/3,1/2,5"):
            th = MUTATION_THEORIES[theory]
            passes.clear()
            built = outcome(lambda: homology(build_complex(d, th)))
            assert outcome(lambda: homology_of(d, th)) == built, (name, theory)
            p = passes[0][0]
            assert p % 4 == 1 and not passes[0][1], (name, theory)
            if isinstance(built, tuple):
                fired += 1
                assert passes == [(p, False), (0, True)], (name, theory)
            else:
                assert passes == [(p, False)], (name, theory)
    assert fired == 33


def assert_orientation_count(d):
    for row in ("f2_row2", "f2_row5"):
        assert homology_of(d, preset(row)).betti == orientation_betti(d), (row, d)


def test_orientation_count_on_the_corpus_and_random_virtual_links():
    links = random_virtual_links(6, 40)
    assert {len(d.components) for d in links} == {1, 2, 3}
    for d in [corpus.load(name) for name in corpus.all_names()] + links:
        assert_orientation_count(d)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=8))
def test_orientation_count_on_braid_closures(word):
    assert_orientation_count(braid_closure(word))


# theta != 0: rows 3 and 6, and the triple 1,0,1 over Q and four prime fields,
# two of which (p = 1 mod 4) stream in Lee's idempotents
PARITY_THEORIES = {
    "f2_row3": preset("f2_row3"), "f2_row6": preset("f2_row6"), "q 1,0,1": q_theory(),
    **{f"fp:{p} 1,0,1": theory_from_triple(F.one, F.zero, F.one, field=F)
       for p, F in ((7, PrimeField(7)), (1000003, F_P), (13, PrimeField(13)),
                    (1000033, PrimeField(1000033)))},
}


def assert_parity_count(d):
    """Each theory of PARITY_THEORIES gives the knot ``d`` the Betti numbers
    of ``oracles.parity_betti``; the witness of a mismatch is the first
    degree whose Betti number differs."""
    expected = parity_betti(d)
    for name, th in PARITY_THEORIES.items():
        betti = homology_of(d, th).betti
        if betti != expected:
            i = min(i for i in betti.keys() | expected.keys()
                    if betti.get(i, 0) != expected.get(i, 0))
            pytest.fail(f"{name} on {d.serialize()}: degree {i} has Betti number "
                        f"{betti.get(i, 0)}, the parity count {expected.get(i, 0)}")


def test_parity_count_on_the_corpus_knots_and_random_virtual_knots():
    rng = random.Random(2010)
    knots = [d for d in map(corpus.load, corpus.all_names()) if len(d.components) == 1]
    knots += [random_virtual_code(rng, rng.randint(1, 8)) for _ in range(60)]
    assert any(0 not in parity_betti(d) for d in knots)  # odd crossings shift some
    for d in knots:
        assert_parity_count(d)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=8))
def test_parity_count_on_braid_closures(word):
    d = braid_closure(word)
    assume(len(d.components) == 1)
    assert_parity_count(d)


def test_vanishing_rule_on_the_corpus_and_random_virtual_links():
    rng = random.Random(4)
    # three components that meet pairwise once, so each meets the other two
    # twice: 2^3 generators survive where a test of the pairs says 0
    links = [parse_gauss("O1+,U3-;U1+,O2+;U2+,O3-"), *map(corpus.load, corpus.all_names())]
    for _ in range(80):
        links.append(random_virtual_code(rng, rng.randint(2, 7), rng.randint(2, 4)))
    expected = [theta_total_betti(d) for d in links]
    assert expected[0] == 8 and 0 in expected  # some links vanish, some do not
    for name, th in PARITY_THEORIES.items():
        totals = [sum(homology_of(d, th).betti.values()) for d in links]
        assert totals == expected, name


# -- the size guard --------------------------------------------------------------

def test_size_guard_refuses_22_crossings_before_smoothing(monkeypatch):
    def no_smoothing(d):
        raise AssertionError("smoothed a diagram above the cap")

    monkeypatch.setattr(H, "smoothings_from_both_ends", no_smoothing)
    d = braid_closure([1, -2] * 11)
    assert d.n == 22
    start = time.perf_counter()
    with pytest.raises(InputError) as info:
        homology_of(d, preset("manturov"))
    assert time.perf_counter() - start < 5
    assert str(info.value) == (
        "22 crossings: the chain complex has at least 2^23 = 8,388,608 "
        "generators, above the cap MAX_CHAIN_DIM = 1,048,576")


def test_size_guard_sums_the_states_before_building_edges(monkeypatch):
    trefoil = corpus.load("trefoil")  # 2^4 <= dim = 4 + 6 + 12 + 8 = 30
    monkeypatch.setattr(H, "MAX_CHAIN_DIM", 30)
    assert build_complex(trefoil, preset("manturov")).dims() == [4, 6, 12, 8]

    def no_edges(d, smoothings):
        raise AssertionError("built edges of a complex above the cap")

    monkeypatch.setattr(H, "MAX_CHAIN_DIM", 29)
    monkeypatch.setattr(H, "saddles", no_edges)
    with pytest.raises(InputError) as info:
        build_complex(trefoil, preset("manturov"))
    assert str(info.value) == ("3 crossings: the chain complex has 30 generators, "
                               "above the cap MAX_CHAIN_DIM = 29")


def test_size_guard_refuses_while_smoothing(monkeypatch):
    # T(2,16) passes the bound 2^17, but its 2^16 states have over 2^20
    # generators; smoothed from both ends of the cube, it and its mirror
    # image are refused within a few hundred states
    calls = []
    monkeypatch.setattr(D, "_smooth", counted(calls, "smooth", D._smooth))
    for word, dim in (([1] * 16, "1,049,870"), ([-1] * 16, "1,049,854")):
        calls.clear()
        with pytest.raises(InputError) as info:
            homology_of(braid_closure(word), preset("manturov"))
        assert len(calls) < 4096
        assert str(info.value) == (f"16 crossings: the chain complex has at least {dim} "
                                   "generators, above the cap MAX_CHAIN_DIM = 1,048,576")


@pytest.mark.parametrize("word", [[1] * 19, [-1] * 19, [1] * 16],
                         ids=["T(2,19)", "mirror T(2,19)", "T(2,16)"])
def test_size_guard_refuses_without_listing_the_states(word):
    # each passes the bound 2^(n+1) <= 2^20 and is refused while smoothing;
    # the states are made one at a time, so refusing allocates little (a
    # list of the 2^19 state strings alone held 38 MB)
    d = braid_closure(word)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="above the cap"):
            homology_of(d, preset("manturov"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_size_guard_names_a_huge_count_by_a_power_of_two():
    # 2^15001 has more digits than str() converts by default
    with pytest.raises(InputError) as info:
        homology_of(braid_closure([1] * 15000), preset("manturov"))
    assert str(info.value) == ("15000 crossings: the chain complex has at least 2^15001 "
                               "generators, above the cap MAX_CHAIN_DIM = 1,048,576")


def test_refused_builds_cache_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(H, "smoothings_from_both_ends",
                        counted(calls, "smooth", smoothings_from_both_ends))
    monkeypatch.setattr(H, "saddles", counted(calls, "edges", saddles))
    trefoil = corpus.load("trefoil")  # 30 generators
    monkeypatch.setattr(H, "MAX_CHAIN_DIM", 29)
    with pytest.raises(InputError):
        build_complex(trefoil, preset("manturov"))
    assert calls == ["smooth"]
    monkeypatch.setattr(H, "MAX_CHAIN_DIM", 30)
    build_complex(trefoil, preset("manturov"))
    build_complex(trefoil, preset("manturov"))
    assert calls == ["smooth", "smooth", "edges"]
    # the reused cube is checked against the cap too, before its edges are read
    monkeypatch.setattr(H, "MAX_CHAIN_DIM", 29)
    with pytest.raises(InputError):
        build_complex(trefoil, preset("manturov"))
    with pytest.raises(InputError):
        build_complex(braid_closure([1, -2] * 11), preset("manturov"))
    assert calls == ["smooth", "smooth", "edges"]


# -- degree-by-degree cancellation ---------------------------------------------

def oracle_rank(field, rows, drop=()):
    """Dense oracle rank of ``{row: {col: value}}`` without the columns ``drop``."""
    cols = sorted({c for row in rows.values() for c in row}.difference(drop))
    dense = [[row.get(c, 0) for c in cols] for row in rows.values()]
    p = field.characteristic
    if p == 0:
        return rank_qq_dense(dense)
    return rank_f2_dense(dense) if p == 2 else rank_fp_dense(dense, p)


# graded homology under manturov, so its pivot rows are recorded per q-layer
CANCELLATION_THEORIES = ["q 1,0,1", "fp:1000003 1,0,1", "f2_row7", "manturov"]


def recorded_pivots(run):
    """Call ``run()`` and return the arguments and result of each call it
    makes of ``_layer_pivots``, one per degree: (layers, below, pivots)."""
    calls, real = [], H._layer_pivots

    def recording(field, layers, below):
        pivots = real(field, layers, below)
        calls.append((layers, below, pivots))
        return pivots

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(H, "_layer_pivots", recording)
        run()
    return calls


def pivot_counts(calls):
    """The rank of each degree, from the calls ``recorded_pivots`` returns."""
    return [sum(map(len, pivots.values())) for _, _, pivots in calls]


def assert_cancellation_lemma(d, theory):
    """Take the homology of ``d`` and check the pivot rows recorded per layer
    (i, q), one degree at a time: each degree is eliminated without the
    pivot rows of the one below, they number rank(d^i), they are
    independent rows of d^i, and d^(i+1) at the same q without them as
    columns keeps its rank, all by dense oracles.  The exact pass in
    ``sparsest_basis(th)``, called directly, records the layers and pivot
    rows of the complex built in that basis, and the stream those of the
    complex of the theory it eliminates over: ``th``, or over Q its
    reduction mod p, in that theory's sparsest basis.  The ranks per degree
    are those of the complex of ``th`` in (1, x)."""
    th = MUTATION_THEORIES[theory]
    graded = theory == "manturov"
    run = graded_homology if graded else homology
    ranks = pivot_counts(recorded_pivots(lambda: run(build_complex(d, th))))
    cube, reduced = H._cube_of(d), []
    exact = recorded_pivots(
        lambda: H._streamed(cube, cube.by_degree, th, sparsest_basis(th), graded))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(H, "reduced_mod_p", recording(reduced, H.reduced_mod_p))
        streamed = recorded_pivots(lambda: stream_homology(d, th, graded=graded))
    assert len(reduced) == (th.field == QQ)
    passes = [(th, exact), *[(over, streamed) for over in reduced]]
    if th.field != QQ:
        assert streamed == exact
    for over, calls in passes:
        assert over is not None
        c = build_complex(d, sparsest_basis(over))
        assert recorded_pivots(lambda: run(c)) == calls
        assert len(calls) == c.max_degree - c.min_degree
        assert pivot_counts(calls) == ranks
        assert_pivots_keep_their_ranks(over.field, calls, c.min_degree)


def assert_pivots_keep_their_ranks(field, calls, min_degree):
    """The dense-oracle checks of ``assert_cancellation_lemma`` on the
    ``_layer_pivots`` calls of one pass over ``field``."""
    rows, pivots, previous = {}, {}, {}
    for i, (layers, below, found) in enumerate(calls, start=min_degree):
        assert below is previous or below == previous == {}, i
        rows[i] = layers
        pivots.update(((i, q), p) for q, p in found.items())
        previous = found
    assert set(pivots) == {(i, q) for i, by_q in rows.items() for q in by_q}
    rank = {(i, q): oracle_rank(field, rows[i][q]) for i, q in pivots}
    for (i, q), found in pivots.items():
        layer = rows[i][q]
        assert len(set(found)) == len(found) == rank[i, q], (i, q)
        assert oracle_rank(field, {r: layer[r] for r in found}) == rank[i, q], (i, q)
        if (i + 1, q) in rank:
            assert oracle_rank(field, rows[i + 1][q], found) == rank[i + 1, q], (i, q)


@pytest.mark.parametrize("theory", CANCELLATION_THEORIES)
def test_cancellation_lemma_on_the_corpus(theory):
    for name in corpus.all_names():
        assert_cancellation_lemma(corpus.load(name), theory)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6),
       st.sampled_from(CANCELLATION_THEORIES))
def test_cancellation_lemma_on_braid_closures(word, theory):
    assert_cancellation_lemma(braid_closure(word), theory)
