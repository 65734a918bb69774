"""Acceptance suite: one test per criterion, with a printed PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance here is exact equality and the stated runtime
budgets are asserted.
"""

import contextlib
import random
import time

from oracles import classical_khovanov_f2_betti, dense_betti_qq, random_rational_triples
from vlinkhom import corpus
from vlinkhom._linalg import ExactLinearMap, compose
from vlinkhom.algebra import (all_presets, constraint_residuals,
                              coproduct_matrix, counit_matrix, phi_matrix,
                              preset, product_matrix, theory_from_params, theory_from_triple,
                              theta_matrix, unit_matrix, verify_4tu,
                              verify_axioms)
from vlinkhom.diagram import all_smoothings, random_moves
from vlinkhom.errors import ConstraintViolated
from vlinkhom.fields import GF2, QQ
from vlinkhom.homology import (betti_with_reversed_anchor, build_complex,
                               graded_euler_poly, graded_homology, homology,
                               homology_of)
from vlinkhom.jones import jones_at_one, kauffman_jones
from vlinkhom.tqft import evaluate_closed_surface

Q = QQ.from_int

RATIONAL_SAMPLES = [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, -1, 2), (-1, 3, 1)]


def rational_theories():
    return [theory_from_triple(Q(a), Q(l), Q(m)) for a, l, m in RATIONAL_SAMPLES]


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_criterion_01_axiom_suite():
    with criterion(1, "axiom suite (8 presets + 200 rational triples)"):
        start = time.monotonic()
        for th in all_presets():
            report = verify_axioms(th)
            assert report.passed, report.checks
            ok, witness = verify_4tu(th)
            assert ok, witness
        for a, lam, mu in random_rational_triples(200, seed=20240601):
            th = theory_from_triple(a, lam, mu)
            assert verify_axioms(th).passed
            assert verify_4tu(th)[0]
        assert time.monotonic() - start < 1.0


def test_criterion_02_classification_negatives():
    with criterion(2, "single-parameter perturbations rejected by name"):
        one = GF2.one
        saw_eq1 = saw_eq2 = 0
        for th in all_presets():
            base = {"t": th.t, "lam": th.lam, "mu": th.mu, "beta": th.beta}
            for param in base:
                vals = dict(base)
                vals[param] = GF2.add(vals[param], one)  # flip one bit
                res = constraint_residuals(GF2, th.a, vals["t"], vals["lam"],
                                           vals["mu"], vals["beta"])
                eq1_broken = any(not GF2.is_zero(r) for r in res["eq1"])
                eq2_broken = not GF2.is_zero(res["eq2"])
                broken = {"eq1"} if eq1_broken else set()
                broken |= {"eq2"} if eq2_broken else set()
                if not broken:
                    theory_from_params(th.a, vals["t"], vals["lam"],
                                       vals["mu"], vals["beta"], field=GF2)
                    continue
                try:
                    theory_from_params(th.a, vals["t"], vals["lam"],
                                       vals["mu"], vals["beta"], field=GF2)
                    raise AssertionError(
                        f"{th.name}: flipping {param} should be rejected")
                except ConstraintViolated as exc:
                    assert exc.equation in broken, (th.name, param, broken)
                    saw_eq1 += exc.equation == "eq1"
                    saw_eq2 += exc.equation == "eq2"
        assert saw_eq1 > 0 and saw_eq2 > 0


def test_criterion_03_identity_suite():
    with criterion(3, "phi/theta identities, eps(H)=2, discriminant"):
        theories = all_presets() + rational_theories() + [
            theory_from_triple(a, l, m)
            for a, l, m in random_rational_triples(25, seed=3)]
        for th in theories:
            F = th.field
            ident = ExactLinearMap.identity(F, 2)
            m, delta, phi = product_matrix(th), coproduct_matrix(th), phi_matrix(th)
            tmat, unit = theta_matrix(th), unit_matrix(th)
            th_el = compose(tmat, unit)
            theta_sq = compose(tmat, th_el)
            # phi o phi = Id and phi o theta = theta, on both basis vectors
            assert compose(phi, phi) == ident
            assert compose(phi, tmat) == tmat
            assert compose(m, phi.kron(ident), delta, unit) == theta_sq
            assert compose(m, delta, th_el) == compose(tmat, theta_sq)
            assert compose(counit_matrix(th), m, delta, unit).entry(0, 0) == F.from_int(2)
            if F.characteristic != 2:
                disc = F.add(F.mul(th.h, th.h),
                             F.mul(F.from_int(4), th.t))
                mu4 = F.mul(F.mul(th.mu, th.mu), F.mul(th.mu, th.mu))
                expected = F.neg(F.div(F.mul(F.from_int(4), F.mul(th.f, th.f)), mu4))
                assert disc == expected
                assert not F.is_zero(disc)
                if th.a in (Q(1), Q(-1)):
                    assert disc == F.neg(F.div(F.from_int(4), mu4))


def test_criterion_04_surface_evaluation():
    with criterion(4, "sphere 0, torus 2, crosscap normalization"):
        theories = all_presets() + rational_theories()
        for th in theories:
            F = th.field
            assert evaluate_closed_surface(th, 0, 0) == F.zero
            assert evaluate_closed_surface(th, 1, 0) == F.from_int(2)
            for k in range(2, 7):
                for g in range(0, 4):
                    assert evaluate_closed_surface(th, g, k) == \
                        evaluate_closed_surface(th, g + 1, k - 2)


def test_criterion_05_d_squared_zero():
    with criterion(5, "d^2 = 0 for corpus x presets x rational triples"):
        start = time.monotonic()
        theories = all_presets() + rational_theories()
        for name in corpus.all_names():
            d = corpus.load(name)
            assert d.n <= 6
            for th in theories:
                build_complex(d, th)  # raises DSquaredNonzero on failure
        assert time.monotonic() - start < 30.0


def test_criterion_06_euler_identity():
    with criterion(6, "euler(homology) = Jones at q = 1"):
        theories = all_presets() + rational_theories()
        for name in corpus.all_names():
            d = corpus.load(name)
            j1 = jones_at_one(d)
            assert kauffman_jones(d).at_one() == j1
            for th in theories:
                res = homology_of(d, th)
                assert res.euler == j1, (name, th.name)


def test_criterion_07_graded_euler_identity():
    with criterion(7, "graded Euler characteristic = Kauffman-Jones"):
        man = preset("manturov")
        for name in corpus.all_names():
            d = corpus.load(name)
            res = graded_homology(build_complex(d, man))
            assert graded_euler_poly(res) == kauffman_jones(d), name


def test_criterion_08_classical_sanity():
    with criterion(8, "classical diagrams match the dense Khovanov oracle"):
        man = preset("manturov")
        for name in corpus.CLASSICAL_NAMES:
            d = corpus.load(name)
            assert homology_of(d, man).betti == \
                classical_khovanov_f2_betti(d, all_smoothings(d)), name


def test_criterion_09_invariance_harness():
    with criterion(9, "50 random R1/R2 moves (seed 42) + R3 pairs"):
        start = time.monotonic()
        presets = all_presets()
        for d in corpus.load_corpus():
            rng = random.Random(f"42:{d.name}")
            moved, trail = random_moves(d, 50, rng, max_crossings=8)
            assert len(trail) == 50
            for th in presets:
                assert homology_of(d, th).betti == homology_of(moved, th).betti, \
                    (d.name, th.name)
        for da, db in corpus.load_r3_pairs():
            for th in presets:
                assert homology_of(da, th).betti == homology_of(db, th).betti, \
                    (da.name, th.name)
        assert time.monotonic() - start < 120.0


def test_criterion_10_convention_independence():
    with criterion(10, "100 random anchor flips (seed 7) leave betti fixed"):
        row7 = preset("f2_row7")
        thq = theory_from_triple(Q(1), Q(0), Q(1))
        rng = random.Random(7)
        for d in corpus.load_corpus():
            sms = all_smoothings(d)
            states = sorted(sms)
            base7 = homology_of(d, row7).betti
            baseq = homology_of(d, thq).betti
            for _ in range(100):
                state = rng.choice(states)
                circle = rng.choice(sms[state].circles).key
                assert betti_with_reversed_anchor(d, row7, (state, circle)).betti \
                    == base7, (d.name, state, circle)
                assert betti_with_reversed_anchor(d, thq, (state, circle)).betti \
                    == baseq, (d.name, state, circle)


def test_criterion_11_manturov_single_cycle_blocks():
    with criterion(11, "f2_row1 single-cycle differential blocks vanish"):
        man = preset("manturov")
        saw_single_cycle = False
        for name in corpus.all_names():
            d = corpus.load(name)
            c = build_complex(d, man)
            for sd in c.edges:
                if sd.kind != "single_cycle":
                    continue
                saw_single_cycle = True
                i = c.smoothings[sd.from_state].r - d.n_minus
                grp_s, grp_t = c.groups[i], c.groups[i + 1]
                col0 = grp_s.offsets[sd.from_state]
                row0 = grp_t.offsets[sd.to_state]
                cols = range(col0, col0 + (1 << grp_s.smoothings[sd.from_state].k))
                rows = range(row0, row0 + (1 << grp_t.smoothings[sd.to_state].k))
                for (r, cc), v in c.differentials[i].entries:
                    assert not (r in rows and cc in cols), \
                        f"{name}: nonzero single-cycle block entry {v}"
        assert saw_single_cycle, "corpus must exercise single-cycle saddles"


def test_acceptance_extra_rational_oracle_spot_check():
    # not a numbered criterion: double-checks the exact elimination behind
    # criteria 6 and 9 against the standalone dense oracle
    thq = theory_from_triple(Q(1), Q(0), Q(1))
    for d in corpus.load_corpus():
        c = build_complex(d, thq)
        assert homology(c).betti == dense_betti_qq(c), d.name
