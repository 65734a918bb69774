"""Frobenius algebra structure, theory constructors and axiom checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlinkhom._linalg import ExactLinearMap, compose
from vlinkhom.algebra import (TheoryParams, all_presets, constraint_residuals,
                              coproduct_matrix, counit_matrix,
                              four_tube_sides, phi_matrix, preset,
                              product_matrix, random_rational_triples,
                              reduced_mod_p, sparsest_basis, structure_maps,
                              theory_from_params, theory_from_triple,
                              theta_matrix, unit_matrix, verify_4tu,
                              verify_axioms)
from vlinkhom.errors import (ConstraintViolated, InputError, NotInvertible,
                             UnknownPreset)
from vlinkhom.fields import GF2, PRIME_LIMIT, QQ, PrimeField, is_prime

Q = QQ.from_int


def q_theory(a=1, lam=0, mu=1):
    return theory_from_triple(Q(a), Q(lam), Q(mu))


def element(F, c1, cx):
    """c1*1 + cx*x as a column."""
    return ExactLinearMap.make(F, 2, 1, {(0, 0): c1, (1, 0): cx})


def basis(th):
    """The columns of 1 and x."""
    F = th.field
    return element(F, F.one, F.zero), element(F, F.zero, F.one)


def theta(th):
    """The crosscap element, as the column theta*1."""
    return compose(theta_matrix(th), unit_matrix(th))


# -- theory_from_params --------------------------------------------------------

def test_params_valid_f2_row7():
    th = theory_from_params(1, 0, 0, 1, 0, field=GF2)
    assert th.h == 0 and th.f == 1


def test_params_valid_f2_row1():
    th = theory_from_params(1, 0, 0, 0, 0, field=GF2)
    assert th.h == 0


def test_params_eq1_rejected():
    with pytest.raises(ConstraintViolated) as exc:
        theory_from_params(1, 0, 0, 1, 1, field=GF2)
    assert exc.value.equation == "eq1"


def test_params_eq2_rejected_over_qq():
    # classical Khovanov parameters violate eq2 over the rationals
    with pytest.raises(ConstraintViolated) as exc:
        theory_from_params(Q(1), Q(0), Q(0), Q(0), Q(0))
    assert exc.value.equation == "eq2"


def test_params_not_invertible():
    with pytest.raises(NotInvertible):
        theory_from_params(Q(0), Q(0), Q(0), Q(1), Q(0))


def test_theory_derives_f_and_h_from_its_parameters():
    # (a, t, lambda, mu, beta) = (2, 1, 1, 0, 1), unchecked: eq1 fails
    th = TheoryParams(QQ, Q(2), Q(1), Q(1), Q(0), Q(1))
    assert th.f == Fraction(1, 2)
    assert th.h == Fraction(-1)   # beta - a*lambda^2 - a*mu^2*t = 1 - 2 - 0
    with pytest.raises(TypeError):
        TheoryParams(QQ, Q(2), Q(1), Q(1), Q(0), Q(1), Q(5), Q(0))
    with pytest.raises(NotInvertible) as exc:
        TheoryParams(QQ, Q(0), Q(1), Q(1), Q(0), Q(1))
    assert exc.value.name == "a"


# -- theory_from_triple ----------------------------------------------------------

def test_triple_1_0_1():
    th = q_theory(1, 0, 1)
    assert th.t == Fraction(-2)
    assert th.h == Fraction(2)
    # h = 2/mu^2 - 2*lam/mu for a = 1
    assert th.h == 2 * Fraction(1, 1) ** -2 - 0


def test_triple_1_1_1():
    th = q_theory(1, 1, 1)
    assert th.t == Fraction(-1)
    assert th.h == Fraction(0)
    # re-validates through theory_from_params
    again = theory_from_params(th.a, th.t, th.lam, th.mu, th.beta)
    assert again.h == th.h


def test_triple_mu_zero():
    with pytest.raises(NotInvertible) as exc:
        theory_from_triple(Q(1), Q(0), Q(0))
    assert exc.value.name == "mu"


def test_triple_over_f2_reproduces_rows_7_and_8():
    assert theory_from_triple(1, 0, 1, field=GF2).t == 0
    assert theory_from_triple(1, 1, 1, field=GF2).t == 1


# -- presets -------------------------------------------------------------------

# (lam, mu, t, beta, h, theta as (c1,cx), phi(x) as (c1,cx))
F2_TABLE = {
    "f2_row1": (0, 0, 0, 0, 0, (0, 0), (0, 1)),
    "f2_row2": (0, 0, 0, 1, 1, (0, 0), (1, 1)),
    "f2_row3": (1, 0, 0, 0, 1, (1, 0), (0, 1)),
    "f2_row4": (0, 0, 1, 0, 0, (0, 0), (0, 1)),
    "f2_row5": (0, 0, 1, 1, 1, (0, 0), (1, 1)),
    "f2_row6": (1, 0, 1, 0, 1, (1, 0), (0, 1)),
    "f2_row7": (0, 1, 0, 0, 0, (0, 1), (0, 1)),
    "f2_row8": (1, 1, 1, 0, 0, (1, 1), (0, 1)),
}


@pytest.mark.parametrize("name", sorted(F2_TABLE))
def test_preset_table(name):
    lam, mu, t, beta, h, th_el, phix = F2_TABLE[name]
    th = preset(name)
    assert (th.lam, th.mu, th.t, th.beta) == (lam, mu, t, beta)
    assert th.h == h
    assert theta(th) == element(GF2, *th_el)
    assert compose(phi_matrix(th), basis(th)[1]) == element(GF2, *phix)


def test_preset_manturov_alias():
    man, row1 = preset("manturov"), preset("f2_row1")
    assert (man.a, man.t, man.lam, man.mu, man.beta) == \
        (row1.a, row1.t, row1.lam, row1.mu, row1.beta)
    assert man.name == "manturov"


def test_preset_unknown():
    with pytest.raises(UnknownPreset):
        preset("f2_row9")


# -- structure maps ------------------------------------------------------------

def test_multiply_row7_xx_is_zero():
    th = preset("f2_row7")
    x = basis(th)[1]
    assert compose(product_matrix(th), x.kron(x)).is_zero()


def test_multiply_unit_law():
    # m o (i (x) Id) = Id = m o (Id (x) i)
    for th in all_presets() + [q_theory(2, 1, 1)]:
        ident = ExactLinearMap.identity(th.field, 2)
        m, unit = product_matrix(th), unit_matrix(th)
        assert compose(m, unit.kron(ident)) == ident
        assert compose(m, ident.kron(unit)) == ident


def test_multiply_qq_xx():
    th = q_theory(1, 0, 1)
    x = basis(th)[1]
    assert compose(product_matrix(th), x.kron(x)) == element(QQ, Q(-2), Q(2))


def test_comultiply_row1():
    th = preset("manturov")
    one, x = basis(th)
    delta = coproduct_matrix(th)
    assert compose(delta, one) == ExactLinearMap.make(GF2, 4, 1, {(1, 0): 1, (2, 0): 1})
    assert compose(delta, x) == ExactLinearMap.make(GF2, 4, 1, {(3, 0): 1})


def test_counit_law_all_presets():
    # (eps (x) Id) Delta = Id = (Id (x) eps) Delta
    for th in all_presets() + [q_theory(1, 2, 1)]:
        ident = ExactLinearMap.identity(th.field, 2)
        delta, eps = coproduct_matrix(th), counit_matrix(th)
        assert compose(eps.kron(ident), delta) == ident
        assert compose(ident.kron(eps), delta) == ident


def test_counit_values():
    th = q_theory(1, 0, 1)
    one, x = basis(th)
    eps = counit_matrix(th)
    assert compose(eps, x).entry(0, 0) == Q(1)
    assert compose(eps, one).entry(0, 0) == Q(0)
    assert compose(eps, element(QQ, Q(0), Q(3))).entry(0, 0) == Q(3)


def test_phi_row2_and_row7():
    for name, phix in (("f2_row2", (1, 1)), ("f2_row7", (0, 1))):
        th = preset(name)
        assert compose(phi_matrix(th), basis(th)[1]) == element(GF2, *phix)


def test_theta_and_handle():
    assert theta(preset("f2_row7")) == element(GF2, 0, 1)
    assert theta(preset("manturov")).is_zero()
    for th in all_presets() + [q_theory(3, 1, 2)]:
        F = th.field
        handle = compose(counit_matrix(th), product_matrix(th), coproduct_matrix(th),
                         unit_matrix(th))
        assert handle.entry(0, 0) == F.from_int(2)


# -- Frobenius identities and extended axioms ----------------------------------

def _random_elements(th, count, seed):
    import random
    rng = random.Random(seed)
    F = th.field
    out = []
    for _ in range(count):
        out.append(element(F, F.from_int(rng.randint(-9, 9)),
                           F.from_int(rng.randint(-9, 9))))
    return out


@pytest.mark.parametrize("th", all_presets() + [q_theory(1, 0, 1), q_theory(2, -1, 3)],
                         ids=lambda t: t.name or "qq")
def test_extended_identities(th):
    m, delta, phi = product_matrix(th), coproduct_matrix(th), phi_matrix(th)
    tmat = theta_matrix(th)
    klein = compose(m, phi.kron(ExactLinearMap.identity(th.field, 2)), delta)
    for v in list(basis(th)) + _random_elements(th, 10, seed=f"{th.name}-ids"):
        assert compose(phi, phi, v) == v
        tv = compose(tmat, v)
        assert compose(phi, tv) == tv
        assert compose(klein, v) == compose(tmat, tmat, v)
    assert compose(m, delta, theta(th)) == compose(tmat, tmat, theta(th))


@pytest.mark.parametrize("th", all_presets() + [q_theory(1, 1, 2)],
                         ids=lambda t: t.name or "qq")
def test_frobenius_identities(th):
    # (Id (x) m)(Delta (x) Id) = Delta o m = (m (x) Id)(Id (x) Delta)
    ident = ExactLinearMap.identity(th.field, 2)
    m, delta = product_matrix(th), coproduct_matrix(th)
    middle = compose(delta, m)
    assert compose(ident.kron(m), delta.kron(ident)) == middle
    assert compose(m.kron(ident), ident.kron(delta)) == middle


@settings(max_examples=50, deadline=None)
@given(a=st.integers(-9, 9).filter(lambda v: v), lam=st.integers(-9, 9),
       mu=st.integers(-9, 9).filter(lambda v: v))
def test_triples_always_pass_axioms(a, lam, mu):
    th = theory_from_triple(Q(a), Q(lam), Q(mu))
    assert verify_axioms(th).passed
    ok, _ = verify_4tu(th)
    assert ok


@settings(max_examples=50, deadline=None)
@given(a=st.integers(-9, 9).filter(lambda v: v), lam=st.integers(-9, 9),
       mu=st.integers(-9, 9).filter(lambda v: v))
def test_h_squared_discriminant(a, lam, mu):
    # h^2 + 4t = -4 f^2 / mu^4 over characteristic zero, hence nonzero;
    # for a = 1 this is the -4/mu^4 of the rational classification.
    th = theory_from_triple(Q(a), Q(lam), Q(mu))
    disc = th.h * th.h + 4 * th.t
    assert disc == -4 * th.f * th.f / (th.mu ** 4)
    assert disc != 0


def test_beta_vanishes_away_from_char_two():
    for p in (3, 5, 7):
        F = PrimeField(p)
        th = theory_from_triple(F.from_int(1), F.from_int(1), F.from_int(1), field=F)
        assert th.beta == 0
        assert verify_axioms(th).passed
    # no valid theory over odd characteristic has beta != 0: eq1 then forces
    # lam = mu = 0 and eq2 degenerates to 0 = 2
    F3 = PrimeField(3)
    with pytest.raises(ConstraintViolated):
        theory_from_params(1, 0, 0, 0, 1, field=F3)
    with pytest.raises(ConstraintViolated):
        theory_from_params(1, 1, 1, 0, 1, field=F3)
    # 2*beta = 0 in every valid theory
    for th in all_presets():
        assert th.field.is_zero(th.field.mul(th.field.from_int(2), th.beta))


def test_primality_agrees_with_trial_division():
    small = [n for n in range(2, 3000) if all(n % d for d in range(2, n))]
    assert [n for n in range(3000) if is_prime(n)] == small
    for p in PRIME_LIMIT, 10 ** 5000:
        with pytest.raises(InputError, match=str(PRIME_LIMIT)) as info:
            PrimeField(p)
        assert len(str(info.value)) < 300


# -- verify_axioms / verify_4tu -------------------------------------------------

def test_all_presets_pass():
    for th in all_presets():
        report = verify_axioms(th)
        assert report.passed, report.checks
        ok, witness = verify_4tu(th)
        assert ok, witness


def test_invalid_params_fail_eq2_with_residual():
    # (a=1, t=0, lam=1, mu=1, beta=0) over F2: eq2 residual is 1
    res = constraint_residuals(GF2, 1, 0, 1, 1, 0)
    assert res["eq2"] == 1
    with pytest.raises(ConstraintViolated) as exc:
        theory_from_params(1, 0, 1, 1, 0, field=GF2)
    assert exc.value.equation == "eq2" and exc.value.residual == 1


def test_gram_determinant_is_minus_a_squared():
    for th in all_presets() + [q_theory(3, 0, 1)]:
        F = th.field
        gram = compose(counit_matrix(th), product_matrix(th))  # eps(u*v) at 2u + v
        g = [[gram.entry(0, 2 * u + v) for v in (0, 1)] for u in (0, 1)]
        det = F.sub(F.mul(g[0][0], g[1][1]), F.mul(g[0][1], g[1][0]))
        assert det == F.neg(F.mul(th.a, th.a))


def test_4tu_row1_explicit_expansion():
    th = preset("manturov")
    lhs, rhs = four_tube_sides(compose(coproduct_matrix(th), unit_matrix(th)))
    # 1(x)x(x)1(x)1 + x(x)1(x)1(x)1 + 1(x)1(x)1(x)x + 1(x)1(x)x(x)1
    expected = ExactLinearMap.make(GF2, 16, 1, {
        (0b0100, 0): 1, (0b1000, 0): 1, (0b0001, 0): 1, (0b0010, 0): 1})
    assert lhs == expected and rhs == expected


def test_4tu_catches_corrupted_coproduct():
    # an asymmetric corruption Delta(1) := 1(x)x makes the two sides differ
    # over QQ (a fully symmetric corruption such as 1(x)1 would not)
    corrupted = ExactLinearMap.make(QQ, 4, 1, {(1, 0): Q(1)})
    lhs, rhs = four_tube_sides(corrupted)
    assert lhs != rhs
    diff = lhs.add(rhs.negated())
    assert not diff.is_zero()  # concrete witness vector


def test_random_rational_triples_deterministic():
    assert random_rational_triples(5, seed=1) == random_rational_triples(5, seed=1)
    assert all(a != 0 and m != 0 for a, _, m in random_rational_triples(40, seed=2))


def _inverse_2x2(P):
    F = P.field
    (a, b), (c, d) = ((P.entry(r, 0), P.entry(r, 1)) for r in (0, 1))
    k = F.inv(F.sub(F.mul(a, d), F.mul(b, c)))
    return ExactLinearMap.make(F, 2, 2, {(0, 0): F.mul(d, k), (0, 1): F.neg(F.mul(b, k)),
                                         (1, 0): F.neg(F.mul(c, k)), (1, 1): F.mul(a, k)})


def _conjugated(th, P):
    """m, Delta, phi and theta of ``th`` in the basis of V given by the
    columns of P, from the maps in (1, x)."""
    Pi = _inverse_2x2(P)
    m, delta, phi, theta_ = structure_maps(th)
    return (compose(Pi, m, P.kron(P)), compose(Pi.kron(Pi), delta, P),
            compose(Pi, phi, P), compose(Pi, theta_, P))


def _odd_bases(th):
    """The candidate bases of V, as columns in (1, x): (1, y) with y = x - h/2
    where -1 is not a square, else (1 + y/s)/2, (1 - y/s)/2 for both square
    roots s of y^2 = t + h^2/4, each found by trial over the field."""
    F = th.field
    half_h = F.div(th.h, F.from_int(2))
    p = F.characteristic
    roots = [r for r in range(p) if r * r % p == p - 1][:1] if p % 4 == 1 else []
    if not roots:
        return [ExactLinearMap.make(F, 2, 2, {(0, 0): F.one, (0, 1): F.neg(half_h),
                                              (1, 1): F.one})]
    out = []
    for i in (roots[0], p - roots[0]):
        s = F.div(i, F.mul(th.a, F.mul(th.mu, th.mu)))
        assert s * s % p == F.add(th.t, F.mul(half_h, half_h))
        c, half = F.inv(F.add(s, s)), F.inv(F.from_int(2))
        hc = F.mul(half_h, c)
        out.append(ExactLinearMap.make(F, 2, 2, {
            (0, 0): F.sub(half, hc), (1, 0): c, (0, 1): F.add(half, hc), (1, 1): F.neg(c)}))
    return out


def test_sparsest_basis_is_a_change_of_basis_over_every_field():
    # over GF(2) each change of basis below is its own inverse: for t = 0 the
    # columns are e_0 = x + 1 and e_1 = x, for rows 4 and 8 they are 1, x + 1
    idempotents = ExactLinearMap.make(GF2, 2, 2, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
    shift = ExactLinearMap.make(GF2, 2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    for row, P in (("f2_row2", idempotents), ("f2_row3", idempotents),
                   ("f2_row4", shift), ("f2_row8", shift)):
        assert structure_maps(sparsest_basis(preset(row))) == _conjugated(preset(row), P), row
    # the rows come in pairs with one sparsest basis, chosen by h and t alone
    for row, twin in (("f2_row1", "f2_row4"), ("f2_row7", "f2_row8"),
                      ("f2_row2", "f2_row5"), ("f2_row3", "f2_row6")):
        assert sparsest_basis(preset(row)) == sparsest_basis(preset(twin))
    for th in (preset("f2_row1"), preset("f2_row7"), q_theory(1, 1, 1)):
        assert sparsest_basis(th) is th
    # a merge or split has 2 nonzeros in the idempotent basis, phi 2 (rows 2, 5)
    m, delta, phi, _ = structure_maps(sparsest_basis(preset("f2_row5")))
    assert [len(x.entry_map()) for x in (m, delta, phi)] == [2, 2, 2]
    # outside characteristic 2: (1, x - h/2) over Q and GF(p), p = 3 mod 4, and
    # the idempotents where p = 1 mod 4, for every h
    theories = [theory_from_triple(*map(Fraction, triple.split(",")))
                for triple in ("1,0,1", "1/2,3,-2/3", "1/3,1/2,5")]
    for p in (3, 7, 1000003, 5, 13, 1000033):
        F = PrimeField(p)
        for a, lam, mu in [(1, 0, 1), (1, 1, 1)] + random_rational_triples(6, seed=p):
            a, lam, mu = int(a), int(lam), int(mu)
            if F.is_zero(F.from_int(a)) or F.is_zero(F.from_int(mu)):
                continue
            theories.append(theory_from_triple(F.from_int(a), F.from_int(lam),
                                               F.from_int(mu), field=F))
    seen = set()
    for th in theories:
        F, sparse = th.field, sparsest_basis(th)
        split = F.characteristic % 4 == 1
        assert any(structure_maps(sparse) == _conjugated(th, P) for P in _odd_bases(th)), th
        m, delta, _, _ = structure_maps(sparse)
        assert [len(x.entry_map()) for x in (m, delta)] == ([2, 2] if split else [4, 4]), th
        assert (sparse is th) == (not split and F.is_zero(th.h)), th
        seen.add((F.characteristic, split, F.is_zero(th.h)))
    assert {(p, z) for p, split, z in seen if not split} >= {(0, False), (3, False),
                                                            (7, False), (1000003, False)}
    assert {p for p, split, _ in seen if split} == {5, 13, 1000033}
    # a hand-built tuple that fails eq2 (or eq1) keeps (1, x): nothing is guessed
    for F in (QQ, PrimeField(3), PrimeField(5)):
        for params in ((1, 3, 1, 1, 0), (1, 5, 0, 1, 0), (1, 0, 0, 0, 0), (1, 0, 1, 1, 1)):
            th = TheoryParams(F, *map(F.from_int, params))
            res = constraint_residuals(F, th.a, th.t, th.lam, th.mu, th.beta)
            assert not all(F.is_zero(r) for r in (*res["eq1"], res["eq2"])), (F, params)
            assert sparsest_basis(th) is th, (F, params)


def first_prime_1_mod_4(above, avoid):
    """The first prime p = 1 mod 4 above ``above`` that divides none of
    ``avoid``, by trial division."""
    p = above + 1
    while not (p % 4 == 1 and all(p % k for k in range(2, int(p ** 0.5) + 1))
               and all(v % p for v in avoid)):
        p += 1
    return p


def test_reduced_mod_p_takes_the_first_prime_that_keeps_the_theory():
    F = Fraction
    cases = [
        ((1, 0, 1), 0, 1000033, []),
        ((1, 0, 1), 10 ** 6, None, []),              # above 2B = 2 * 10^6
        ((1000033, 0, 1), 0, None, [1000033]),       # p divides a
        ((F(1, 1000033), 0, 1), 0, None, [1000033]),
        ((1, 0, 1000033), 0, None, [1000033]),       # p divides mu
        ((1, F(1, 1000033), 1), 0, None, [1000033]),  # and so the denominator of t
        ((1, 1000033, 1), 0, 1000033, []),           # a numerator of lambda is kept
        ((F(1, 3), F(1, 2), 5), 450000000, 900000041, []),
    ]
    for triple, bound, p, avoid in cases:
        th = theory_from_triple(*map(F, triple))
        reduced = reduced_mod_p(th, bound)
        expected = p or first_prime_1_mod_4(max(2 * bound, 10 ** 6), avoid)
        Fp = PrimeField(expected)
        assert reduced == theory_from_params(*(Fp.parse(str(v)) for v in (
            th.a, th.t, th.lam, th.mu, th.beta)), field=Fp), triple
        assert expected > 2 * bound and expected % 4 == 1, triple
        assert type(sparsest_basis(reduced)).__name__ == "Idempotents", triple


def test_reduced_mod_p_refuses_a_tuple_off_eq1_or_eq2_and_a_prime_past_the_limit():
    for params in ((1, 3, 1, 1, 0), (1, 5, 0, 1, 0), (1, 0, 1, 1, 1)):
        assert reduced_mod_p(TheoryParams(QQ, *map(Q, params)), 0) is None, params
    th = q_theory()
    assert reduced_mod_p(th, PRIME_LIMIT // 2) is None
    assert reduced_mod_p(th, 10 ** 30) is None
    # the last prime = 1 mod 4 below the limit is the last one taken
    p = PRIME_LIMIT - 1
    while not (p % 4 == 1 and is_prime(p)):
        p -= 1
    assert reduced_mod_p(th, (p - 1) // 2).field == PrimeField(p)
    assert reduced_mod_p(th, p // 2 + 1) is None
