"""Rank-two extended Frobenius algebras over an exact field.

The algebra is V = R{1, x} with

    x*x = h*x + t*1,          h = beta - a*lambda^2 - a*mu^2*t,
    eps(1) = 0, eps(x) = a,   i(1) = 1,
    Delta(1) = f*(1(x)x + x(x)1) - h*f*1(x)1,
    Delta(x) = f*x(x)x + f*t*1(x)1,            f = a^(-1),
    theta = lambda*1 + mu*x,
    phi(1) = 1, phi(x) = beta*1 + x,

subject to the defining constraints

    (eq1)  mu*beta = 0 and lambda*beta = 0,
    (eq2)  2*a*lambda*mu - a^2*mu^2*lambda^2 - a^2*mu^4*t = 2.

Each structure map is written down once, as an ``ExactLinearMap`` read
straight off these formulas: ``product_matrix`` (m), ``coproduct_matrix``
(Delta), ``unit_matrix`` (i), ``counit_matrix`` (eps), ``phi_matrix`` and
``theta_matrix`` (multiplication by theta).  The basis of V is (1, x) and
tensor factors are big-endian: the basis vector b_1(x)...(x)b_n of V^(x)n
has index sum(b_k * 2^(n-k)), with 1 -> 0 and x -> 1.  An element of V^(x)n
is a one-column map, and ``format_column`` renders it.

A theory is a ``TheoryParams``: a field and (a, t, lambda, mu, beta) in
it.  It derives f and h itself when it is built, so no theory carries an f
or h that disagrees with its parameters; ``theory_from_params``,
``theory_from_triple`` and ``preset`` also check eq1 and eq2.

``sparsest_basis`` gives the basis of V with the sparsest blocks over the
theory's own field, and ``structure_maps`` m, Delta, phi and theta in it.
``reduced_mod_p`` reduces a Q theory mod a prime p = 1 mod 4, where it
splits into Lee's idempotents (see below).

Over GF(2), a = 1, squares are the identity, h = beta + lambda + mu*t and
eq2 reads mu*(lambda + t) = 0, so mu = 1 forces beta = 0, lambda = t and
h = 0.
- h = 1 (rows 2, 3, 5, 6): mu = 0, and the roots r, r' of x^2 + x + t (0 and
  1, or w and w^2 in GF(4)) give idempotents e_r = x + r', e_0 e_1 = 0,
  e_0 + e_1 = 1, eps(e_r) = 1: m(e_a (x) e_b) = delta_ab*e_a, Delta(e_a) =
  e_a (x) e_a, theta = lambda*id, and phi(x) = x + beta swaps e_0 and e_1
  if beta = 1 (Lee, arXiv:math/0210213; Turner, arXiv:math/0411225).  These
  0/1 blocks do not depend on t, and their rank over GF(4) is their rank
  over GF(2): rows 5 and 6 get those of rows 2 and 3.
- h = 0, t = 1 (rows 4, 8): y = x + 1 has y^2 = 0, Delta(y) = y (x) y,
  eps(y) = a, phi(y) = beta + y and theta = (lambda + mu*t) + mu*y, so in
  the basis (1, y) the theory is (a, 0, lambda + mu*t, mu, beta): row 4 is
  row 1 and row 8 is row 7, which are in that form already.

Outside characteristic 2, eq2 leaves no room for mu = 0 (it would read
0 = 2), so eq1 forces beta = 0, h = -a*(lambda^2 + mu^2*t), and eq2 reads
u*h = 2*(1 - a*lambda*mu) with u = a*mu^2; with h that gives
u^2*(h^2 + 4t) = -4.  In the basis (1, y), y = x - h/2:
y^2 = t + h^2/4, Delta(1) = f*(1 (x) y + y (x) 1), Delta(y) = f*y (x) y +
f*(t + h^2/4)*1 (x) 1, eps(y) = a, phi(y) = y and theta = (lambda + mu*h/2)
+ mu*y.  That is the theory (a, t + h^2/4, lambda + mu*h/2, mu, beta), whose
derived h is h*(1 - a*lambda*mu - u*h/2) = 0 by eq2: m and Delta have 4
nonzeros each instead of 5, over Q and every GF(p), in the same field
(for h = 0 the basis is (1, x) itself).  Where -1 = i^2 has a root in GF(p) (p = 1 mod 4), y^2 = -1/u^2 = s^2 with
s = i/u, and V splits into the idempotents e_+- = (1 +- y/s)/2 (Lee;
Bar-Natan and Morrison, arXiv:math/0606542): m(e_a (x) e_b) =
delta_ab*e_a, Delta(e_+-) = +-(2s/a)*e_+- (x) e_+-, theta =
diag(lambda + mu*h/2 +- mu*s) and phi = id, 2 nonzeros per map, for every h.
``sparsest_basis`` takes these bases only for a tuple that satisfies eq1 and
eq2; a hand-built one that does not keeps (1, x).

``verify_axioms`` and ``verify_4tu`` check the axioms as identities between
composites of these matrices; a failed identity is reported with its first
differing column, as a human-readable witness.  ``tqft`` builds the
saddle blocks and the surface values from the same matrices.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field as dc_field

from ._linalg import ExactLinearMap, compose
from .errors import ConstraintViolated, NotInvertible, UnknownPreset
from .fields import GF2, PRIME_LIMIT, QQ, PrimeField, is_prime


# ---------------------------------------------------------------------------
# theories

@dataclass(frozen=True)
class TheoryParams:
    """The tuple (a, t, lambda, mu, beta) with f and h derived from it.

    f = 1/a and h = beta - a*lambda^2 - a*mu^2*t are set on construction,
    which raises NotInvertible if a = 0; eq1 and eq2 are not checked here
    (``theory_from_params`` checks them).
    """

    field: object
    a: object
    t: object
    lam: object
    mu: object
    beta: object
    f: object = dc_field(init=False, repr=False)
    h: object = dc_field(init=False, repr=False)
    name: str = dc_field(default="", compare=False)

    def __post_init__(self):
        F = self.field
        object.__setattr__(self, "f", _inverse(F, "a", self.a))
        # h = beta - a*lam^2 - a*mu^2*t
        object.__setattr__(self, "h", F.sub(
            F.sub(self.beta, F.mul(self.a, F.mul(self.lam, self.lam))),
            F.mul(self.a, F.mul(F.mul(self.mu, self.mu), self.t))))


def _inverse(field, name, value):
    """1/value in ``field``; NotInvertible names the parameter if it is 0."""
    try:
        return field.inv(value)
    except NotInvertible:
        raise NotInvertible(name, value) from None


def constraint_residuals(field, a, t, lam, mu, beta):
    """Residuals of the two defining equations (all zero for a valid theory)."""
    F = field
    mu2 = F.mul(mu, mu)
    a2 = F.mul(a, a)
    lhs = F.sub(
        F.sub(F.mul(F.from_int(2), F.mul(a, F.mul(lam, mu))),
              F.mul(a2, F.mul(mu2, F.mul(lam, lam)))),
        F.mul(a2, F.mul(F.mul(mu2, mu2), t)))
    return {
        "eq1": (F.mul(mu, beta), F.mul(lam, beta)),
        "eq2": F.sub(lhs, F.from_int(2)),
    }


def theory_from_params(a, t, lam, mu, beta, field=None, name=""):
    """Build and validate a theory from the full 5-tuple of parameters."""
    F = field if field is not None else QQ
    th = TheoryParams(F, a, t, lam, mu, beta, name)
    res = constraint_residuals(F, a, t, lam, mu, beta)
    r1a, r1b = res["eq1"]
    if not (F.is_zero(r1a) and F.is_zero(r1b)):
        raise ConstraintViolated("eq1", r1a if not F.is_zero(r1a) else r1b, F)
    if not F.is_zero(res["eq2"]):
        raise ConstraintViolated("eq2", res["eq2"], F)
    return th


def theory_from_triple(a, lam, mu, field=None):
    """Build the theory with beta = 0, solving eq2 for t.

    Requires a and mu invertible; works over any field.
    """
    F = field if field is not None else QQ
    a_inv = _inverse(F, "a", a)
    mu_inv = _inverse(F, "mu", mu)
    # eq2's residual is r(0) - a^2*mu^4*t, so t = r(0) / (a*mu^2)^2
    r0 = constraint_residuals(F, a, F.zero, lam, mu, F.zero)["eq2"]
    den_inv = F.mul(a_inv, F.mul(mu_inv, mu_inv))
    t = F.mul(r0, F.mul(den_inv, den_inv))
    return theory_from_params(a, t, lam, F.mul(mu, F.one), F.zero, field=F)


# the eight GF(2) theories, rows of (lambda, mu, t, beta)
_F2_TABLE = {
    "f2_row1": (0, 0, 0, 0),
    "f2_row2": (0, 0, 0, 1),
    "f2_row3": (1, 0, 0, 0),
    "f2_row4": (0, 0, 1, 0),
    "f2_row5": (0, 0, 1, 1),
    "f2_row6": (1, 0, 1, 0),
    "f2_row7": (0, 1, 0, 0),
    "f2_row8": (1, 1, 1, 0),
}

PRESET_NAMES = tuple(_F2_TABLE) + ("manturov",)


def preset(name):
    """Look up one of the tabulated GF(2) theories by its stable name."""
    key = name.strip().lower()
    if key == "manturov":
        key = "f2_row1"
        name = "manturov"
    if key not in _F2_TABLE:
        raise UnknownPreset(name)
    lam, mu, t, beta = _F2_TABLE[key]
    return theory_from_params(1, t, lam, mu, beta, field=GF2, name=name.strip().lower())


def all_presets():
    return [preset(n) for n in _F2_TABLE]


# ---------------------------------------------------------------------------
# structure maps

def product_matrix(th):
    """m: V(x)V -> V, with 1 the unit and x*x = t*1 + h*x."""
    one = th.field.one
    return ExactLinearMap.make(th.field, 2, 4, {
        (0, 0): one, (1, 1): one, (1, 2): one, (0, 3): th.t, (1, 3): th.h})


def coproduct_matrix(th):
    """Delta: V -> V(x)V."""
    F, f = th.field, th.f
    return ExactLinearMap.make(F, 4, 2, {
        (0, 0): F.neg(F.mul(th.h, f)), (1, 0): f, (2, 0): f,
        (0, 1): F.mul(f, th.t), (3, 1): f})


def unit_matrix(th):
    """i: R -> V, 1 -> 1."""
    return ExactLinearMap.make(th.field, 2, 1, {(0, 0): th.field.one})


def counit_matrix(th):
    """eps: V -> R, 1 -> 0 and x -> a."""
    return ExactLinearMap.make(th.field, 1, 2, {(0, 1): th.a})


def phi_matrix(th):
    """The flip involution: 1 -> 1, x -> beta*1 + x."""
    one = th.field.one
    return ExactLinearMap.make(th.field, 2, 2, {(0, 0): one, (0, 1): th.beta, (1, 1): one})


def theta_matrix(th):
    """Multiplication by the crosscap element theta = lambda*1 + mu*x."""
    F = th.field
    return ExactLinearMap.make(F, 2, 2, {
        (0, 0): th.lam, (1, 0): th.mu,
        (0, 1): F.mul(th.mu, th.t), (1, 1): F.add(th.lam, F.mul(th.mu, th.h))})


# A theory in a basis (e_0, e_1) of idempotents (module docstring): m(e_a (x)
# e_b) = delta_ab*e_a, Delta(e_a) = delta[a]*e_a (x) e_a, theta(e_a) =
# theta[a]*e_a, and phi swaps e_0 and e_1 if ``swap`` is set, else fixes them
Idempotents = namedtuple("Idempotents", "field delta theta swap")


def _sqrt_minus_one(F):
    """A root of x^2 + 1 in GF(p) for p = 1 mod 4, g^((p-1)/4) for the first
    g that Euler's criterion finds a non-residue; None in any other field."""
    p = F.characteristic
    if p % 4 != 1:
        return None
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:
        g += 1
    return pow(g, (p - 1) // 4, p)


def sparsest_basis(th):
    """``th`` in the sparsest basis of V over its own field, which its
    characteristic, h and t choose (module docstring): ``th`` itself for
    t = h = 0 over GF(2), for h = 0 over Q and GF(p) with p = 3 mod 4, and
    outside GF(2) for a tuple that fails eq1 or eq2.  Short of idempotents,
    (1, x + 1) over GF(2) and (1, x - h/2) elsewhere are both the basis
    (1, y), y = x - c, in which the theory is (a, t + h*c - c^2,
    lambda + mu*c, mu, beta), with c = t over GF(2) and c = h/2 elsewhere;
    Lee's idempotents take the same lambda + mu*c."""
    F = th.field
    if F.characteristic == 2:
        if not F.is_zero(th.h):
            return Idempotents(F, (F.one, F.one), (th.lam, th.lam), not F.is_zero(th.beta))
        c = th.t
    else:
        res = constraint_residuals(F, th.a, th.t, th.lam, th.mu, th.beta)
        if not all(F.is_zero(r) for r in (*res["eq1"], res["eq2"])):
            return th
        c = F.div(th.h, F.from_int(2))
    lam = F.add(th.lam, F.mul(th.mu, c))
    i = _sqrt_minus_one(F)
    if i is not None:
        s = F.div(i, F.mul(th.a, F.mul(th.mu, th.mu)))
        e, ms = F.div(F.add(s, s), th.a), F.mul(th.mu, s)
        return Idempotents(F, (e, F.neg(e)), (F.add(lam, ms), F.sub(lam, ms)), False)
    if F.is_zero(c):
        return th
    t = F.sub(F.add(th.t, F.mul(th.h, c)), F.mul(c, c))
    return TheoryParams(F, th.a, t, lam, th.mu, th.beta)


def reduced_mod_p(th, bound):
    """The Q theory ``th`` with (a, t, lambda, mu, beta) reduced mod p, a
    theory over GF(p), where p is the first prime = 1 mod 4 above
    max(2*bound, 10^6) that divides no denominator of the five and no
    numerator of a or mu; None for a tuple that fails eq1 or eq2, or if p
    would reach PRIME_LIMIT.  Reduction mod p is a ring map on rationals
    with no p in their denominators, so eq1 and eq2 still hold, a and mu
    stay invertible and ``sparsest_basis`` of it is Lee's idempotents."""
    params = (th.a, th.t, th.lam, th.mu, th.beta)
    res = constraint_residuals(QQ, *params)
    if any((*res["eq1"], res["eq2"])):
        return None
    avoid = [v.denominator for v in params] + [th.a.numerator, th.mu.numerator]
    p = max(2 * bound, 10 ** 6) + 1
    p += (1 - p) % 4
    while p < PRIME_LIMIT and not (all(v % p for v in avoid) and is_prime(p)):
        p += 4
    if p >= PRIME_LIMIT:
        return None
    F = PrimeField(p)
    return TheoryParams(F, *(F.div(F.from_int(v.numerator), F.from_int(v.denominator))
                             for v in params))


def structure_maps(th):
    """(m, Delta, phi, theta) of a ``TheoryParams`` in the basis (1, x), or
    of an ``Idempotents`` in its basis (e_0, e_1)."""
    if not isinstance(th, Idempotents):
        return product_matrix(th), coproduct_matrix(th), phi_matrix(th), theta_matrix(th)
    F, one, swap = th.field, th.field.one, int(th.swap)
    return (ExactLinearMap.make(F, 2, 4, {(0, 0): one, (1, 3): one}),
            ExactLinearMap.make(F, 4, 2, {(0, 0): th.delta[0], (3, 1): th.delta[1]}),
            ExactLinearMap.make(F, 2, 2, {(0, swap): one, (1, 1 - swap): one}),
            ExactLinearMap.make(F, 2, 2, {(0, 0): th.theta[0], (1, 1): th.theta[1]}))


def format_column(m, col=0):
    """Column ``col`` of ``m``, a vector of V^(x)n where m.nrows = 2^n, as
    text in basis order: ``c*1 + c*x`` for n = 1, ``1(x)x + 3/2*x(x)1``
    for n >= 2 (a coefficient 1 left out), and ``0`` for the zero vector."""
    F, n = m.field, m.nrows.bit_length() - 1
    terms = []
    for r in sorted(m.rows):
        if col in m.rows[r]:
            word = "(x)".join("1x"[r >> (n - 1 - k) & 1] for k in range(n))
            coeff = F.to_str(m.rows[r][col])
            terms.append(word if n > 1 and coeff == "1" else f"{coeff}*{word}")
    return " + ".join(terms) or "0"


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def verify_axioms(th):
    """Check the extended-Frobenius axioms as identities between matrices.

    Failures are recorded with witnesses instead of raising, so that
    classification experiments get full diagnostics.  The witness of a
    failed identity comes from its first differing column: the first basis
    vector, or pair of them, on which the two sides disagree.
    """
    F = th.field
    m, delta, phi = product_matrix(th), coproduct_matrix(th), phi_matrix(th)
    eps, unit, theta = counit_matrix(th), unit_matrix(th), theta_matrix(th)
    ident = ExactLinearMap.identity(F, 2)
    basis = [format_column(ident, j) for j in (0, 1)]
    checks = []

    def check(name, lhs, rhs, witness):
        """lhs = rhs.  Where they differ, ``witness`` is formatted at their
        first differing column: {v} names its basis vector (``1*x``, or
        ``1*x*1*x`` for x(x)x) and {l} and {r} are the two sides' columns."""
        diff = lhs.add(rhs.negated())
        j = min((c for row in diff.rows.values() for c in row), default=None)
        if j is None:
            checks.append(AxiomCheck(name, True))
            return
        k = lhs.ncols.bit_length() - 1
        v = "*".join(basis[j >> (k - 1 - i) & 1] for i in range(k))
        checks.append(AxiomCheck(name, False, witness.format(
            v=v, l=format_column(lhs, j), r=format_column(rhs, j))))

    check("phi_involution", compose(phi, phi), ident, "phi(phi({v})) = {l}")
    check("phi_product", compose(phi, m), compose(m, phi.kron(phi)),
          "phi({v}): {l} != {r}")
    check("phi_coproduct", compose(phi.kron(phi), delta), compose(delta, phi),
          "(phi(x)phi)Delta({v}) = {l} != Delta(phi) = {r}")
    check("phi_counit", compose(eps, phi), eps, "eps(phi({v})) != eps({v})")
    check("phi_unit", compose(phi, unit), unit, "phi(1) != 1")
    check("extended_axiom_theta", compose(phi, theta), theta, "phi(theta*{v}) = {l} != {r}")
    klein, theta_sq = compose(m, phi.kron(ident), delta), compose(theta, theta)
    check("extended_axiom_klein", compose(klein, unit), compose(theta_sq, unit),
          "m(phi(x)Id)Delta(1) = {l} != theta^2 = {r}")
    check("theta_square_action", klein, theta_sq,
          "m(phi(x)Id)Delta({v}) = {l} != theta^2*{v} = {r}")
    check("theta_cube", compose(m, delta, theta, unit), compose(theta, theta_sq, unit),
          "m(Delta(theta)) = {l} != theta^3 = {r}")

    def scalar(name, value, witness):
        checks.append(AxiomCheck(name, bool(value), witness))

    res = constraint_residuals(F, th.a, th.t, th.lam, th.mu, th.beta)
    r1a, r1b = res["eq1"]
    scalar("eq1", F.is_zero(r1a) and F.is_zero(r1b),
           f"mu*beta = {F.to_str(r1a)}, lambda*beta = {F.to_str(r1b)}")
    scalar("eq2", F.is_zero(res["eq2"]), f"residual {F.to_str(res['eq2'])}")

    # Gram matrix [[eps(1*1), eps(1*x)], [eps(x*1), eps(x*x)]]; det = -a^2
    gram = compose(eps, m)
    det = F.sub(F.mul(gram.entry(0, 0), gram.entry(0, 3)),
                F.mul(gram.entry(0, 1), gram.entry(0, 2)))
    scalar("counit_nondegenerate", not F.is_zero(det), f"Gram determinant {F.to_str(det)}")

    sphere = compose(eps, unit).entry(0, 0)
    scalar("aspherical", F.is_zero(sphere), f"eps(i(1)) = {F.to_str(sphere)}")

    return AxiomReport(tuple(checks))


def four_tube_sides(delta1):
    """The two vectors of V^(x)4 compared by the 4-Tu identity.

    ``delta1`` is the column of Delta(1) = sum a'(x)a''; the identity is

        sum a'(x)a''(x)1(x)1 + sum 1(x)1(x)a'(x)a''
          = sum a'(x)1(x)a''(x)1 + sum 1(x)a'(x)1(x)a''.
    """
    def embed(p, q):
        # a' on factor p and a'' on factor q, 1 on the other two
        return ExactLinearMap.make(delta1.field, 16, 1, {
            ((r >> 1) << (3 - p) | (r & 1) << (3 - q), 0): row[0]
            for r, row in delta1.rows.items()})

    return embed(0, 1).add(embed(2, 3)), embed(0, 2).add(embed(1, 3))


def verify_4tu(th):
    """Check the 4-Tu relation for this theory; returns (passed, witness).

    Every ``TheoryParams`` passes: 4-Tu holds exactly when Delta(1) has no
    x(x)x term and equal 1(x)x and x(x)1 terms, as the formula for Delta(1)
    gives, so the check guards ``coproduct_matrix`` against a change that
    breaks that formula."""
    lhs, rhs = four_tube_sides(compose(coproduct_matrix(th), unit_matrix(th)))
    diff = lhs.add(rhs.negated())
    if diff.is_zero():
        return True, ""
    return False, f"lhs - rhs = {format_column(diff)}"
