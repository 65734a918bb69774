"""Tour of the rank-two extended Frobenius algebras.

Builds the eight GF(2) theories and a few rational ones, prints their
parameters, and runs the axiom and 4-Tu verifiers.  Also shows how the two
defining constraints reject bad parameter tuples by name.
"""

from vlinkhom.algebra import (all_presets, format_column, phi_matrix,
                              theory_from_params, theory_from_triple,
                              theta_matrix, unit_matrix, verify_4tu,
                              verify_axioms)
from vlinkhom.errors import ConstraintViolated
from vlinkhom.fields import GF2, QQ

Q = QQ.from_int

print("The eight GF(2) theories (lambda, mu, t, beta -> h, theta, phi(x)):\n")
for i, th in enumerate(all_presets(), start=1):
    report = verify_axioms(th)
    ok4, _ = verify_4tu(th)
    theta = format_column(theta_matrix(th).compose(unit_matrix(th)))  # theta*1
    phi_x = format_column(phi_matrix(th), 1)                           # column of x
    print(f"  f2_row{i}:  lam={th.lam} mu={th.mu} t={th.t} beta={th.beta}"
          f"   h={th.h}  theta={theta:8}  phi(x)={phi_x:10}"
          f"  axioms={'ok' if report.passed else 'FAIL'} 4tu={'ok' if ok4 else 'FAIL'}")

print("\nRow 1 is the theory that kills the one-circle-to-one-circle saddles;")
print("rows 2 and 5 are the only ones with a nontrivial flip involution.\n")

print("Rational theories come from triples (a, lambda, mu); beta = 0 and t")
print("is solved from the quadratic constraint:\n")
for a, lam, mu in [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, -1, 2)]:
    th = theory_from_triple(Q(a), Q(lam), Q(mu))
    disc = th.h * th.h + 4 * th.t
    print(f"  (a={a}, lam={lam}, mu={mu}):  t = {th.t},  h = {th.h},"
          f"  h^2 + 4t = {disc}")
print("\nh^2 + 4t = -4 f^2 / mu^4 never vanishes away from characteristic 2,")
print("so none of these theories degenerates to the undeformed square-zero one.\n")

print("Constraint rejection is by name:")
for params, field in [((1, 0, 0, 1, 1), GF2), ((Q(1), Q(0), Q(0), Q(0), Q(0)), QQ)]:
    try:
        theory_from_params(*params, field=field)
    except ConstraintViolated as exc:
        shown = tuple(field.to_str(p) for p in params)
        print(f"  (a,t,lam,mu,beta) = {shown} over {field!r}: rejected"
              f" ({exc.equation}, residual {exc.residual})")
