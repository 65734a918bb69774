"""State-sum computation of the unnormalised Jones polynomial.

The normalization follows the Khovanov q-convention (unknot -> q + 1/q):

    J(q) = (-1)^n_minus * q^(n_plus - 2*n_minus)
           * sum_s (-1)^r(s) * q^r(s) * (q + 1/q)^k(s)

which makes the graded Euler characteristic identity with the
Manturov-preset homology hold verbatim.  The sum depends on each state only
through (r(s), k(s)), so the states are counted by that pair first and each
pair adds one term.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .diagram import all_smoothings


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial in q; zero coefficients never stored."""

    terms: tuple  # sorted tuple of (exponent, coefficient)

    @staticmethod
    def make(term_map):
        return LaurentPoly(tuple(sorted(
            (e, c) for e, c in term_map.items() if c)))

    @staticmethod
    def zero():
        return LaurentPoly(())

    @staticmethod
    def one():
        return LaurentPoly.make({0: 1})

    def term_map(self):
        return dict(self.terms)

    def __add__(self, other):
        out = self.term_map()
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.make(out)

    def __neg__(self):
        return LaurentPoly.make({e: -c for e, c in self.terms})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly.make(out)

    def at_one(self):
        return sum(c for _, c in self.terms)

    def substitute_inverse(self):
        """q -> 1/q (used by mirror-image checks in tests)."""
        return LaurentPoly.make({-e: c for e, c in self.terms})

    def to_json(self):
        return {str(e): c for e, c in self.terms}

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.terms:
            mono = "1" if e == 0 else ("q" if e == 1 else f"q^{e}")
            if e == 0:
                bits.append(f"{c:+d}")
            elif c == 1:
                bits.append(f"+{mono}")
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c:+d}*{mono}")
        text = "".join(bits)
        return text[1:] if text.startswith("+") else text


CIRCLE_POLY = LaurentPoly.make({1: 1, -1: 1})


def _state_counts(d, smoothings):
    """How many states have each (r(s), k(s)): the state sums depend on
    nothing else."""
    sms = smoothings if smoothings is not None else all_smoothings(d)
    return Counter((sm.r, sm.k) for sm in sms.values())


def kauffman_jones(d, smoothings=None):
    """The unnormalised Jones polynomial of a virtual link diagram.

    Each (r, k) adds (-1)^(n_minus + r) * count * q^(shift + r) * (q + 1/q)^k,
    with shift = n_plus - 2*n_minus, expanded binomially: the j-th term of
    (q + 1/q)^k is C(k, j) * q^(k - 2j)."""
    shift = d.n_plus - 2 * d.n_minus
    terms = Counter()
    for (r, k), count in _state_counts(d, smoothings).items():
        c = (-1) ** (d.n_minus + r) * count
        for j in range(k + 1):
            terms[shift + r + k - 2 * j] += c * comb(k, j)
    return LaurentPoly.make(terms)


def jones_at_one(d, smoothings=None):
    """The chain-level Euler characteristic sum over smoothings.

    Computed directly as sum_s (-1)^(r(s) - n_minus) * 2^k(s); equals
    kauffman_jones(d) evaluated at q = 1.
    """
    return sum((-1 if (r - d.n_minus) % 2 else 1) * (count << k)
               for (r, k), count in _state_counts(d, smoothings).items())
