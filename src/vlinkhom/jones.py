"""State-sum computation of the unnormalised Jones polynomial.

The normalization follows the Khovanov q-convention (unknot -> q + 1/q):

    J(q) = (-1)^n_minus * q^(n_plus - 2*n_minus)
           * sum_s (-1)^r(s) * q^r(s) * (q + 1/q)^k(s)

which makes the graded Euler characteristic identity with the
Manturov-preset homology hold verbatim.  The sum depends on each state only
through (r(s), k(s)), so the states are counted by that pair first and each
pair adds one term.  Without a cube's smoothings the pairs are counted off
``diagram.smoothings_from_both_ends``, one smoothing at a time, so no
per-state list is held.  The chain-level Euler characteristic J(1) is read
off this polynomial at q = 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .diagram import smoothings_from_both_ends


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial in q; zero coefficients never stored."""

    terms: tuple  # sorted tuple of (exponent, coefficient)

    @staticmethod
    def make(term_map):
        return LaurentPoly(tuple(sorted(
            (e, c) for e, c in term_map.items() if c)))

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


def kauffman_jones(d, smoothings=None):
    """The unnormalised Jones polynomial of a virtual link diagram.

    Each (r, k) adds (-1)^(n_minus + r) * count * q^(shift + r) * (q + 1/q)^k,
    with shift = n_plus - 2*n_minus, expanded binomially: the j-th term of
    (q + 1/q)^k is C(k, j) * q^(k - 2j).  ``smoothings`` maps each state to
    its smoothing (a cube's); without it the states are smoothed one at a
    time and only their (r, k) counts are kept."""
    sms = smoothings_from_both_ends(d) if smoothings is None else smoothings.values()
    shift = d.n_plus - 2 * d.n_minus
    terms = Counter()
    for (r, k), count in Counter((sm.r, sm.k) for sm in sms).items():
        c = (-1) ** (d.n_minus + r) * count
        for j in range(k + 1):
            terms[shift + r + k - 2 * j] += c * comb(k, j)
    return LaurentPoly.make(terms)


def jones_at_one(d, smoothings=None):
    """The chain-level Euler characteristic sum_s (-1)^(r(s) - n_minus) *
    2^k(s): ``kauffman_jones(d)`` at q = 1."""
    return kauffman_jones(d, smoothings).at_one()
