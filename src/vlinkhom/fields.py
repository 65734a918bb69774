"""Exact ground fields: the rationals and prime fields GF(p).

Field elements are plain Python values (``fractions.Fraction`` for QQ,
``int`` in ``[0, p)`` for GF(p)); the field object supplies the arithmetic.
No floating point is used anywhere.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction

from .errors import InputError, NotInvertible, cut


class _Field:
    """What every field derives from its primitives ``add``, ``neg``,
    ``mul`` and ``inv``; two fields are equal when they have the same type
    and characteristic."""

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return type(other) is type(self) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash((type(self).__name__, self.characteristic))


# The largest exponent magnitude a rational such as 1e4300 may carry.  Fraction
# expands the power in full, so 1e1000000 took 80 s to read; the bound is that
# of str()'s digit limit on a plain decimal, and it is checked before any power
# is computed.
MAX_EXPONENT = 4300


class RationalField(_Field):
    """The field of rationals; elements are ``Fraction`` in lowest terms."""

    characteristic = 0
    name = "q"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise NotInvertible("element", a)
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        _, e, exponent = text.lower().partition("e")
        try:
            if e and abs(int(exponent)) > MAX_EXPONENT:
                raise InputError(f"rational {cut(repr(text))}: its exponent is beyond "
                                 f"the limit MAX_EXPONENT = {MAX_EXPONENT:,}")
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise _unreadable("rational", text) from exc

    def to_str(self, a):
        """``a`` as ``str`` writes it, at any length: an int converted by
        ``decimal`` has no limit on its digits, where ``str`` has one."""
        text = str(Decimal(a.numerator))
        return text if a.denominator == 1 else f"{text}/{Decimal(a.denominator)}"

    def __repr__(self):
        return "QQ"


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin for ``n < PRIME_LIMIT``."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(_Field):
    """GF(p) for a prime p; elements are ints in ``[0, p)``."""

    def __init__(self, p):
        if p >= PRIME_LIMIT:
            raise _past_prime_limit(str(Decimal(p)))  # str(p) has a digit limit
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"f{p}" if p == 2 else f"fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise NotInvertible("element", a)
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, text):
        top, slash, bot = text.strip().partition("/")
        try:
            num, den = int(top), int(bot) if slash else 1
        except ValueError as exc:
            raise _unreadable(f"GF({self.p}) element", text) from exc
        if den % self.p == 0:
            raise InputError(f"cannot parse GF({self.p}) element {cut(repr(text))}: "
                             f"its denominator is 0 mod {self.p}")
        return self.div(num % self.p, den % self.p)

    def to_str(self, a):
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"


def _unreadable(what, text):
    """The InputError for ``text``, a ``what`` that ``int()`` or ``Fraction``
    refused: it names int()'s digit limit if a run of digits passes it."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # no limit before 3.10.7
    if limit and any(len(run) > limit for run in re.findall(r"\d+", text)):
        return InputError(f"{what} {cut(repr(text))} has a number of more than "
                          f"{limit:,} digits, the limit of Python's int()")
    return InputError(f"cannot parse {what} {cut(repr(text))}")


def _past_prime_limit(digits):
    """The InputError for a GF(p) whose p, written as ``digits``, is at or
    above PRIME_LIMIT."""
    return InputError(f"GF(p) needs p < {PRIME_LIMIT}, where the primality test "
                      f"is exact; got {cut(digits)}")


QQ = RationalField()
GF2 = PrimeField(2)


def field_by_name(name):
    """Resolve the CLI field selector: ``q``, ``f2`` or ``fp:<prime>``."""
    name = name.strip().lower()
    if name == "q":
        return QQ
    if name == "f2":
        return GF2
    if name.startswith("fp:"):
        digits = name[3:].lstrip("0")
        if digits.isdecimal() and len(digits) > len(str(PRIME_LIMIT)):
            raise _past_prime_limit(digits)  # before int() refuses too many digits
        try:
            # leading zeros count toward int()'s digit limit, so they go first
            p = int(digits if digits.isdecimal() else name[3:])
        except ValueError:
            raise InputError(f"field {cut(repr(name))}: fp:P needs an integer prime P") from None
        return PrimeField(p)
    raise InputError(f"unknown field {cut(repr(name))} (expected q, f2 or fp:P)")
