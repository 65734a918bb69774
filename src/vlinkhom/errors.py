"""Exception types shared across the package.

``InputError`` marks problems with user-supplied data (bad syntax, unknown
names, malformed configuration); the CLI maps these to exit code 3.
``MismatchError`` marks failed cross-checks (exit code 2).  Everything else
is an ordinary computation error (exit code 1).

A message echoes a value from outside, such as a flag, a file or an
argument to a library call, through ``cut``, so that a long input is not
written back in full; values the program computed, such as a residual or a
witness, are written in full.
"""

from __future__ import annotations


# The most characters of an outside value that an error message echoes.
ECHO_LIMIT = 120


def cut(text):
    """``text``, cut to ECHO_LIMIT characters ending in '...' if longer."""
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT - 3] + "..."


class VlinkhomError(Exception):
    """Base class for all package errors."""


class InputError(VlinkhomError):
    """Marker for errors caused by bad user input."""


class MismatchError(VlinkhomError):
    """Marker for failed internal cross-checks and invariance mismatches."""


# -- theory construction -----------------------------------------------------

class NotInvertible(InputError):
    def __init__(self, name, value=None):
        self.name = name
        self.value = value
        super().__init__(f"parameter {name!r} is not invertible"
                         + (f" (value {value})" if value is not None else ""))


class ConstraintViolated(InputError):
    """A defining equation of the theory fails; carries the residual, an
    element of ``field``, which writes it in the message."""

    def __init__(self, equation, residual, field):
        self.equation = equation
        self.residual = residual
        super().__init__(f"constraint {equation} violated, residual {field.to_str(residual)}")


class UnknownPreset(InputError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown theory preset {cut(repr(name))}")


# -- diagram parsing and validation ------------------------------------------

class BadSyntax(InputError):
    def __init__(self, position, message=""):
        self.position = position
        super().__init__(f"bad syntax at position {position}"
                         + (f": {message}" if message else ""))


class DuplicateRole(InputError):
    def __init__(self, label, role):
        self.label = label
        self.role = role
        super().__init__(f"crossing {cut(str(label))} has more than one {role} passage")


class MissingPassage(InputError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"crossing {label} is missing a passage "
                         "(labels must be 1..n, each once over and once under)")


class SignMismatch(InputError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"the two passages of crossing {label} carry different signs")


# -- cube / complex -----------------------------------------------------------

class LengthMismatch(InputError):
    def __init__(self, expected, got):
        self.expected = expected
        self.got = got
        super().__init__(f"state length {got} does not match crossing count {expected}")


class DimensionMismatch(VlinkhomError):
    """Maps or blocks whose shapes do not fit together."""


class DSquaredNonzero(MismatchError):
    """d∘d has a nonzero entry; signals a twist-convention bug.

    Carries a witness: (degree, source label, target label, value).
    """

    def __init__(self, degree, source, target, value):
        self.degree = degree
        self.source = source
        self.target = target
        self.value = value
        super().__init__(
            f"d^2 != 0 at degree {degree}: {source} -> {target} has value {value}")


class NotGraded(VlinkhomError):
    def __init__(self, reason):
        super().__init__(f"theory is not quantum-graded: {reason}")


# -- moves -------------------------------------------------------------------

class PatternNotFound(InputError):
    """A move's pattern is not at the given site."""

