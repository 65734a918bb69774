"""Sparse exact rank against the standalone dense oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rank_fp_dense, rank_qq_dense
from vlinkhom._linalg import matrix_rank, rank_sparse
from vlinkhom.fields import QQ, PrimeField
from vlinkhom.tqft import ExactLinearMap

PRIMES = (3, 7, 1000003)


def as_map(field, dense, ncols):
    entries = {(r, c): field.parse(str(v))
               for r, row in enumerate(dense) for c, v in enumerate(row)}
    return ExactLinearMap.make(field, len(dense), ncols, entries)


def ranks_agree(dense, ncols):
    assert matrix_rank(as_map(QQ, dense, ncols).entries, QQ) == rank_qq_dense(dense)
    for p in PRIMES:
        F = PrimeField(p)
        assert matrix_rank(as_map(F, dense, ncols).entries, F) == rank_fp_dense(dense, p)


@st.composite
def sparse_matrices(draw):
    """Sparse integer matrices with zero rows and columns and, often, rows
    that are integer combinations of earlier rows."""
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(1, 9))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, 3, -7])
    dense = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3)) if nrows >= 2 else 0):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        combo = [a * x + b * y for x, y in zip(dense[i], dense[j])]
        dense[draw(st.integers(0, nrows - 1))] = combo
    return dense, ncols


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_matches_dense_oracles(case):
    ranks_agree(*case)


def test_sparse_rank_seeded_larger_matrices():
    # bigger than hypothesis draws: 40 x 30 at 10% density, with a rank
    # deficiency built in from combinations of the first rows
    rng = random.Random(2024)
    for _ in range(20):
        dense = [[rng.choice((1, -1, 2, 5)) if rng.random() < 0.1 else 0
                  for _ in range(30)] for _ in range(40)]
        for r in range(30, 40):
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            dense[r] = [a * x + b * y for x, y in zip(dense[r - 30], dense[r - 29])]
        ranks_agree(dense, 30)


@pytest.mark.parametrize("ncols", [0, 1, 5])
def test_zero_row_shapes_have_rank_zero(ncols):
    for field in (QQ, PrimeField(7)):
        assert matrix_rank(ExactLinearMap.make(field, 0, ncols, {}).entries, field) == 0
        assert matrix_rank(ExactLinearMap.make(field, 3, ncols, {}).entries, field) == 0
        assert rank_sparse({0: {}, 1: {}}, field) == 0


def test_empty_rows_and_columns_are_skipped():
    dense = [[0, 0, 0, 0], [0, 2, 0, 3], [0, 0, 0, 0], [0, 4, 0, 6], [0, 0, 0, 1]]
    ranks_agree(dense, 4)
    assert rank_qq_dense(dense) == 2


@pytest.mark.parametrize("p", PRIMES)
def test_rank_drops_mod_p(p):
    dense = [[1, 1], [1, 1 + p]]
    F = PrimeField(p)
    assert matrix_rank(as_map(QQ, dense, 2).entries, QQ) == rank_qq_dense(dense) == 2
    assert matrix_rank(as_map(F, dense, 2).entries, F) == rank_fp_dense(dense, p) == 1


def test_rational_entries():
    dense = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert matrix_rank(as_map(QQ, dense, 2).entries, QQ) == rank_qq_dense(dense) == 1
