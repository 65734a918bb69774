"""Sparse exact rank on ints and the row-wise product check against the
standalone dense, Markowitz and dict-product oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vlinkhom.homology as H
from oracles import (first_nonzero_product, pivot_rows_markowitz, rank_fp_dense,
                     rank_qq_dense)
from vlinkhom import corpus
from vlinkhom._linalg import (_field_rows, _int_rows, first_nonzero, pivot_rows,
                              pivot_rows_sparse)
from vlinkhom.algebra import sparsest_basis, theory_from_triple
from vlinkhom.diagram import braid_closure
from vlinkhom.fields import GF2, PRIME_LIMIT, QQ, PrimeField, is_prime
from vlinkhom.tqft import ExactLinearMap

PRIMES = (3, 7, 1000003)


def as_map(field, dense, ncols):
    entries = {(r, c): field.parse(str(v))
               for r, row in enumerate(dense) for c, v in enumerate(row)}
    return ExactLinearMap.make(field, len(dense), ncols, entries)


def int_rows(field, dense, ncols):
    """The rows of ``dense`` read in ``field``, lifted to ints as the stream
    scatters them."""
    return _int_rows(as_map(field, dense, ncols).rows, field)[0]


def rank(field, dense, ncols, skip=()):
    return len(pivot_rows(int_rows(field, dense, ncols), field.characteristic, skip))


def ranks_agree(dense, ncols):
    assert rank(QQ, dense, ncols) == rank_qq_dense(dense)
    for p in PRIMES:
        assert rank(PrimeField(p), dense, ncols) == rank_fp_dense(dense, p)


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
    for p in (0, 7):
        assert len(pivot_rows(ExactLinearMap.make(QQ, 0, ncols, {}).rows, p)) == 0
        assert len(pivot_rows(ExactLinearMap.make(QQ, 3, ncols, {}).rows, p)) == 0
        assert len(pivot_rows_sparse({0: {}, 1: {}}, p)) == 0


def test_empty_rows_and_columns_are_skipped():
    dense = [[0, 0, 0, 0], [0, 2, 0, 3], [0, 0, 0, 0], [0, 4, 0, 6], [0, 0, 0, 1]]
    ranks_agree(dense, 4)
    assert rank_qq_dense(dense) == 2


@pytest.mark.parametrize("p", PRIMES)
def test_rank_drops_mod_p(p):
    dense = [[1, 1], [1, 1 + p]]
    assert rank(QQ, dense, 2) == rank_qq_dense(dense) == 2
    assert rank(PrimeField(p), dense, 2) == rank_fp_dense(dense, p) == 1


def test_rational_entries():
    dense = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert rank(QQ, dense, 2) == rank_qq_dense(dense) == 1


def non_unit_matrices(seed, count):
    """``count`` seeded (dense, ncols, skip) cases: integer entries in -3..3,
    mostly not +-1, so that pivots are not units over Q, with some rows
    integer combinations of others, and a random set of columns to skip."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        dense = [[rng.choice((-3, -2, 2, 3, -1, 1)) if rng.random() < 0.4 else 0
                  for _ in range(ncols)] for _ in range(nrows)]
        for _ in range(rng.randint(0, nrows // 2)):
            i, j, k = (rng.randrange(nrows) for _ in range(3))
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            dense[k] = [a * x + b * y for x, y in zip(dense[i], dense[j])]
        yield dense, ncols, rng.sample(range(ncols), rng.randint(0, ncols // 2))


@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_integer_elimination_matches_the_dense_oracles(p):
    field = PrimeField(p) if p else QQ
    dense_rank = rank_qq_dense if p == 0 else lambda m: rank_fp_dense(m, p)
    for dense, ncols, skip in non_unit_matrices(100 + p, 120):
        kept = [[0 if c in skip else x for c, x in enumerate(row)] for row in dense]
        assert rank(field, dense, ncols) == dense_rank(dense), dense
        assert rank(field, dense, ncols, skip) == dense_rank(kept), (dense, skip)


def test_a_row_proportional_by_a_non_unit_ratio_cancels():
    # row 0 pivots at column 1 (pv = 4), and row 1 (f = 6, g = 2) becomes
    # 2 (3, 6) - 3 (2, 4) = 0; the rows handed in are left as they are
    rows = {0: {0: 2, 1: 4}, 1: {0: 3, 1: 6}, 2: {0: 4, 2: 6}}
    before = {r: dict(cols) for r, cols in rows.items()}
    for p in (0, 7):
        assert pivot_rows(rows, p) == [0, 2]
    assert rows == before
    assert rank_qq_dense([[2, 4, 0], [3, 6, 0], [4, 0, 6]]) == 2


@pytest.mark.parametrize("name", ["q", "fp"])
def test_pivot_lists_match_the_field_markowitz_loop_on_the_corpus(name):
    # the stream's pivot rows, degree by degree and with the pivot rows of
    # d^(i-1) skipped, are those of elimination by the field's arithmetic,
    # in the standard basis and in the sparsest one
    field = QQ if name == "q" else PrimeField(1000003)
    th = theory_from_triple(field.one, field.zero, field.one, field=field)
    diagrams = [corpus.load(n) for n in corpus.all_names()] + [braid_closure([1, -2] * 3)]
    for d in diagrams:
        for basis in (th, sparsest_basis(th)):
            below = ()
            cube = H._cube_of(d)
            for i, rows, scale in H._differentials(cube.by_degree, basis, cube.ints):
                pivots = pivot_rows(rows, field.characteristic, below)
                reference = pivot_rows_markowitz(
                    {r: {c: v for c, v in cols.items() if c not in below}
                     for r, cols in _field_rows(rows, scale, field).items()}, field)
                assert pivots == reference, (d, basis, i)
                below = set(pivots)


# -- first nonzero entry of a composite ------------------------------------------

# the largest prime the fields accept, where unreduced integer sums run to
# about 2^160 before they are reduced
BIG_P = next(n for n in range(PRIME_LIMIT - 2, 0, -2) if is_prime(n))
COMPOSITE_FIELDS = {"q": QQ, "gf2": GF2, "gf3": PrimeField(3),
                    "gf_big": PrimeField(BIG_P)}


def first_nonzero_composite(maps, field):
    """Lift the rows of f_0, f_1, ... once each and check each f_{j+1} o f_j
    by ``first_nonzero``: its first nonzero entry as (j, row, col, value),
    at the lowest j, or None if every product vanishes."""
    before = None
    for j, rows in enumerate(maps):
        now = _int_rows(rows, field)
        hit = None if before is None else first_nonzero(now, before, field)
        if hit is not None:
            return (j - 1, *hit)
        before = now
    return None


def field_values(field):
    """Nonzero field elements to draw entries from: non-unit denominators
    over Q, and over GF(p) the elements near p as well as small ones."""
    if field is QQ:
        return st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                                Fraction(-2, 3), Fraction(5, 7), Fraction(9, 4), Fraction(7)])
    p = field.p
    return st.one_of(st.sampled_from(sorted({1, p - 1, p // 2, (p + 1) // 2})),
                     st.integers(1, p - 1))


def dense_of(draw, field, nrows, ncols):
    value = field_values(field)
    return [[draw(value) if draw(st.integers(0, 2)) else field.zero
             for _ in range(ncols)] for _ in range(nrows)]


def map_of(field, dense, ncols):
    return ExactLinearMap.make(field, len(dense), ncols,
                               {(r, c): v for r, row in enumerate(dense)
                                for c, v in enumerate(row)})


@st.composite
def composable_chains(draw, field):
    """(mode, dense maps f_0, f_1[, f_2], widths) with f_1 o f_0 either any
    product ("random"), zero ("zero"), or zero but for its last entry
    ("last"); an optional f_2 is any map after f_1."""
    mode = draw(st.sampled_from(["random", "zero", "last"]))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if mode == "random":
        k = draw(st.integers(1, 6))
        f0, f1 = dense_of(draw, field, k, n), dense_of(draw, field, m, k)
    else:
        # f_0 = [M; M] and f_1 = [N, -N], so f_1 o f_0 = NM - NM = 0
        t = draw(st.integers(1, 3))
        half0, half1 = dense_of(draw, field, t, n), dense_of(draw, field, m, t)
        f0 = half0 + [list(row) for row in half0]
        f1 = [row + [field.neg(x) for x in row] for row in half1]
        if mode == "last":
            # one more middle index, used only by a new last row and column
            w, v = draw(field_values(field)), draw(field_values(field))
            f0 = [row + [field.zero] for row in f0] + [[field.zero] * n + [v]]
            f1 = [row + [field.zero] for row in f1] + [[field.zero] * (2 * t) + [w]]
            n, m = n + 1, m + 1
    maps, widths = [f0, f1], [n, len(f0)]
    if draw(st.booleans()):
        maps.append(dense_of(draw, field, draw(st.integers(1, 6)), m))
        widths.append(m)
    return mode, maps, widths


@pytest.mark.parametrize("name", sorted(COMPOSITE_FIELDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_first_nonzero_composite_matches_dict_product(name, data):
    field = COMPOSITE_FIELDS[name]
    mode, maps, widths = data.draw(composable_chains(field))
    ms = [map_of(field, f, w) for f, w in zip(maps, widths)]
    hit = first_nonzero_composite((m.rows for m in ms), field)
    assert hit == first_nonzero_product([m.entries for m in ms], field.characteristic)
    if mode == "zero":
        assert hit is None or hit[0] == 1
    if mode == "last":
        last = (0, len(maps[1]) - 1, widths[0] - 1,
                field.mul(maps[1][-1][-1], maps[0][-1][-1]))
        assert hit == last


def test_first_nonzero_composite_of_fewer_than_two_maps():
    one = ExactLinearMap.identity(QQ, 3).rows
    for field in COMPOSITE_FIELDS.values():
        assert first_nonzero_composite([], field) is None
        assert first_nonzero_composite([one], field) is None


def test_rational_witness_is_scaled_back():
    # (1/2) * (2/3) + (1/6) * 1 = 1/2 at (0, 0), after the zero product at j = 0
    f0 = ExactLinearMap.make(QQ, 2, 1, {(0, 0): Fraction(2, 3), (1, 0): Fraction(1)})
    f1 = ExactLinearMap.make(QQ, 1, 2, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 6)})
    zero = ExactLinearMap.make(QQ, 1, 1, {})
    maps = [zero.rows, ExactLinearMap.make(QQ, 2, 1, {}).rows, f1.rows]
    assert first_nonzero_composite(maps, QQ) is None
    maps = [zero.rows, f0.rows, f1.rows]
    assert first_nonzero_composite(maps, QQ) == (1, 0, 0, Fraction(1, 2))


@pytest.mark.parametrize("p, weights", [(3, (1, 1, 1)),
                                        (BIG_P, (1, BIG_P // 2, BIG_P // 2))])
def test_integer_sums_that_vanish_mod_p_are_zero(p, weights):
    # column 0 of f_1 o f_0 sums to 1 + 1 + 1 = 3 over GF(3) and to
    # 1 + 2 (p // 2) = p near the limit: nonzero as integers, zero in the
    # field; column 1 is 1
    field = PrimeField(p)
    f0 = ExactLinearMap.make(field, 3, 2, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (0, 1): 1})
    f1 = ExactLinearMap.make(field, 1, 3, {(0, j): w for j, w in enumerate(weights)})
    assert first_nonzero_composite([f0.rows, f1.rows], field) == (0, 0, 1, 1)
    assert first_nonzero_product([f0.entries, f1.entries], p) == (0, 0, 1, 1)
