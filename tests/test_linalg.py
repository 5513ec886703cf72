"""The rational routines of ``linalg`` against independent oracles.

Determinants are compared with the Leibniz formula, ranks with products
B.C of known rank, and solutions and inverses are checked by
multiplying back, so no oracle shares the elimination under test.  The
number normal form of ``polyring`` (an int when integral, else a
Fraction) is checked on the types of the results.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmflag.linalg import (
    det_fraction,
    identity_matrix,
    invert_fraction,
    mat_mul,
    mat_vec,
    rank_fraction,
    solve_fraction,
    solve_sparse_fraction,
)
from gkmflag.rootsys import RootSystem

entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)
integers = st.integers(-4, 4)


def square(n, elements=entries):
    return st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)


def leibniz(a):
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(square))
def test_det_matches_leibniz(a):
    assert det_fraction(a) == leibniz(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(square), st.data())
def test_det_of_singular_and_swapped_matrices(a, data):
    n = len(a)
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    swapped = list(a)
    swapped[i], swapped[j] = a[j], a[i]
    assert det_fraction(swapped) == -leibniz(a)
    c = data.draw(entries)
    singular = list(a)
    singular[j] = [c * v for v in a[i]]
    assert det_fraction(singular) == 0 == leibniz(singular)
    assert invert_fraction(singular) is None


def test_det_pinned():
    assert det_fraction([[0, 1], [1, 0]]) == -1
    assert det_fraction([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == 1
    assert det_fraction([[2, 3], [4, 6]]) == 0
    assert det_fraction([]) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(square))
def test_inverse_iff_nonzero_determinant(a):
    inv = invert_fraction(a)
    if leibniz(a) == 0:
        assert inv is None
    else:
        assert mat_mul(a, inv) == identity_matrix(len(a))


@st.composite
def of_known_rank(draw, max_rows=6, max_cols=6):
    """(A, r, b): A = P.[I; X].[I | Y].Q for permutations P, Q has rank
    exactly r, and b = P e_r lies outside its column space when r < rows.

    The first r coordinates of b (before P) are zero, so the only
    combination of the columns of P.[I; X] that could reach it is 0.
    """
    nrows, ncols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    rank = draw(st.integers(0, min(nrows, ncols)))
    x = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                      min_size=nrows - rank, max_size=nrows - rank))
    y = draw(st.lists(st.lists(entries, min_size=ncols - rank, max_size=ncols - rank),
                      min_size=rank, max_size=rank))
    rows = draw(st.permutations(range(nrows)))
    cols = draw(st.permutations(range(ncols)))
    left = [list(row) for row in identity_matrix(rank)] + x
    right = [list(row) + extra for row, extra in zip(identity_matrix(rank), y)]
    product = mat_mul(left, right) if rank else [[Fraction(0)] * ncols] * nrows
    a = [[product[rows[i]][cols[j]] for j in range(ncols)] for i in range(nrows)]
    outside = [Fraction(int(rows[i] == rank)) for i in range(nrows)]
    return a, rank, outside


@settings(max_examples=100, deadline=None)
@given(of_known_rank())
def test_rank_of_products_of_known_rank(case):
    a, rank, _ = case
    assert rank_fraction(a) == rank
    assert rank_fraction([list(col) for col in zip(*a)]) == rank


@settings(max_examples=100, deadline=None)
@given(of_known_rank(), st.data())
def test_solve_consistent_and_inconsistent(case, data):
    a, rank, outside = case
    x0 = data.draw(st.lists(entries, min_size=len(a[0]), max_size=len(a[0])))
    b = mat_vec(a, x0)
    x = solve_fraction(a, b)
    assert x is not None and mat_vec(a, x) == b
    if rank < len(a):
        assert solve_fraction(a, outside) is None


def test_sparse_solve_sets_free_columns_to_zero():
    # x0 + x1 = 3 and 2 x3 = 4 leave one of x0, x1 free; x2 and x4 appear nowhere
    sol = solve_sparse_fraction([{0: Fraction(1), 1: Fraction(1)}, {3: Fraction(2)}],
                                [3, 4], 5)
    assert sol[2] == sol[4] == 0 and sol[3] == 2
    assert sorted(sol[:2]) == [0, 3]
    assert solve_sparse_fraction([{0: Fraction(1)}, {0: Fraction(2)}], [1, 3], 1) is None


@settings(max_examples=100, deadline=None)
@given(of_known_rank(), st.data())
def test_sparse_solution_has_at_most_rank_nonzeros(case, data):
    a, rank, _ = case
    x0 = data.draw(st.lists(entries, min_size=len(a[0]), max_size=len(a[0])))
    b = mat_vec(a, x0)
    sparse = [{j: v for j, v in enumerate(row) if v} for row in a]
    sol = solve_sparse_fraction(sparse, b, len(a[0]))
    assert mat_vec(a, sol) == b
    assert sum(v != 0 for v in sol) <= rank


def normal(x):
    """polyring's normal form: an int when integral, else a Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(square(n, integers), st.lists(integers, min_size=n, max_size=n))))
def test_integral_input_keeps_the_normal_form(case):
    """Integral input gives int entries, and a Fraction appears only where
    a value is not integral, as in ``polyring``."""
    a, b = case
    n = len(a)
    assert normal(det_fraction(a))
    assert all(type(v) is int for row in mat_mul(a, a) for v in row)
    assert all(type(v) is int for row in identity_matrix(n) for v in row)
    x = solve_fraction(a, b)
    assert x is None or all(map(normal, x))
    inv = invert_fraction(a)
    if inv is not None:
        assert all(normal(v) for row in inv for v in row)
        assert all(type(v) is int for row in mat_mul(inv, a) for v in row)
        assert all(type(v) is int for v in mat_vec(inv, mat_vec(a, b)))


def test_normal_form_pinned():
    assert type(det_fraction([[2, 1], [1, 1]])) is int
    assert det_fraction([[Fraction(1, 2), 0], [0, 4]]) == 2
    assert type(det_fraction([[Fraction(1, 2), 0], [0, 4]])) is int
    assert invert_fraction([[2, 0], [0, 1]]) == ((Fraction(1, 2), 0), (0, 1))
    assert [type(v) for row in invert_fraction([[2, 0], [0, 1]]) for v in row] == [
        Fraction, int, int, int]
    assert [type(v) for v in solve_fraction([[2, 0], [0, 3]], [4, 1])] == [int, Fraction]
    assert type(mat_mul([[Fraction(1, 2)]], [[2]])[0][0]) is int


def test_weyl_matrices_are_integral():
    for kind, rank in (("A", 3), ("B", 3), ("D", 3)):
        for w in RootSystem(kind, rank).elements():
            assert all(type(v) is int for row in w.matrix() for v in row)


def test_invert_refuses_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="not a square matrix"):
        invert_fraction([[1, 0, 0], [0, 1, 0]])
