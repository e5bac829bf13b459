import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from engine_oracle import complement, intersect
from possheaf.exactla import (
    QQ,
    ContainmentViolation,
    Matrix,
    NoSolution,
    PrimeField,
    Subspace,
    block_diag,
    field_from_name,
    hstack,
    image_basis,
    kernel_basis,
    place_blocks,
    quotient_basis,
    rank,
    rref,
    solve,
    vstack,
)


def M(rows):
    return Matrix.from_rows(QQ, rows)


def test_rref_proportional_rows():
    red, pivots = rref(M([[2, 4], [1, 2]]))
    assert pivots == [0]
    assert red == M([[1, 2], [0, 0]])


def test_rref_identity():
    i3 = Matrix.identity(QQ, 3)
    red, pivots = rref(i3)
    assert red == i3 and pivots == [0, 1, 2]


def test_rref_permutation():
    red, pivots = rref(M([[0, 1], [1, 0]]))
    assert red == Matrix.identity(QQ, 2) and pivots == [0, 1]


def test_rref_canonical():
    a = M([[1, 2, 3], [0, 1, 1]])
    b = M([[2, 5, 7], [1, 2, 3]])  # row-equivalent to a
    assert rref(a)[0] == rref(b)[0]


def test_kernel_rank_one():
    ker = kernel_basis(M([[1, 2], [2, 4]]))
    assert ker.dim == 1
    v = ker.basis
    assert (M([[1, 2], [2, 4]]) * v).is_zero()


def test_kernel_invertible_and_zero():
    assert kernel_basis(M([[1, 1], [0, 1]])).dim == 0
    assert kernel_basis(Matrix.zeros(QQ, 2, 3)).dim == 3


def test_image_cases():
    img = image_basis(M([[1, 0], [1, 0]]))
    assert img.dim == 1 and img.contains_matrix(M([[1], [1]]))
    assert image_basis(Matrix.zeros(QQ, 2, 2)).dim == 0
    assert image_basis(Matrix.identity(QQ, 3)).dim == 3


def test_solve_identity_and_failure():
    b = M([[1], [2]])
    assert solve(Matrix.identity(QQ, 2), b) == b
    with pytest.raises(NoSolution):
        solve(M([[1], [1]]), M([[1], [2]]))


def test_solve_zeroes_nonpivot():
    x = solve(M([[1, 1]]), M([[3]]))
    assert x == M([[3], [0]])


def test_quotient_and_complement():
    s = Subspace.full(QQ, 2)
    t = image_basis(M([[1], [0]]))
    reps, proj = quotient_basis(s, t)
    assert reps == M([[0], [1]])
    assert proj * reps == Matrix.identity(QQ, 1)
    assert (proj * t.basis).is_zero()
    comp = complement(image_basis(M([[1], [1]])))
    assert comp.basis == M([[0], [1]])


def test_quotient_containment_violation():
    s = image_basis(M([[1], [0]]))
    t = image_basis(M([[0], [1]]))
    with pytest.raises(ContainmentViolation):
        quotient_basis(s, t)


def test_empty_shapes():
    z = Matrix.zeros(QQ, 0, 3)
    assert kernel_basis(z).dim == 3
    assert rank(z) == 0
    z2 = Matrix.zeros(QQ, 3, 0)
    assert kernel_basis(z2).dim == 0
    assert solve(z2, Matrix.zeros(QQ, 3, 2)).cols == 2
    assert hstack([z2, Matrix.identity(QQ, 3)]).cols == 3
    assert vstack([z, Matrix.zeros(QQ, 2, 3)]).rows == 2


def test_block_diag():
    b = block_diag(QQ, [Matrix.identity(QQ, 1), M([[2, 0], [0, 3]])])
    assert b == M([[1, 0, 0], [0, 2, 0], [0, 0, 3]])


def test_place_blocks_at_offsets():
    a, b = M([[1, 2], [3, 4]]), M([[5]])
    out = place_blocks(QQ, 3, 4, [(1, 2, a), (0, 0, b)])
    assert out == M([[5, 0, 0, 0], [0, 0, 1, 2], [0, 0, 3, 4]])
    assert place_blocks(QQ, 2, 0, []) == Matrix.zeros(QQ, 2, 0)


def rand_matrix(rng, rows, cols):
    return Matrix.from_rows(QQ, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], cols=cols)


def test_rank_nullity_randomized():
    rng = random.Random(11)
    for _ in range(25):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        m = rand_matrix(rng, r, c)
        assert rank(m) + kernel_basis(m).dim == c


def test_solve_roundtrip_randomized():
    rng = random.Random(5)
    for _ in range(25):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, r, c)
        x = rand_matrix(rng, c, 1)
        x2 = solve(m, m * x)
        assert m * x2 == m * x


small_ints = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_idempotent(rows):
    m = Matrix.from_rows(QQ, rows)
    red, _ = rref(m)
    assert rref(red)[0] == red


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=2, max_size=3),
    st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=2, max_size=3),
)
def test_sum_contains_both(rows_a, rows_b):
    a = image_basis(Matrix.from_rows(QQ, rows_a).transpose())
    b = image_basis(Matrix.from_rows(QQ, rows_b).transpose())
    s = a.sum(b)
    assert s.contains(a) and s.contains(b)
    i = intersect(a, b)
    assert a.contains(i) and b.contains(i)
    assert s.dim + i.dim == a.dim + b.dim


def test_prime_field_roundtrip():
    fp = field_from_name("fp:10007")
    m = Matrix.from_rows(fp, [[1, 2], [3, 4]])
    assert rank(m) == 2
    x = solve(m, Matrix.from_rows(fp, [[1], [0]]))
    assert m * x == Matrix.from_rows(fp, [[1], [0]])
    # elements are bare ints, so products go through 1x1 matrices, which reduce mod p
    half = Matrix.from_rows(fp, [[fp.parse("1/2")]])
    assert half * Matrix.from_rows(fp, [[2]]) == Matrix.identity(fp, 1)


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 1 has 1 entries, not 2"):
        Matrix.from_rows(QQ, [[1, 2], [3]])
    with pytest.raises(ValueError, match="row 2 has 3 entries, not 2"):
        Matrix.from_rows(QQ, [[1, 2], [3, 4], [5, 6, 7]])
    with pytest.raises(ValueError, match="cols does not match row length"):
        Matrix.from_rows(QQ, [[1, 2]], cols=3)


def test_from_rows_reduces_entries_into_the_field():
    gf7 = PrimeField(7)
    m = Matrix.from_rows(gf7, [[8, 7, -1], [14, 0, 21]])
    assert m.to_str_rows() == [["1", "0", "6"], ["0", "0", "0"]]
    assert m == Matrix.from_rows(gf7, [[1, 0, 6], [0, 0, 0]])
    assert m.rows_slice([1]).is_zero()
    assert Matrix.from_rows(QQ, [[0, 2]]).data == [[0, 2]]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
def test_parse_accepts_only_n_and_n_over_d(field):
    quarter = Matrix.from_rows(field, [[field.parse("-3/4")]])
    assert quarter * Matrix.from_rows(field, [[4]]) == Matrix.from_rows(field, [[-3]])
    assert field.parse("+2") == field.parse(2) == field.from_int(2)
    for bad in ["0.5", "1e3", "1/0", "1/-2", " 3", "1_000", "", "3/", "/3", "0x10", "True"]:
        with pytest.raises(ValueError):
            field.parse(bad)


def test_integral_rationals_are_bare_ints():
    integral = [QQ.zero(), QQ.one(), QQ.from_int(3), QQ.from_int(Fraction(6, 2)), QQ.from_int(True),
                QQ.parse("4/2"), QQ.parse("-3"), QQ.inv(1), QQ.inv(-1), QQ.inv(Fraction(-1)),
                QQ.inv(Fraction(1, 3))]
    assert [type(x) for x in integral] == [int] * len(integral)
    assert integral == [0, 1, 3, 3, 1, 2, -3, 1, -1, -1, 3]
    for x, want in ((QQ.parse("1/2"), Fraction(1, 2)), (QQ.inv(3), Fraction(1, 3)),
                    (QQ.inv(Fraction(-2, 3)), Fraction(-3, 2)), (QQ.from_int(Fraction(4, 6)), Fraction(2, 3))):
        assert type(x) is Fraction and x == want


def test_integral_fraction_entry_is_the_int_entry():
    # a kernel may leave an integral entry as a Fraction: 1/2 * 4 is Fraction(2)
    m = Matrix.from_rows(QQ, [[Fraction(1, 2), 0]]) * Matrix.from_rows(QQ, [[4, 1], [0, 1]])
    two = Matrix.from_rows(QQ, [[2, Fraction(1, 2)]])
    assert type(m.data[0][0]) is Fraction and type(two.data[0][0]) is int
    assert m == two and two == m
    assert m.to_str_rows() == two.to_str_rows() == [["2", "1/2"]] and repr(m) == repr(two)
    assert (m - two).is_zero() and rref(m) == rref(two)


def test_quotient_projection_kills_complement_of_s():
    s = image_basis(M([[1, 0], [0, 1], [0, 0]]))
    t = image_basis(M([[1], [1], [0]]))
    reps, proj = quotient_basis(s, t)
    assert proj.rows == 1
    # proj is a left inverse of the representative inclusion
    assert proj * reps == Matrix.identity(QQ, 1)
    assert (proj * t.basis).is_zero()
