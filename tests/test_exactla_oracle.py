"""Differential tests: the zero-skipping exact kernel against the frozen dense one.

Every result is compared exactly (equal matrices, equal printed entries,
equal pivots, equal NoSolution messages) over QQ, GF(32003) and GF(3).
Entries are drawn mostly zero, and the small prime makes cancellations
common, so the zero-skipping paths and their fill-in are exercised.
"""

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle as oracle
from possheaf.exactla import (
    QQ,
    ContainmentViolation,
    Matrix,
    NoSolution,
    PrimeField,
    Subspace,
    kernel_basis,
    quotient_basis,
    rank,
    rref,
    solve,
)

FIELDS = [QQ, PrimeField(32003), PrimeField(3)]
ENTRIES = st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 2, -2, 3, 5, 7])
DIMS = st.integers(min_value=0, max_value=6)


@st.composite
def matrices(draw, field, rows=None, cols=None):
    rows = draw(DIMS) if rows is None else rows
    cols = draw(DIMS) if cols is None else cols
    data = [[field.from_int(draw(ENTRIES)) for _ in range(cols)] for _ in range(rows)]
    if field is QQ and draw(st.booleans()):
        den = field.from_int(draw(st.sampled_from([2, 3, 6])))
        data = [[x / den for x in row] for row in data]
    return Matrix(field, rows, cols, data)


@st.composite
def field_and_matrix(draw):
    field = draw(st.sampled_from(FIELDS))
    return field, draw(matrices(field))


def same(a, b):
    """Exactly the same matrix, down to the printed entries."""
    return (a.rows, a.cols) == (b.rows, b.cols) and a == b and a.to_str_rows() == b.to_str_rows()


def outcome(fn, *args):
    """A function's result, or the message of the NoSolution it raised."""
    try:
        return fn(*args)
    except NoSolution as exc:
        return "NoSolution: %s" % exc


def same_outcome(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return same(a, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_matches_oracle(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(matrices(field))
    b = data.draw(matrices(field, rows=a.cols))
    assert same(a * b, oracle.matmul(a, b))


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_rref_matches_oracle(fm):
    _, m = fm
    red, pivots = rref(m)
    ored, opivots, t = oracle.rref(m)
    assert same(red, ored) and pivots == opivots
    assert same(oracle.matmul(t, m), red)
    assert rank(m) == len(opivots)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_matches_oracle(data):
    field = data.draw(st.sampled_from(FIELDS))
    m = data.draw(matrices(field))
    if data.draw(st.booleans()):
        rhs = data.draw(matrices(field, rows=m.rows))           # often not in the image
    else:
        rhs = m * data.draw(matrices(field, rows=m.cols))       # always in the image
    assert same_outcome(outcome(solve, m, rhs), outcome(oracle.solve, m, rhs))


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_kernel_and_image_bases_match_oracle(fm):
    _, m = fm
    ker = kernel_basis(m)
    obasis, opivots = oracle.kernel_basis(m)
    assert same(ker.basis, obasis) and ker.pivots == opivots
    img = Subspace.from_columns(m)
    obasis, opivots = oracle.from_columns(m)
    assert same(img.basis, obasis) and img.pivots == opivots


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quotient_basis_matches_oracle(data):
    field = data.draw(st.sampled_from(FIELDS))
    s_gens = data.draw(matrices(field))
    t_gens = s_gens * data.draw(matrices(field, rows=s_gens.cols))
    if data.draw(st.booleans()):   # t not always inside s
        t_gens = data.draw(matrices(field, rows=s_gens.rows))
    s, t = Subspace.from_columns(s_gens), Subspace.from_columns(t_gens)
    os_, ot = oracle.from_columns(s_gens), oracle.from_columns(t_gens)
    try:
        got = quotient_basis(s, t)
    except ContainmentViolation:
        with pytest.raises(ContainmentViolation):
            oracle.quotient_basis(os_, ot)
        return
    reps, proj = oracle.quotient_basis(os_, ot)
    assert same(got[0], reps) and same(got[1], proj)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coords_of_matches_oracle(data):
    field = data.draw(st.sampled_from(FIELDS))
    gens = data.draw(matrices(field))
    s = Subspace.from_columns(gens)
    member = gens * data.draw(matrices(field, rows=gens.cols))
    other = data.draw(matrices(field, rows=gens.rows))     # often a non-member
    for vecs in (member, other):
        assert same_outcome(outcome(s.coords_of, vecs), outcome(oracle.coords_of, s.basis, vecs))
    assert s.contains_matrix(member)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 4), (4, 0), (3, 5), (5, 3)])
def test_empty_and_zero_shapes(field, rows, cols):
    z = Matrix.zeros(field, rows, cols)
    assert same(rref(z)[0], oracle.rref(z)[0]) and rref(z)[1] == []
    assert same(z * Matrix.zeros(field, cols, 2), oracle.matmul(z, Matrix.zeros(field, cols, 2)))
    assert same(Matrix.zeros(field, 2, rows) * z, oracle.matmul(Matrix.zeros(field, 2, rows), z))
    rhs = Matrix.zeros(field, rows, 3)
    assert same(solve(z, rhs), oracle.solve(z, rhs))
    ker = kernel_basis(z)
    assert same(ker.basis, oracle.kernel_basis(z)[0]) and ker.dim == cols
    s = Subspace.zero(field, rows)
    assert same(s.coords_of(rhs), oracle.coords_of(s.basis, rhs))
    if rows:
        one = Matrix.from_int_rows(field, [[1]] + [[0]] * (rows - 1))
        assert outcome(s.coords_of, one) == outcome(oracle.coords_of, s.basis, one)
        full = Subspace.full(field, rows)
        got = quotient_basis(full, s)
        want = oracle.quotient_basis((full.basis, full.pivots), (s.basis, s.pivots))
        assert same(got[0], want[0]) and same(got[1], want[1])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_non_member_names_first_bad_column(field):
    s = Subspace.from_columns(Matrix.from_int_rows(field, [[1], [1], [0]]))
    vecs = Matrix.from_int_rows(field, [[2, 1, 0], [2, 0, 0], [0, 0, 1]])
    with pytest.raises(NoSolution, match="column 1"):
        s.coords_of(vecs)
    with pytest.raises(NoSolution, match="column 1"):
        oracle.coords_of(s.basis, vecs)
