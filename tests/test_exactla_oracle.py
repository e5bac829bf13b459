"""Differential tests: the sparse exact kernel against the frozen dense one.

Every result is compared exactly (equal matrices, equal printed entries,
equal pivots, equal NoSolution messages) over QQ, GF(32003), GF(3) and
GF(2).  Entries are drawn mostly zero, and the small primes make
cancellations common, so the sparse paths, their fill-in and the entries
they drop are exercised.  `run` hands the oracle dense copies of engine
matrices (QQ entries as `Fraction`s, GF(p) entries as its `FpElement`s)
and turns the dense matrices it returns back into engine matrices.
The contexts' image epimorphisms are checked against the oracle's solve.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle as oracle
from engine_oracle import VectorSpaces
from possheaf.exactla import (
    QQ,
    ContainmentViolation,
    Matrix,
    NoSolution,
    PrimeField,
    Subspace,
    cokernel_basis,
    hstack,
    kernel_basis,
    quotient_basis,
    rank,
    rref,
    solve,
)
from possheaf.forge import GenConfig, gen_poset, gen_ses_sheaves

FIELDS = [QQ, PrimeField(32003), PrimeField(3), PrimeField(2)]
ENTRIES = st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 2, -2, 3, 5, 7])
DIMS = st.integers(min_value=0, max_value=6)


@st.composite
def matrices(draw, field, rows=None, cols=None):
    rows = draw(DIMS) if rows is None else rows
    cols = draw(DIMS) if cols is None else cols
    data = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if not field.p and draw(st.booleans()):
        den = draw(st.sampled_from([2, 3, 6]))
        data = [[Fraction(x, den) for x in row] for row in data]
    return Matrix.from_rows(field, data, cols)


@st.composite
def field_and_matrix(draw):
    field = draw(st.sampled_from(FIELDS))
    return field, draw(matrices(field))


def dense(m):
    """The oracle's dense copy of an engine matrix."""
    if not m.field.p:
        return oracle.Matrix(oracle.RationalField(), m.rows, m.cols,
                             [[Fraction(x) for x in row] for row in m.data])
    field = oracle.PrimeField(m.field.p)
    return oracle.Matrix(field, m.rows, m.cols,
                         [[oracle.FpElement(x, field.p) for x in row] for row in m.data])


def engine(field, d):
    """The engine matrix over field with the entries of the oracle's dense d."""
    return Matrix.from_rows(field, [[getattr(x, "val", x) for x in row] for row in d.data], d.cols)


def _convert(x, conv):
    """x with conv applied to it, or to each item if it is a tuple."""
    return tuple(conv(y) for y in x) if isinstance(x, tuple) else conv(x)


def run(field, fn, *args):
    """fn of the dense oracle on engine matrices, its matrices converted back.

    An argument is a matrix, a (basis, pivots) pair or anything else, which
    is passed as it is; so is a result.
    """
    args = [_convert(a, lambda y: dense(y) if isinstance(y, Matrix) else y) for a in args]
    return _convert(fn(*args), lambda y: engine(field, y) if isinstance(y, oracle.Matrix) else y)


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
    assert same(a * b, run(field, oracle.matmul, a, b))


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_rref_matches_oracle(fm):
    field, m = fm
    red, pivots = rref(m)
    ored, opivots, t = run(field, oracle.rref, m)
    assert same(red, ored) and pivots == opivots
    assert same(run(field, oracle.matmul, t, m), red)
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
    assert same_outcome(outcome(solve, m, rhs), outcome(run, field, oracle.solve, m, rhs))


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_kernel_and_image_bases_match_oracle(fm):
    field, m = fm
    ker = kernel_basis(m)
    obasis, opivots = run(field, oracle.kernel_basis, m)
    assert same(ker.basis, obasis) and ker.pivots == opivots
    img = Subspace.from_columns(m)
    obasis, opivots = run(field, oracle.from_columns, m)
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
    os_, ot = run(field, oracle.from_columns, s_gens), run(field, oracle.from_columns, t_gens)
    try:
        got = quotient_basis(s, t)
    except ContainmentViolation:
        with pytest.raises(ContainmentViolation):
            run(field, oracle.quotient_basis, os_, ot)
        return
    reps, proj = run(field, oracle.quotient_basis, os_, ot)
    assert same(got[0], reps) and same(got[1], proj)


def full_oracle_quotient(field, m):
    """The oracle's (reps, proj) for k^m.rows over the column span of m."""
    full = (Matrix.identity(field, m.rows), list(range(m.rows)))
    return run(field, oracle.quotient_basis, full, run(field, oracle.from_columns, m))


@st.composite
def cokernel_inputs(draw):
    """A matrix that is random, zero, onto (an empty quotient) or has repeated columns."""
    field = draw(st.sampled_from(FIELDS))
    m = draw(matrices(field))
    kind = draw(st.sampled_from(["random", "zero", "onto", "repeated"]))
    if kind == "zero":
        m = Matrix.zeros(field, m.rows, m.cols)
    elif kind == "onto":
        onto = hstack([m, Matrix.identity(field, m.rows)])
        m = onto.cols_slice(draw(st.permutations(range(onto.cols))))
    elif kind == "repeated" and m.cols:
        m = m.cols_slice(draw(st.lists(st.integers(0, m.cols - 1), min_size=1, max_size=8)))
    return field, m


@settings(max_examples=200, deadline=None)
@given(cokernel_inputs())
def test_cokernel_basis_matches_oracle(fm):
    field, m = fm
    reps, proj = cokernel_basis(m)
    want_reps, want_proj = full_oracle_quotient(field, m)
    assert same(reps, want_reps) and same(proj, want_proj)


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_vector_image_epi_matches_oracle_solve(fm):
    field, f = fm
    dim, basis, epi = VectorSpaces(field).image(f)
    obasis, _ = run(field, oracle.from_columns, f)
    assert dim == basis.cols and same(basis, obasis)
    assert same(epi, run(field, oracle.solve, basis, f))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(min_value=0, max_value=10**6))
def test_sheaf_image_epi_matches_oracle_solve(field, seed):
    # a mono, an epi, a map with kernel and cokernel, and a zero map
    cfg = GenConfig("image-%d" % seed, max_elements=4, max_stalk_dim=2, field=field)
    ctx, mono, epi = gen_ses_sheaves(cfg.child("ses"), gen_poset(cfg.child("poset")))
    J, into = ctx.injective_embed(epi.target)
    through = ctx.compose(into, epi)
    for f in (mono, epi, through, ctx.zero_map(epi.source, J)):
        _, img, onto = ctx.image(f)
        for i in range(len(ctx.poset)):
            assert same(onto.comps[i], run(field, oracle.solve, img.comps[i], f.comps[i]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coords_of_matches_oracle(data):
    field = data.draw(st.sampled_from(FIELDS))
    gens = data.draw(matrices(field))
    s = Subspace.from_columns(gens)
    member = gens * data.draw(matrices(field, rows=gens.cols))
    other = data.draw(matrices(field, rows=gens.rows))     # often a non-member
    for vecs in (member, other):
        assert same_outcome(outcome(s.coords_of, vecs), outcome(run, field, oracle.coords_of, s.basis, vecs))
    assert s.contains_matrix(member)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 4), (4, 0), (3, 5), (5, 3)])
def test_empty_and_zero_shapes(field, rows, cols):
    z = Matrix.zeros(field, rows, cols)
    assert same(rref(z)[0], run(field, oracle.rref, z)[0]) and rref(z)[1] == []
    assert same(z * Matrix.zeros(field, cols, 2), run(field, oracle.matmul, z, Matrix.zeros(field, cols, 2)))
    assert same(Matrix.zeros(field, 2, rows) * z, run(field, oracle.matmul, Matrix.zeros(field, 2, rows), z))
    rhs = Matrix.zeros(field, rows, 3)
    assert same(solve(z, rhs), run(field, oracle.solve, z, rhs))
    ker = kernel_basis(z)
    assert same(ker.basis, run(field, oracle.kernel_basis, z)[0]) and ker.dim == cols
    s = Subspace.zero(field, rows)
    assert same(s.coords_of(rhs), run(field, oracle.coords_of, s.basis, rhs))
    if rows:
        one = Matrix.from_rows(field, [[1]] + [[0]] * (rows - 1))
        assert outcome(s.coords_of, one) == outcome(run, field, oracle.coords_of, s.basis, one)
        full = Subspace.full(field, rows)
        got = quotient_basis(full, s)
        want = run(field, oracle.quotient_basis, (full.basis, full.pivots), (s.basis, s.pivots))
        assert same(got[0], want[0]) and same(got[1], want[1])
    got, want = cokernel_basis(z), full_oracle_quotient(field, z)
    assert same(got[0], want[0]) and same(got[1], want[1])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_non_member_names_first_bad_column(field):
    s = Subspace.from_columns(Matrix.from_rows(field, [[1], [1], [0]]))
    vecs = Matrix.from_rows(field, [[2, 1, 0], [2, 0, 0], [0, 0, 1]])
    with pytest.raises(NoSolution, match="column 1"):
        s.coords_of(vecs)
    with pytest.raises(NoSolution, match="column 1"):
        run(field, oracle.coords_of, s.basis, vecs)


@st.composite
def column_selections(draw):
    """A matrix and an idx for cols_slice: a range, a permutation, repeats or nothing."""
    field, m = draw(field_and_matrix())
    n = m.cols
    kind = draw(st.sampled_from(["range", "permutation", "repeated", "empty"]))
    if kind == "range":
        lo = draw(st.integers(0, n))
        idx = range(lo, draw(st.integers(lo, n)))
    elif kind == "permutation":
        idx = draw(st.permutations(range(n)))
    elif kind == "repeated" and n:
        idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))
    else:
        idx = []
    return field, m, idx


@settings(max_examples=200, deadline=None)
@given(column_selections())
def test_cols_slice_matches_a_dense_reading(fmi):
    field, m, idx = fmi
    got = m.cols_slice(idx)
    want = Matrix.from_rows(field, [[row[j] for j in idx] for row in m.data], len(idx))
    assert same(got, want)
