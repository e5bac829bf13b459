"""Differential tests of the operands exactla answers for with no work.

A matrix with no rows or no columns is one shared empty matrix per field
and shape.  `Matrix.zeros`, `Matrix.identity(F, 0)`, products, sums,
multiples, transposes, slices, `place_blocks`, `rref`, `solve` of an rhs
with no columns and `Subspace.from_columns` hand it out, and so do
`kernel_basis`, `cokernel_basis` and `quotient_basis` for each result with no
rows or no columns.  And `rref` reads
the reduced form of a matrix whose rows each hold at most one entry, in
distinct columns, straight off.  Each is compared with the dense kernel in
`dense_oracle.py` and with `rref` by elimination, frozen in
`engine_oracle.py`, over QQ, GF(32003), GF(3) and GF(2).  Shared rows and
matrices must stay as they were, so every operand is compared with a copy
taken before, pivot lists belong to the caller (memo hits included), and after whole commands
every cached empty matrix still holds no entry.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle as oracle
import engine_oracle
import possheaf.cli as cli
from possheaf.exactla import (
    QQ,
    Matrix,
    Subspace,
    cokernel_basis,
    field_from_name,
    image_basis,
    kernel_basis,
    place_blocks,
    quotient_basis,
    rank,
    rref,
    solve,
    vstack,
)
from test_exactla_oracle import FIELDS, full_oracle_quotient, matrices, outcome, run, same, same_outcome
from test_identity_paths import snapshot

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "instances")
DIMS = st.integers(min_value=0, max_value=5)


@st.composite
def empty_shapes(draw):
    n = draw(st.integers(1, 5))
    return draw(st.sampled_from([(0, 0), (0, n), (n, 0)]))


def zero_matrix(field, rows, cols):
    """A rows x cols zero matrix built entry by entry, not the shared one."""
    return Matrix.from_rows(field, [[0] * cols for _ in range(rows)], cols)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_empty_operands_match_oracle(data):
    field = data.draw(st.sampled_from(FIELDS))
    r, c = data.draw(empty_shapes())
    z = Matrix.zeros(field, r, c)
    assert z is Matrix.zeros(field, r, c) and same(z, zero_matrix(field, r, c))
    assert Matrix.identity(field, 0) is Matrix.zeros(field, 0, 0)
    k = data.draw(DIMS)
    a, b = data.draw(matrices(field, k, r)), data.draw(matrices(field, c, k))
    operands = [snapshot(x) for x in (a, b)]
    for x, y in ((a, z), (z, b), (a, Matrix.zeros(field, r, k)), (Matrix.zeros(field, k, c), b)):
        assert same(x * y, run(field, oracle.matmul, x, y))
    assert (z + z) is z and (z - z) is z and z.scale(field.from_int(2)) is z and (-z) is z
    assert z.transpose() is Matrix.zeros(field, c, r)
    m = data.draw(matrices(field))
    assert same(m.rows_slice([]), zero_matrix(field, 0, m.cols))
    assert same(m.cols_slice([]), zero_matrix(field, m.rows, 0))
    assert same(m.transpose().rows_slice([]), m.cols_slice([]).transpose())
    blocks = [(0, 0, 0), (0, 0, Matrix.zeros(field, r, 0)), (0, 0, Matrix.zeros(field, 0, c))]
    assert place_blocks(field, r, c, blocks) is z
    with pytest.raises(ValueError):
        place_blocks(field, r, c, [(0, 0, 1)])

    red, pivots = rref(z)
    frozen, frozen_pivots = engine_oracle.rref(z)
    ored, opivots, _ = run(field, oracle.rref, z)
    assert same(red, frozen) and same(red, ored) and pivots == frozen_pivots == opivots == []
    assert rank(z) == 0
    ker = kernel_basis(z)
    assert (same(ker.basis, run(field, oracle.kernel_basis, z)[0])
            and ker.pivots == list(range(c)))
    img = Subspace.from_columns(z)
    obasis, opivots = run(field, oracle.from_columns, z)
    assert same(img.basis, obasis) and img.pivots == opivots == []
    got, want = cokernel_basis(z), full_oracle_quotient(field, z)
    assert same(got[0], want[0]) and same(got[1], want[1])

    # an rhs with no columns, and an m with no columns (NoSolution names a column)
    rhs = Matrix.zeros(field, m.rows, 0)
    assert same_outcome(outcome(solve, m, rhs), outcome(run, field, oracle.solve, m, rhs))
    m0 = Matrix.zeros(field, data.draw(DIMS), 0)
    rhs = data.draw(matrices(field, rows=m0.rows))
    assert same_outcome(outcome(solve, m0, rhs), outcome(run, field, oracle.solve, m0, rhs))
    assert a == operands[0] and b == operands[1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_and_quotients_hand_out_the_shared_empty(data):
    field = data.draw(st.sampled_from(FIELDS))
    m = data.draw(matrices(field))
    if data.draw(st.booleans()):        # full column rank: no kernel
        m = vstack([Matrix.identity(field, m.cols), m])
    s = Subspace.from_columns(m)
    t = Subspace.from_columns(s.basis * data.draw(matrices(field, rows=s.dim)))
    results = [kernel_basis(m).basis, *cokernel_basis(m), *quotient_basis(s, t)]
    for x in results:
        if not (x.rows and x.cols):
            assert x is Matrix.zeros(field, x.rows, x.cols)


@st.composite
def one_entry_rows(draw):
    """A matrix whose rows are empty or hold one entry (1, 2, -1 or 3), rows shuffled.

    The entries lie in distinct columns, unless a row repeating a column is
    added, when the matrix must be eliminated.  Over GF(2) an entry 2 is an
    empty row.
    """
    field = draw(st.sampled_from(FIELDS))
    cols = draw(st.integers(1, 6))
    placed = draw(st.permutations(range(cols)))[:draw(st.integers(0, cols))]
    if placed and draw(st.booleans()):
        placed.append(draw(st.sampled_from(placed)))     # a repeated column
    rows = []
    for col in placed:
        row = [0] * cols
        row[col] = draw(st.sampled_from([1, 1, 2, -1, 3]))
        rows.append(row)
    rows += [[0] * cols for _ in range(draw(st.integers(0, 3)))]
    m = Matrix.from_rows(field, rows, cols)
    return field, m.rows_slice(draw(st.permutations(range(m.rows))))


@settings(max_examples=300, deadline=None)
@given(one_entry_rows())
def test_one_entry_rows_match_frozen_rref_and_oracle(fm):
    field, m = fm
    before = snapshot(m)
    red, pivots = rref(m)
    frozen, frozen_pivots = engine_oracle.rref(m)
    ored, opivots, _ = run(field, oracle.rref, m)
    assert same(red, frozen) and same(red, ored) and pivots == frozen_pivots == opivots
    assert rank(m) == len(opivots)
    ker = kernel_basis(m)
    obasis, opivots = run(field, oracle.kernel_basis, m)
    assert same(ker.basis, obasis) and ker.pivots == opivots
    for gens in (m, m.transpose()):
        img = Subspace.from_columns(gens)
        obasis, opivots = run(field, oracle.from_columns, gens)
        assert same(img.basis, obasis) and img.pivots == opivots
        got, want = cokernel_basis(gens), full_oracle_quotient(field, gens)
        assert same(got[0], want[0]) and same(got[1], want[1])
    assert m == before


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("rows", [
    [[0, 0], [0, 0]],                     # no row holds an entry
    [[0, 0, 2], [0, 0, 0], [5, 0, 0]],    # one-entry rows, read off
    [[1, 0], [3, 0]],                     # a repeated column, eliminated
    [[1, 2], [0, 1]],                     # a row of two entries, eliminated
], ids=["zero", "one-entry", "repeated", "general"])
def test_pivots_belong_to_the_caller(field, rows):
    for m in (Matrix.from_rows(field, rows), Matrix.zeros(field, 0, 3), Matrix.zeros(field, 3, 0)):
        red, pivots = rref(m)
        want = list(pivots)
        pivots.append(99)
        assert rref(m)[1] == want
        s = Subspace.from_columns(m)
        s.pivots.append(99)
        assert Subspace.from_columns(m).pivots == engine_oracle.rref(m.transpose())[1]
    for f in (field, field_from_name(field.name)):      # no memo, then one with hits
        for m in (Matrix.from_rows(f, rows), Matrix.zeros(f, 0, 3), Matrix.zeros(f, 3, 0)):
            for memoized in (kernel_basis, image_basis):
                s = memoized(m)
                want = list(s.pivots)
                s.pivots.append(99)
                assert memoized(m).pivots == want


def test_commands_leave_every_shared_empty_matrix_empty(monkeypatch, capsys):
    fields = [QQ]
    make = cli.field_from_name

    def recording(name):
        fields.append(make(name))
        return fields[-1]

    monkeypatch.setattr(cli, "field_from_name", recording)
    assert cli.main(["selftest", "--seed", "7", "--count", "3"]) == 0
    for fixture, fmap in (("pseudocircle", "collapse"), ("torus", "pr1")):
        path = os.path.join(FIXTURES, fixture + ".json")
        for field in ("q", "fp:32003"):
            assert cli.main(["--field", field, "verify-main", path, "--map", fmap, "--sequence", "S"]) == 0
    capsys.readouterr()
    # the CLI makes a field to check --field, then a new one it computes over
    assert any(f._empties for f in fields[1:]) and all(f is not QQ for f in fields[1:])
    for f in fields:
        for (r, c), m in f._empties.items():
            assert not (r and c) and (m.field, m.rows, m.cols) == (f, r, c)
            assert len(m._nz) == r and not any(m._nz) and m._rank in (None, 0)
        assert Matrix.zeros(f, 0, 3) is Matrix.zeros(f, 0, 3)
