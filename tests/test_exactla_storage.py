"""The storage invariant of exactla's sparse rows, on every kind of result.

A matrix stores, per row, only its nonzero entries as {column: entry}, with
every column below `cols`; over QQ an entry is an int or a `Fraction`
(never a float or a bool), over GF(p) an int in [1, p).  So
`==` may compare the stored entries, and it must agree with comparing the
printed matrices.  `data` is the dense view that `to_str_rows` prints.
Entries are drawn mostly zero over QQ, GF(2) and GF(3), where sums cancel
often.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from possheaf.exactla import (
    QQ,
    Matrix,
    NoSolution,
    PrimeField,
    Subspace,
    hstack,
    kernel_basis,
    kron,
    place_blocks,
    quotient_basis,
    rref,
    solve,
    vstack,
)

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, 3])
DIMS = st.integers(min_value=0, max_value=4)


def matrices(draw, field, rows=None, cols=None):
    rows = draw(DIMS) if rows is None else rows
    cols = draw(DIMS) if cols is None else cols
    data = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if field is QQ and draw(st.booleans()):
        data = [[Fraction(x, 2) for x in row] for row in data]
    return Matrix.from_rows(field, data, cols)


def check_stored(m):
    """m stores no zero and no column outside its shape, and data is what it prints."""
    assert len(m._nz) == m.rows
    for row in m._nz:
        for j, x in row.items():
            assert 0 <= j < m.cols and x
            if m.field is QQ:
                assert type(x) is int or type(x) is Fraction   # never a float or a bool
            else:
                assert type(x) is int and 0 < x < m.field.p
    dense = m.data
    assert len(dense) == m.rows and all(len(row) == m.cols for row in dense)
    assert [[m.field.fmt(x) for x in row] for row in dense] == m.to_str_rows()


def results(draw, field):
    """Named results of every operation on drawn operands."""
    a = matrices(draw, field)
    b = matrices(draw, field, a.rows, a.cols)
    c = matrices(draw, field, rows=a.cols)
    scalar = field.from_int(draw(ENTRIES))
    out = {
        "a": a, "b": b,
        "a*c": a * c, "a+b": a + b, "b+a": b + a, "a-b": a - b, "a-a": a - a, "-a": -a,
        "a+(-a)": a + (-a), "a*scalar": a * scalar, "scale": a.scale(scalar),
        "kron": kron(a, c), "transpose": a.transpose(), "transpose2": a.transpose().transpose(),
        "hstack": hstack([a, b]), "vstack": vstack([a, b]),
        "place_blocks": place_blocks(field, a.rows + c.rows, a.cols + c.cols,
                                     [(0, 0, a), (a.rows, a.cols, c)]),
        "rows_slice": a.rows_slice(range(a.rows - 1, -1, -1)),
        "cols_slice": a.cols_slice([j for j in range(a.cols) if j % 2] + [0] * bool(a.cols)),
        "reshape": a.reshape(a.cols, a.rows),
        "rref": rref(a)[0], "rref(a-b)": rref(a - b)[0],
        "kernel": kernel_basis(a).basis, "image": Subspace.from_columns(a).basis,
    }
    for name, rhs in (("solve", b), ("solve_in_image", a * c)):
        try:
            out[name] = solve(a, rhs)
        except NoSolution:
            pass
    s, t = Subspace.from_columns(a), Subspace.from_columns(a * c)   # t lies in s
    out["quotient_reps"], out["quotient_proj"] = quotient_basis(s, t)
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_result_keeps_the_storage_invariant(data):
    field = data.draw(st.sampled_from(FIELDS))
    out = results(data.draw, field)
    for m in out.values():
        check_stored(m)
    mats = list(out.values())
    for x in mats:
        for y in mats:
            if (x.rows, x.cols) == (y.rows, y.cols):
                assert (x == y) == (x.to_str_rows() == y.to_str_rows())
    assert out["a-a"].is_zero() and out["a+(-a)"].is_zero()
    assert out["a+b"] == out["b+a"] and out["transpose2"] == out["a"]


@pytest.mark.parametrize("block", [
    (0, 1, Matrix.identity(QQ, 2)),    # one column too far right
    (1, 0, Matrix.identity(QQ, 2)),    # one row too far down
    (0, 1, 2),                          # the same, as an identity given by its size
    (1, 0, 2),
    (-1, 0, 1),                         # above the first row
    (0, 0, Matrix.zeros(QQ, 3, 0)),     # an empty block with too many rows
])
def test_place_blocks_rejects_a_block_that_does_not_fit(block):
    with pytest.raises(ValueError, match="does not fit in 2x2"):
        place_blocks(QQ, 2, 2, [block])


def test_place_blocks_takes_blocks_that_fit_up_to_the_edge():
    m = place_blocks(QQ, 2, 3, [(0, 1, Matrix.identity(QQ, 2)), (2, 3, 0), (0, 0, Matrix.zeros(QQ, 2, 1))])
    check_stored(m)
    assert m.to_str_rows() == [["0", "1", "0"], ["0", "0", "1"]]
    assert m == place_blocks(QQ, 2, 3, [(0, 1, 2)])
