"""Differential tests of the four kernels exactla keeps in a field's memo.

`rank`, `kernel_basis`, `image_basis` and `cokernel_basis` look their
result up in a memo on the field object, keyed by the operand's value.  A
hit must give what a fresh computation gives: each drawn matrix is reduced
over a field with an empty memo and compared with the dense oracle, then
equal copies and other matrices of the same shape are reduced again over
the same field, where the memo answers.  Equal operands over two field
objects of one characteristic each get results over their own field.
Pivot lists belong to the caller, two commands never share a memo, and a
field made directly, not by `field_from_name` (`QQ` among them), keeps none.
"""

import os

from hypothesis import given, settings, strategies as st

import dense_oracle as oracle
import possheaf.cli as cli
import possheaf.instancefile as instancefile
from possheaf.exactla import (
    QQ,
    Matrix,
    PrimeField,
    RationalField,
    cokernel_basis,
    field_from_name,
    image_basis,
    kernel_basis,
    rank,
)
from test_exactla_oracle import full_oracle_quotient, matrices, run, same

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "instances")
CHARACTERISTICS = [0, 32003, 3, 2]


def new_field(p):
    """A field object of characteristic p with an empty memo."""
    return field_from_name("fp:%d" % p if p else "q")


def copy_of(m, field=None):
    """A matrix equal to m, built afresh (over field, if given), so nothing is cached on it."""
    return Matrix.from_rows(field or m.field, m.data, m.cols)


def kernels(m):
    """What the four memoized kernels say of m, as comparable values."""
    ker, img = kernel_basis(m), image_basis(m)
    return rank(m), (ker.basis, ker.pivots), (img.basis, img.pivots), cokernel_basis(m)


def same_kernels(a, b):
    (ra, ka, ia, ca), (rb, kb, ib, cb) = a, b
    return (ra == rb and ka[1] == kb[1] and ia[1] == ib[1]
            and all(same(x, y) for x, y in ((ka[0], kb[0]), (ia[0], ib[0]),
                                             (ca[0], cb[0]), (ca[1], cb[1]))))


def oracle_kernels(m):
    field = m.field
    _, pivots, _ = run(field, oracle.rref, m)
    return (len(pivots), run(field, oracle.kernel_basis, m), run(field, oracle.from_columns, m),
            full_oracle_quotient(field, m))


@st.composite
def same_shape_batches(draw):
    """A field of a drawn characteristic and 2-4 matrices of one shape, some equal."""
    field = new_field(draw(st.sampled_from(CHARACTERISTICS)))
    first = draw(matrices(field))
    batch = [first]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            batch.append(copy_of(draw(st.sampled_from(batch))))
        else:
            batch.append(draw(matrices(field, first.rows, first.cols)))
    return field, batch


@settings(max_examples=150, deadline=None)
@given(same_shape_batches())
def test_memoized_kernels_match_fresh_results_and_oracle(fb):
    field, batch = fb
    for m in batch + [copy_of(m) for m in batch]:     # the copies are answered by the memo
        got = kernels(m)
        assert same_kernels(got, kernels(copy_of(m, new_field(field.p))))
        assert same_kernels(got, oracle_kernels(m))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_equal_operands_over_two_fields_of_one_characteristic(data):
    p = data.draw(st.sampled_from(CHARACTERISTICS))
    one, two = new_field(p), new_field(p)
    m = data.draw(matrices(one))
    kernels(m)
    twin = copy_of(m, two)
    got = kernels(twin)
    assert same_kernels(got, kernels(m))
    _, (kb, _), (ib, _), (reps, proj) = got
    for x in (kb, ib, reps, proj):
        assert x.field is two
        if not (x.rows and x.cols):
            assert x is Matrix.zeros(two, x.rows, x.cols)
    assert all(key[1].field is two for key in two._memo)
    assert all(key[1].field is one for key in one._memo)


def test_two_commands_never_share_a_memo(monkeypatch, capsys):
    made = []

    def recording(name, make=cli.field_from_name):
        made.append(make(name))
        return made[-1]

    monkeypatch.setattr(cli, "field_from_name", recording)
    monkeypatch.setattr(instancefile, "field_from_name", recording)
    path = os.path.join(FIXTURES, "pseudocircle.json")
    runs = []
    for argv in (["verify-main", path, "--map", "collapse", "--sequence", "S"],
                 ["--field", "fp:32003", "verify-main", path, "--map", "collapse", "--sequence", "S"],
                 ["verify-main", path, "--map", "collapse", "--sequence", "S"]):
        start = len(made)
        assert cli.main(argv) == 0
        fields = [f for f in made[start:] if f._memo]
        assert fields, "a command computed over a field the CLI did not make"
        runs.append([(f, len(f._memo)) for f in fields])
    capsys.readouterr()
    memos = [id(f._memo) for fields in runs for f, _ in fields]
    assert len(set(memos)) == len(memos)
    for fields in runs[:-1]:        # later commands left earlier memos as they were
        assert [len(f._memo) for f, _ in fields] == [size for _, size in fields]


def test_fields_made_directly_keep_no_memo():
    """QQ lives as long as the process, so it and every field made directly keep nothing."""
    for field in (QQ, RationalField(), PrimeField(7)):
        m = Matrix.from_rows(field, [[1, 2, 3], [2, 4, 6]])
        assert same_kernels(kernels(m), kernels(copy_of(m, new_field(field.p))))
        assert same_kernels(kernels(copy_of(m)), kernels(m))
        assert field._memo is None
