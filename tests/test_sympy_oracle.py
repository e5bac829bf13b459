"""sympy as a test-only oracle for rank and RREF over QQ."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from possheaf.exactla import QQ, Matrix, rank, rref

sympy = pytest.importorskip("sympy")

entries = st.fractions(min_value=-3, max_value=3, max_denominator=3) | st.just(Fraction(0))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda cols: st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=6)))
def test_rank_and_rref_agree_with_sympy(rows):
    m = Matrix.from_rows(QQ, [[QQ.parse(str(x)) for x in r] for r in rows])
    red, pivots = rref(m)
    sred, spivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                                  for r in rows]).rref()
    assert pivots == list(spivots)
    assert rank(m) == len(spivots)
    assert red.data == [[Fraction(int(x.p), int(x.q)) for x in sred.row(i)] for i in range(sred.rows)]
