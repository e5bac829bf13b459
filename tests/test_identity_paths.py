"""Differential tests of the paths that read results off identity rows and blocks.

A product shares the right factor's row k for each left row e_k, `solve`
reads its solution off m's identity rows and checks it with one product,
`_extend_matrix` inverts only m's pivot rows, and an `InjectiveSheaf`
writes its composite restrictions as identity blocks.  Each is compared
with a frozen reference: the dense kernel in `dense_oracle.py`, and the
general constructions of an extension (one solve of the whole frame
[m | complement], in `engine_oracle.py`) and of a composite (a plain
`Sheaf` on the same covers composes them path by path).  Shared rows must stay unchanged, so every kernel run
on a product leaves its factors as they were.  Fields are QQ, GF(32003), GF(3) and GF(2); shapes
include 0 x n and n x 0.
"""

import os

from hypothesis import given, settings, strategies as st

import dense_oracle as oracle
from engine_oracle import EagerSheafContext, extend_matrix, injective_cover
from possheaf.exactla import (
    QQ,
    Matrix,
    Subspace,
    _identity_rows,
    cokernel_basis,
    kernel_basis,
    rank,
    rref,
    solve,
    vstack,
)
from possheaf.forge import GenConfig, gen_poset, gen_ses_sheaves, gen_sheaf
from possheaf.homalg import injective_resolution
from possheaf.instancefile import Instance
from possheaf.sheafcat import InjectiveSheaf, Sheaf, SheafContext, _extend_matrix
from test_exactla_oracle import FIELDS, matrices, outcome, run, same, same_outcome

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "instances")
DIMS = st.integers(min_value=0, max_value=6)


def snapshot(m):
    """A copy of m that shares no row with it."""
    return Matrix(m.field, m.rows, m.cols, [dict(r) for r in m._nz])


@st.composite
def selector_rows(draw, field, rows, cols):
    """A rows x cols matrix whose rows are e_k, 2e_k, -e_k, empty or drawn freely."""
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["one", "one", "two", "minus", "empty", "free"]))
        if kind == "empty" or not cols:
            out.append([0] * cols)
        elif kind == "free":
            out.append(draw(matrices(field, 1, cols)).data[0])
        else:
            row = [0] * cols
            row[draw(st.integers(0, cols - 1))] = {"one": 1, "two": 2, "minus": -1}[kind]
            out.append(row)
    return Matrix.from_rows(field, out, cols)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_with_selector_rows_matches_oracle_and_changes_no_factor(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(selector_rows(field, data.draw(DIMS), data.draw(DIMS)))
    b = data.draw(matrices(field, rows=a.cols))
    a0, b0 = snapshot(a), snapshot(b)
    ab = a * b
    assert same(ab, run(field, oracle.matmul, a, b))
    ab0 = snapshot(ab)
    rhs = data.draw(matrices(field, rows=ab.rows))
    rref(ab)
    kernel_basis(ab)
    cokernel_basis(ab)
    outcome(solve, ab, rhs)
    outcome(solve, ab.transpose(), b.transpose())
    assert a == a0 and b == b0 and ab == ab0


def permuted_identity(draw, field, n):
    """n columns, an identity row for each, extra free rows, all rows shuffled."""
    extra = draw(matrices(field, draw(st.integers(0, 3)), n))
    stacked = vstack([Matrix.identity(field, n), extra])
    return stacked.rows_slice(draw(st.permutations(range(stacked.rows))))


@st.composite
def operands_with_identity_rows(draw):
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["basis", "projection", "permuted"]))
    if kind == "basis":
        m = Subspace.from_columns(draw(matrices(field))).basis
    elif kind == "projection":
        m = cokernel_basis(draw(matrices(field)))[1].transpose()
    else:
        m = permuted_identity(draw, field, draw(DIMS))
    if draw(st.booleans()):
        rhs = draw(matrices(field, rows=m.rows))           # often not in the image
    else:
        rhs = m * draw(matrices(field, rows=m.cols))       # always in the image
    return field, m, rhs


@settings(max_examples=300, deadline=None)
@given(operands_with_identity_rows())
def test_solve_off_identity_rows_matches_oracle(fmr):
    field, m, rhs = fmr
    assert _identity_rows(m) is not None
    assert same_outcome(outcome(solve, m, rhs), outcome(run, field, oracle.solve, m, rhs))


@st.composite
def monos(draw):
    """A mono n x r and a map f out of its source; canonical or not, r and n possibly 0."""
    field = draw(st.sampled_from(FIELDS))
    r = draw(st.integers(0, 4))
    n = r + draw(st.integers(0, 3))
    # unitriangular top block over free rows, rows shuffled: full column rank
    top = [[int(i == j) or (draw(st.sampled_from([0, 0, 1, -1, 2])) if j > i else 0)
            for j in range(r)] for i in range(r)]
    m = vstack([Matrix.from_rows(field, top, r), draw(matrices(field, n - r, r))])
    m = m.rows_slice(draw(st.permutations(range(n))))
    if draw(st.booleans()):   # mix the columns too
        low = [[int(i == j) or (draw(st.sampled_from([0, 1, -1, 3])) if j < i else 0)
                for j in range(r)] for i in range(r)]
        m = m * Matrix.from_rows(field, low, r)
    if draw(st.booleans()):
        m = Subspace.from_columns(m).basis
    return field, m, draw(matrices(field, cols=r))


@settings(max_examples=250, deadline=None)
@given(monos())
def test_extension_matches_the_frame_solve(fmf):
    field, m, f = fmf
    assert rank(m) == m.cols
    g = _extend_matrix(m, f)
    assert same(g, extend_matrix(m, f, False))
    assert same(g * m, f)


def assert_composites_are_path_products(I):
    covers = {(y, x): I.restriction(y, x) for (y, x) in I.poset.covers}
    for (y, x), rho in covers.items():
        assert same(rho, injective_cover(I, y, x))
    paths = Sheaf(I.poset, I.field, I.dims, covers)   # composes the covers path by path
    for y in range(len(I.poset)):
        for x in I.poset.up[y]:
            assert same(I.restriction(y, x), paths.restriction(y, x))


def fixture_injectives(field):
    out = []
    for fixture in ("pseudocircle", "torus"):
        inst = Instance.load(os.path.join(FIXTURES, fixture + ".json"), field=field)
        for F in inst.sheaves.values():
            for ctx in (SheafContext(F.poset, field),
                        EagerSheafContext(F.poset, field, flip=True)):
                res = injective_resolution(ctx, F)
                out += [res.complex.obj(q) for q in res.complex.degrees()]
    return out


def test_fixture_composites_are_path_products():
    injectives = fixture_injectives(QQ) + fixture_injectives(FIELDS[2])
    assert any(I.total_dim for I in injectives)
    for I in injectives:
        assert isinstance(I, InjectiveSheaf)
        assert_composites_are_path_products(I)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(min_value=0, max_value=10**6))
def test_forged_composites_are_path_products(field, seed):
    cfg = GenConfig("composite-%d" % seed, max_elements=6, max_stalk_dim=2, field=field)
    p = gen_poset(cfg.child("poset"))
    rng = cfg.child("summands").rng()
    summands = [(rng.randrange(len(p)), rng.randint(1, 3)) for _ in range(rng.randint(0, 5))]
    assert_composites_are_path_products(InjectiveSheaf(p, field, summands))
    ctx = SheafContext(p, field)
    for F in (gen_sheaf(cfg, p), gen_ses_sheaves(cfg, p)[1].target):
        assert_composites_are_path_products(ctx.injective_embed(F)[0])

