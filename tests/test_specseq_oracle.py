"""Differential tests: the offset-based column filtration against the frozen one.

`specseq_oracle.py` keeps the tower built on position lists and 0/1
inclusion matrices, with every couple derived, A side and all, and every
`d_r` the product j.k.  On drawn double complexes over QQ and GF(3), the
level-one A witnesses and i, j and k maps, every page's E witnesses and
`d_r`, the filtration on total cohomology and the graded isomorphisms must
come out exactly the same.

Two kinds of double complex are drawn:
- direct sums of dots, commuting squares and zigzags (staircases in either
  orientation), with every cell's basis changed by a random invertible
  matrix, so long zigzags give nonzero d_r for r >= 2;
- tensor products of two random cochain complexes, whose pages degenerate
  at E_2 but whose cells hold several basis vectors.
"""

from hypothesis import given, settings, strategies as st

import specseq_oracle as oracle
from fixtures import transpose
from possheaf.exactla import QQ, Matrix, PrimeField, Subspace, kernel_basis, kron, solve
from possheaf.gross import by_q_e1
from possheaf.specseq import CoupleTower, DoubleComplex

FIELDS = [QQ, PrimeField(3)]
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, 3])


def same(a, b):
    """Exactly the same matrix, down to the printed entries."""
    return (a.rows, a.cols) == (b.rows, b.cols) and a == b and a.to_str_rows() == b.to_str_rows()


def same_entry(a, b):
    return (a.ambient_dim == b.ambient_dim and a.dim == b.dim
            and same(a.Z.basis, b.Z.basis) and same(a.B.basis, b.B.basis)
            and same(a.reps, b.reps) and same(a.proj, b.proj))


def random_matrix(draw, field, rows, cols):
    return Matrix.from_rows(field, [[field.from_int(draw(ENTRIES)) for _ in range(cols)]
                                    for _ in range(rows)], cols)


def random_invertible(draw, field, n):
    """A product of a unit lower and a unit upper triangular matrix."""
    lower, upper = random_matrix(draw, field, n, n).data, random_matrix(draw, field, n, n).data
    one, zero = field.one(), field.zero()
    for i in range(n):
        for j in range(n):
            if i == j:
                lower[i][j] = upper[i][j] = one
            elif i < j:
                lower[i][j] = zero
            else:
                upper[i][j] = zero
    return Matrix.from_rows(field, lower, n) * Matrix.from_rows(field, upper, n)


# A zigzag walks away from its first cell: orientation "h" steps right along
# a horizontal arrow and down against a vertical one, "v" steps up along a
# vertical arrow and left against a horizontal one.
_STEPS = {"h": (((1, 0), "h", True), ((0, -1), "v", False)),
          "v": (((0, 1), "v", True), ((-1, 0), "h", False))}


@st.composite
def pieces_complex(draw, field):
    D = draw(st.integers(min_value=2, max_value=3))
    cells = {}      # (p, q) -> number of basis vectors so far
    arrows = []     # (kind, (src cell, index), (tgt cell, index))

    def add(cell):
        idx = cells.get(cell, 0)
        cells[cell] = idx + 1
        return cell, idx

    def coord(lo=0, hi=D):
        return draw(st.integers(min_value=lo, max_value=hi))

    for i in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["dot", "square", "zigzag"])) if i else "zigzag"
        if kind == "dot":
            add((coord(), coord()))
        elif kind == "square":
            p, q = coord(0, D - 1), coord(0, D - 1)
            a, b, c, d = add((p, q)), add((p + 1, q)), add((p, q + 1)), add((p + 1, q + 1))
            arrows += [("h", a, b), ("v", a, c), ("h", c, d), ("v", b, d)]
        else:
            steps = _STEPS[draw(st.sampled_from(["h", "h", "v"]))]
            first = coord(0, 1)
            moves = [steps[(first + s) % 2] for s in range(coord(2, 2 * D))]
            # start where the whole walk stays inside the grid
            ps = [sum(m[0][0] for m in moves[:s]) for s in range(len(moves) + 1)]
            qs = [sum(m[0][1] for m in moves[:s]) for s in range(len(moves) + 1)]
            walk = [(coord(-min(ps), D - max(ps)), coord(-min(qs), D - max(qs)))]
            for (dp, dq), _, _ in moves:
                walk.append((walk[-1][0] + dp, walk[-1][1] + dq))
            slots = [add(c) for c in walk]
            for s in range(len(walk) - 1):
                _, arrow, forward = steps[(first + s) % 2]
                a, b = slots[s], slots[s + 1]
                arrows.append((arrow, a, b) if forward else (arrow, b, a))
    dims = [[cells.get((p, q), 0) for q in range(D + 1)] for p in range(D + 1)]
    maps = {"h": [[None] * (D + 1) for _ in range(D + 1)],
            "v": [[None] * (D + 1) for _ in range(D + 1)]}
    step = {"h": (1, 0), "v": (0, 1)}
    for kind, ((p, q), i), (_, j) in arrows:
        grid = maps[kind]
        if grid[p][q] is None:
            dp, dq = step[kind]
            grid[p][q] = Matrix.zeros(field, dims[p + dp][q + dq], dims[p][q]).data
        grid[p][q][j][i] = field.one()
    # change every cell's basis: m -> g_tgt m g_src^-1
    g = {(p, q): random_invertible(draw, field, dims[p][q])
         for p in range(D + 1) for q in range(D + 1)}
    g_inv = {c: solve(m, Matrix.identity(field, m.rows)) for c, m in g.items()}
    for kind, (dp, dq) in step.items():
        for p in range(D + 1):
            for q in range(D + 1):
                m = maps[kind][p][q]
                if m is not None:
                    m = Matrix.from_rows(field, m, dims[p][q])
                    maps[kind][p][q] = g[(p + dp, q + dq)] * m * g_inv[(p, q)]
    return DoubleComplex(field, D, dims, maps["h"], maps["v"])


@st.composite
def cochain_complex(draw, field, length):
    """Dimensions and differentials d_i: C^i -> C^{i+1} with d_{i+1} d_i = 0."""
    dims = [draw(st.integers(min_value=0, max_value=2)) for _ in range(length)]
    diffs = []
    for i in range(length - 1):
        m = random_matrix(draw, field, dims[i + 1], dims[i])
        if diffs:
            # precompose with a map that kills the image of the previous differential
            left = kernel_basis(diffs[-1].transpose()).basis.transpose()
            m = random_matrix(draw, field, dims[i + 1], left.rows) * left
        diffs.append(m)
    return dims, diffs


@st.composite
def tensor_complex(draw, field):
    D = draw(st.integers(min_value=1, max_value=2))
    cdims, cd = draw(cochain_complex(field, D + 1))
    ddims, dd = draw(cochain_complex(field, D + 1))
    dims = [[cdims[p] * ddims[q] for q in range(D + 1)] for p in range(D + 1)]
    horiz = [[kron(cd[p], Matrix.identity(field, ddims[q])) if p < D else None
              for q in range(D + 1)] for p in range(D + 1)]
    vert = [[kron(Matrix.identity(field, cdims[p]), dd[q]) if q < D else None
             for q in range(D + 1)] for p in range(D + 1)]
    return DoubleComplex(field, D, dims, horiz, vert)


@st.composite
def double_complexes(draw):
    field = draw(st.sampled_from(FIELDS))
    return draw(st.one_of(pieces_complex(field), tensor_complex(field)))


def assert_same_spectral_sequence(dc):
    new, old = CoupleTower(dc), oracle.SpectralSequence(dc)
    assert new.r_inf == old.r_inf
    D = dc.size
    one = old.tower.page(1)
    assert list(new.A1) == list(one.A)
    for (p, q) in one.A:
        assert same_entry(new.A1[(p, q)], one.A[(p, q)]), ("A", p, q)
        assert same(new.i_map(p, q), one.i_map(p, q)), ("i", p, q)
        assert same(new.j_map(p, q), one.j_map(p, q)), ("j", p, q)
    for (p, q) in one.E:
        assert same(new.k_map(p, q), one.k_map(p, q)), ("k", p, q)
    for r in range(1, new.r_inf + 1):
        cn, co = new.page(r), old.tower.page(r)
        assert list(cn.E) == list(co.E)
        for (p, q) in co.E:
            assert same_entry(cn.E[(p, q)], co.E[(p, q)]), ("E", r, p, q)
            for (pp, qq) in ((p, q), (p - r, q + r - 1)):
                assert same(new.page(r).d_map(pp, qq), old.differential(r, pp, qq)), \
                    ("d", r, pp, qq)
    fn, fo = new.filtration, old.filtration()
    assert list(fn) == list(fo)
    for n in fo:
        assert len(fn[n]) == len(fo[n])
        assert all(same(a.basis, b.basis) for a, b in zip(fn[n], fo[n])), ("filtration", n)
    for p in range(D + 1):
        for q in range(D + 1):
            assert same(new.graded_iso(p, q), old.graded_iso(p, q)), ("graded", p, q)


@settings(max_examples=100, deadline=None)
@given(double_complexes())
def test_spectral_sequence_matches_oracle(dc):
    assert_same_spectral_sequence(dc)


@settings(max_examples=60, deadline=None)
@given(double_complexes())
def test_by_q_e1_matches_transposed_tower(dc):
    # first_ss_check reads E_1 of the by-q filtration off the rows of the grid
    # instead of building the tower of the transposed grid
    tower = CoupleTower(transpose(dc))
    for p in range(dc.size + 1):
        for q in range(dc.size + 1):
            assert same_entry(by_q_e1(dc, p, q), tower.E1[(q, p)]), (p, q)


def test_long_staircase_has_higher_differentials():
    # one zigzag from (0, 3) to (3, 1) over GF(3): d_3 is its only nonzero
    # differential, so the comparison covers a nonzero d_r past E_2
    field = PrimeField(3)
    D = 3
    dims = [[0] * (D + 1) for _ in range(D + 1)]
    horiz = [[None] * (D + 1) for _ in range(D + 1)]
    vert = [[None] * (D + 1) for _ in range(D + 1)]
    one = Matrix.identity(field, 1)
    for i in range(D):
        dims[i][D - i] = dims[i + 1][D - i] = 1
        horiz[i][D - i] = one                 # (i, D-i) -> (i+1, D-i)
    for i in range(1, D):
        vert[i][D - i] = one                  # (i, D-i) -> (i, D-i+1)
    dc = DoubleComplex(field, D, dims, horiz, vert)
    assert_same_spectral_sequence(dc)
    ss = CoupleTower(dc)
    nonzero = [r for r in range(2, ss.r_inf)
               if not ss.page(r).d_map(0, D).is_zero()]
    assert nonzero == [D]


def test_d_r_whose_lift_is_not_unique():
    # x in R^{0,1} goes to a in R^{1,1}, the vertical image of y in R^{1,0},
    # and u in R^{1,0} is a vertical cocycle; h sends y to b and u to b + c
    # in R^{2,0}.  So D x = b - D y, with b a cocycle of F^2, and D u = b + c
    # is a cocycle of F^2 that bounds in F^1: the lift of D x is not unique.
    # The one the solve finds has cell part -c, so d_2 reads it modulo
    # B_2^{2,0} = <b + c> and sends x to the class of b
    D = 2
    dims = [[0, 1, 0], [2, 1, 0], [2, 0, 0]]
    horiz = [[None] * (D + 1) for _ in range(D + 1)]
    vert = [[None] * (D + 1) for _ in range(D + 1)]
    horiz[0][1] = Matrix.from_rows(QQ, [[1]])
    vert[1][0] = Matrix.from_rows(QQ, [[1, 0]])
    horiz[1][0] = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    dc = DoubleComplex(QQ, D, dims, horiz, vert)
    assert_same_spectral_sequence(dc)
    ss = CoupleTower(dc)
    cocycles = Subspace.from_columns(ss.include(ss.A1[(2, 0)].Z.basis, 2, 2, 1))
    bounds = ss.A1[(1, 1)].B
    assert cocycles.sum(bounds).dim < cocycles.dim + bounds.dim
    d2 = ss.page(2).d_map(0, 1)
    assert d2 == Matrix.from_rows(QQ, [[1]])
    assert same(d2, oracle.SpectralSequence(dc).tower.page(2).d_map(0, 1))
