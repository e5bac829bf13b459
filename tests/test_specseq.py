import pytest

from engine_oracle import VectorSpaces, check_exact, map_of_spectral_sequences, stabilization_ok
from fixtures import transpose
from possheaf.exactla import QQ, Matrix, NoSolution, rank
from possheaf.homalg import ChainMap, CochainComplex, cohomology, induced_on_cohomology
from possheaf.specseq import (
    CoupleMorphism,
    CoupleTower,
    DoubleComplex,
    NotACoupleMorphism,
    SquareNotCommuting,
    Subquotient,
    global_sign,
)


def empty_grid(D):
    dims = [[0] * (D + 1) for _ in range(D + 1)]
    horiz = [[None] * (D + 1) for _ in range(D + 1)]
    vert = [[None] * (D + 1) for _ in range(D + 1)]
    return dims, horiz, vert


def staircase():
    """R^{0,1} = R^{1,0} = R^{1,1} = R^{2,0} = k with identity steps."""
    dims, horiz, vert = empty_grid(2)
    one = Matrix.identity(QQ, 1)
    dims[0][1] = dims[1][0] = dims[1][1] = dims[2][0] = 1
    horiz[0][1] = one       # (0,1) -> (1,1)
    vert[1][0] = one        # (1,0) -> (1,1)
    horiz[1][0] = one       # (1,0) -> (2,0)
    return DoubleComplex(QQ, 2, dims, horiz, vert)


def one_entry():
    dims, horiz, vert = empty_grid(1)
    dims[0][0] = 1
    return DoubleComplex(QQ, 1, dims, horiz, vert)


def test_one_entry_everything_trivial():
    ss = CoupleTower(one_entry())
    assert ss.total_h_dim(0) == 1
    assert ss.entry(1, 0, 0).dim == 1
    assert ss.entry(ss.r_inf, 0, 0).dim == 1
    assert ss.convergence_ok()


def test_noncommuting_square_rejected():
    dims, horiz, vert = empty_grid(1)
    dims[0][0] = dims[1][0] = dims[0][1] = dims[1][1] = 1
    horiz[0][0] = Matrix.identity(QQ, 1)
    vert[0][0] = Matrix.identity(QQ, 1)
    horiz[0][1] = Matrix.identity(QQ, 1)
    vert[1][0] = Matrix.from_rows(QQ, [[2]])
    with pytest.raises(SquareNotCommuting):
        DoubleComplex(QQ, 1, dims, horiz, vert)


def test_staircase_total_cohomology_vanishes():
    ss = CoupleTower(staircase())
    for n in range(5):
        assert ss.total_h_dim(n) == 0


def test_staircase_pages_and_d2():
    ss = CoupleTower(staircase())
    # E_1: columns with the vertical differential
    assert ss.entry(1, 0, 1).dim == 1
    assert ss.entry(1, 1, 0).dim == 0
    assert ss.entry(1, 1, 1).dim == 0
    assert ss.entry(1, 2, 0).dim == 1
    # E_2 equals E_1 here, and d_2 is an isomorphism killing everything
    assert ss.entry(2, 0, 1).dim == 1 and ss.entry(2, 2, 0).dim == 1
    d2 = ss.page(2).d_map(0, 1)
    assert d2.rows == 1 and d2.cols == 1 and rank(d2) == 1
    assert ss.entry(3, 0, 1).dim == 0
    assert ss.entry(3, 2, 0).dim == 0
    assert ss.convergence_ok()


def test_staircase_stabilizes_at_three():
    ss = CoupleTower(staircase())
    for r in range(3, ss.r_inf + 1):
        assert ss.page_dims(r) == {}
    assert stabilization_ok(ss)


def test_restrict_drops_the_top_rows():
    # Tot^1 = R^{0,1} (dim 2) + R^{1,0} (dim 1): F^1 Tot^1 is the last row of F^0 Tot^1
    dims, horiz, vert = empty_grid(1)
    dims[0][1], dims[1][0] = 2, 1
    tower = CoupleTower(DoubleComplex(QQ, 1, dims, horiz, vert))
    m = Matrix.from_rows(QQ, [[0, 0, 0], [0, 0, 0], [1, 2, 3]])
    assert tower.restrict(m, 1, 0, 1) == Matrix.from_rows(QQ, [[1, 2, 3]])
    # the error names the first column that is nonzero in any dropped row
    bad = Matrix.from_rows(QQ, [[0, 0, 4], [0, 5, 0], [1, 2, 3]])
    with pytest.raises(NoSolution, match="no preimage for column 1$"):
        tower.restrict(bad, 1, 0, 1)


def test_couples_stay_exact():
    tower = CoupleTower(staircase())
    for r in range(1, tower.r_inf + 1):
        assert check_exact(tower.page(r))


def _two_term(V, d0):
    """The complex 0 -> k^a -d0-> k^b -> 0 in degrees 0 and 1."""
    return CochainComplex(V, {0: d0.cols, 1: d0.rows}, {0: d0})


# (d_X, d_Y, h^0, h^1) for columns X and Y joined by a chain map h
TWO_COLUMN_CASES = [
    # k -> k^2 to k^2 -> k: H^0(h) is 0 -> k and H^1(h) is k -> 0
    ([[1], [0]], [[0, 1]], [[1], [0]], [[0, 1]]),
    # the identity of k -0-> k: H(h) is an iso, so Tot is acyclic
    ([[0]], [[0]], [[1]], [[1]]),
    # the zero map of k -0-> k: ker H(h) is H(X) and coker H(h) is H(Y)
    ([[0]], [[0]], [[0]], [[0]]),
]


def test_two_column_reproduces_les():
    # the long exact sequence
    # ... -> H^{n-1}(X) -> H^{n-1}(Y) -> H^n(Tot) -> H^n(X) -> H^n(Y) -> ...
    # makes E_2^{0,q} = ker H^q(h) and E_2^{1,q} = coker H^q(h), and no d_r
    # with r >= 2 fits in two columns
    for case in TWO_COLUMN_CASES:
        _check_two_column_les(*case)


def _check_two_column_les(d_x, d_y, h0, h1):
    V = VectorSpaces(QQ)
    X = _two_term(V, Matrix.from_rows(QQ, d_x))
    Y = _two_term(V, Matrix.from_rows(QQ, d_y))
    h = ChainMap(X, Y, {0: Matrix.from_rows(QQ, h0), 1: Matrix.from_rows(QQ, h1)})
    dims, horiz, vert = empty_grid(1)
    for p, C in enumerate((X, Y)):
        dims[p] = [C.obj(0), C.obj(1)]
        vert[p][0] = C.diff(0)
    horiz[0] = [h.comp(0), h.comp(1)]
    ss = CoupleTower(DoubleComplex(QQ, 1, dims, horiz, vert))
    ker, coker = {}, {}
    for q in (0, 1):
        r = rank(induced_on_cohomology(h, q))
        ker[q], coker[q] = cohomology(X, q).H - r, cohomology(Y, q).H - r
    e2 = ss.page_dims(2)
    assert [(e2.get((0, q), 0), e2.get((1, q), 0)) for q in (0, 1)] == \
        [(ker[q], coker[q]) for q in (0, 1)]
    assert ss.page_dims(ss.r_inf) == e2
    assert ss.convergence_ok()
    for n in range(3):
        assert ss.total_h_dim(n) == coker.get(n - 1, 0) + ker.get(n, 0)


def test_filtration_is_decreasing_and_exhaustive():
    ss = CoupleTower(staircase())
    filt = ss.filtration()
    for n, levels in filt.items():
        total = ss.total_h_dim(n)
        assert levels[0].dim == total
        for p in range(len(levels) - 1):
            assert levels[p].contains(levels[p + 1])
        assert levels[-1].dim == 0


def test_identity_couple_morphism():
    dc = staircase()
    ss1 = CoupleTower(dc)
    ss2 = CoupleTower(dc)
    entry_maps = {(p, q): Matrix.identity(QQ, dc.dim(p, q))
                  for p in range(3) for q in range(3) if dc.dim(p, q)}
    mor = map_of_spectral_sequences(ss1, ss2, entry_maps)
    assert mor.signs["i"] in (0, 1)
    assert mor.signs["j"] in (0, 1)
    assert mor.signs["k"] in (0, 1)
    for r in (1, 2, 3):
        for (p, q), d in ss1.page_dims(r).items():
            m = mor.page_map(r, p, q)
            assert m == Matrix.identity(QQ, d)


def test_pages_are_derived_when_first_read():
    ss = CoupleTower(staircase())
    assert len(ss.couples) == 1
    ss.total_h_dim(1)
    ss.filtration()         # level one only
    assert len(ss.couples) == 1
    ss.page_dims(3)
    assert len(ss.couples) == 3


def test_tower_parts_are_made_when_first_read(monkeypatch):
    made, init = [], Subquotient.__init__

    def counting(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(Subquotient, "__init__", counting)
    ss = CoupleTower(staircase())
    assert ss.tot_dim[1] == 2 and ss.fdiff[(0, 1)].cols == 2 and ss.filt_dim(1, 2) == 2
    assert made == []
    a1 = ss.A1
    assert len(made) == len(a1) and ss.A1 is a1
    e1 = ss.E1
    assert len(made) == len(a1) + len(e1)
    ss.page(1)
    assert len(made) == len(a1) + len(e1)
    CoupleTower(staircase()).page(1)        # a page read first makes A1 and E1
    assert len(made) == 2 * (len(a1) + len(e1))


def test_zero_couple_morphism():
    dc = staircase()
    ss1 = CoupleTower(dc)
    ss2 = CoupleTower(dc)
    entry_maps = {(p, q): Matrix.zeros(QQ, dc.dim(p, q), dc.dim(p, q))
                  for p in range(3) for q in range(3) if dc.dim(p, q)}
    mor = map_of_spectral_sequences(ss1, ss2, entry_maps)
    for r in (1, 2):
        for (p, q), d in ss1.page_dims(r).items():
            assert mor.page_map(r, p, q).is_zero()


def test_by_q_mode_runs_on_transpose():
    ss = CoupleTower(transpose(staircase()))
    assert ss.convergence_ok()
    for n in range(5):
        assert ss.total_h_dim(n) == 0


def test_total_complex_and_cohomology():
    # H^n(F^0) of the tower against plain cohomology of its total complex
    from possheaf.homalg import CochainComplex, cohomology

    for dc, dims in ((staircase(), [0, 0, 0, 0]), (one_entry(), [1, 0])):
        tower = CoupleTower(dc)
        tot = CochainComplex(VectorSpaces(QQ),
                             {n: tower.tot_dim[n] for n in range(tower.nmax + 1)},
                             {n: tower.tot_diff[n] for n in range(tower.nmax)})
        for n, d in enumerate(dims):
            assert tower.A1[(0, n)].dim == cohomology(tot, n).H == d


def M(rows):
    return Matrix.from_rows(QQ, rows)


def test_global_sign():
    a, b, z = M([[1, 2]]), M([[0, 3]]), M([[0, 0]])
    assert global_sign([(a, a), (b, b), (z, z)]) == (1, True)
    assert global_sign([(a, -a), (-b, b)]) == (-1, True)
    assert global_sign([(a, a), (b, -b)]) == (None, False)
    assert global_sign([(z, z), (z, z)]) == (0, True)
    assert global_sign([(a, b)]) == (None, False)


def test_broken_e_map_is_not_a_couple_morphism():
    dc = staircase()
    ss1, ss2 = CoupleTower(dc), CoupleTower(dc)
    entry_maps = {(p, q): Matrix.identity(QQ, dc.dim(p, q))
                  for p in range(3) for q in range(3) if dc.dim(p, q)}
    mor = map_of_spectral_sequences(ss1, ss2, entry_maps)
    assert CoupleMorphism(ss1, ss2, (0, 0), mor.a_maps, mor.e_maps).signs == mor.signs
    broken = {key: m.scale(QQ.from_int(2)) for key, m in mor.e_maps.items()}
    with pytest.raises(NotACoupleMorphism):
        CoupleMorphism(ss1, ss2, (0, 0), mor.a_maps, broken)


def test_graded_iso_invertible_on_nontrivial_total():
    # single column: E_1 = E_inf = vertical cohomology, total H matches
    dims, horiz, vert = empty_grid(1)
    dims[0][0], dims[0][1] = 2, 1
    vert[0][0] = Matrix.from_rows(QQ, [[1, 0]])
    dc = DoubleComplex(QQ, 1, dims, horiz, vert)
    ss = CoupleTower(dc)
    assert ss.total_h_dim(0) == 1 and ss.total_h_dim(1) == 0
    assert ss.entry(ss.r_inf, 0, 0).dim == 1
    iso = ss.graded_iso(0, 0)
    assert rank(iso) == 1
    assert ss.convergence_ok()
