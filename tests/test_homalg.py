import pytest

from engine_oracle import (
    EagerSheafContext,
    VectorSpaces,
    les_is_exact,
    long_exact_sequence,
    on_vector_spaces,
)
from fixtures import fence_x4, total_dim
from possheaf.exactla import QQ, Matrix
from possheaf.homalg import (
    ChainMap,
    CochainComplex,
    SESOfComplexes,
    augmented_exact,
    cohomology,
    comparison_lift,
    connecting,
    horseshoe,
    induced_maps,
    induced_on_cohomology,
    injective_resolution,
    mapping_cone,
)
from possheaf.sheafcat import SheafContext

V = VectorSpaces(QQ)


def M(rows, cols=None):
    return Matrix.from_rows(QQ, rows, cols=cols)


def test_cohomology_zero_differentials():
    c = CochainComplex(V, {0: 2, 1: 3}, {0: Matrix.zeros(QQ, 3, 2)})
    assert cohomology(c, 0).H == 2
    assert cohomology(c, 1).H == 3


def test_cohomology_exact_complex():
    c = CochainComplex(V, {0: 1, 1: 2, 2: 1}, {0: M([[1], [0]]), 1: M([[0, 1]])})
    assert [cohomology(c, q).H for q in (0, 1, 2)] == [0, 0, 0]


def test_cohomology_three_term():
    # k ->0 k ->id k
    c = CochainComplex(V, {0: 1, 1: 1, 2: 1}, {0: M([[0]]), 1: M([[1]])})
    assert [cohomology(c, q).H for q in (0, 1, 2)] == [1, 0, 0]


def test_d_squared_enforced():
    with pytest.raises(ValueError):
        CochainComplex(V, {0: 1, 1: 1, 2: 1}, {0: M([[1]]), 1: M([[1]])})


def test_split_ses_connecting_zero():
    A = CochainComplex(V, {0: 1, 1: 1}, {0: M([[0]])})
    C = CochainComplex(V, {0: 1, 1: 1}, {0: M([[0]])})
    B = CochainComplex(V, {0: 2, 1: 2}, {0: Matrix.zeros(QQ, 2, 2)})
    iota = ChainMap(A, B, {0: M([[1], [0]]), 1: M([[1], [0]])})
    pi = ChainMap(B, C, {0: M([[0, 1]]), 1: M([[0, 1]])})
    ses = SESOfComplexes(iota, pi)
    for q in (0, 1):
        assert connecting(ses, q).is_zero()
    assert les_is_exact(ses)


def test_one_degree_iso_ses():
    # 0 -> k -> k -> 0 -> 0 concentrated in degree 0
    A = CochainComplex(V, {0: 1}, {})
    B = CochainComplex(V, {0: 1}, {})
    C = CochainComplex(V, {0: 0}, {})
    ses = SESOfComplexes(ChainMap(A, B, {0: M([[1]])}),
                         ChainMap(B, C, {0: Matrix.zeros(QQ, 0, 1)}))
    assert les_is_exact(ses)
    f = induced_on_cohomology(ses.iota, 0)
    assert f == M([[1]])


def test_induced_maps_commute_with_the_witnesses():
    # k -> k^2 -> k, exact in the middle, mapped to k^2 -> k^2 -> k by the
    # inclusion: H^0 and H^1 vanish in the source, while Z^1 and B^1 are k
    A = CochainComplex(V, {0: 1, 1: 2, 2: 1}, {0: M([[1], [0]]), 1: M([[0, 1]])})
    B = CochainComplex(V, {0: 2, 1: 2, 2: 1}, {0: M([[1, 0], [0, 0]]), 1: M([[0, 1]])})
    f = ChainMap(A, B, {0: M([[1], [0]]), 1: M([[1, 0], [0, 1]]), 2: M([[1]])})
    for q in (0, 1, 2):
        ha, hb = cohomology(A, q), cohomology(B, q)
        z, b, h = induced_maps(f, q)
        assert hb.z_mono * z == f.comp(q) * ha.z_mono
        assert hb.b_into_x * b == f.comp(q) * ha.b_into_x
        assert h * ha.proj == hb.proj * z
        assert h == induced_on_cohomology(f, q)
        assert induced_maps(f, q, coboundaries=False) == (z, None, h)
    assert induced_maps(f, 1)[1] == M([[1]])


def test_cone_connecting_is_induced_map():
    # cone SES over f: A* -> B*; connecting H^q(A[1]) -> H^{q+1}(B) equals H(f) up to sign
    A = CochainComplex(V, {0: 1, 1: 1}, {0: M([[0]])})
    B = CochainComplex(V, {0: 1, 1: 1}, {0: M([[0]])})
    f = ChainMap(A, B, {0: M([[2]]), 1: M([[3]])})
    cone, ses = mapping_cone(f)
    assert les_is_exact(ses)
    for q in (-1, 0):
        delta = connecting(ses, q)
        hf = induced_on_cohomology(f, q + 1)
        assert delta == hf or delta == -hf


def test_les_on_sheaf_ses():
    x4 = fence_x4()
    ctx = SheafContext(x4, QQ)
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    C, e = ctx.cokernel(m)
    A1 = CochainComplex(ctx, {0: k}, {})
    B1 = CochainComplex(ctx, {0: I}, {})
    C1 = CochainComplex(ctx, {0: C}, {})
    ses = SESOfComplexes(ChainMap(A1, B1, {0: m}), ChainMap(B1, C1, {0: e}))
    assert les_is_exact(ses)


def test_resolution_generic_vector():
    res = injective_resolution(V, 3)
    assert res.length() == 0 and res.complex.obj(0) == 3
    assert res.verify_exact()


def test_horseshoe_outer_zero_cases():
    x4 = fence_x4()
    ctx = SheafContext(x4, QQ)
    k = ctx.constant_sheaf()
    z = ctx.zero_obj()
    res_k = injective_resolution(ctx, k)
    res_z = injective_resolution(ctx, z)
    # A = 0: middle resolution equals C's
    hs = horseshoe(ctx, ctx.zero_map(z, k), ctx.identity(k), res_z, res_k)
    assert total_dim(hs.res_b.complex) == total_dim(res_k.complex)
    assert hs.as_ses() is not None
    # C = 0: middle resolution equals A's
    hs2 = horseshoe(ctx, ctx.identity(k), ctx.zero_map(k, z), res_k, res_z)
    assert total_dim(hs2.res_b.complex) == total_dim(res_k.complex)


def test_horseshoe_on_fence_ses():
    x4 = fence_x4()
    ctx = SheafContext(x4, QQ)
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    C, e = ctx.cokernel(m)
    res_a = injective_resolution(ctx, k)
    res_c = injective_resolution(ctx, C)
    hs = horseshoe(ctx, m, e, res_a, res_c)
    ses = hs.as_ses()  # validates exact columns degree-wise
    assert ses.A is res_a.complex
    assert hs.res_b.verify_exact()
    # augmentation square commutes
    lhs = ctx.compose(hs.iota_res.comp(0), res_a.augmentation)
    rhs = ctx.compose(hs.res_b.augmentation, m)
    assert ctx.map_eq(lhs, rhs)
    lhs2 = ctx.compose(hs.pi_res.comp(0), hs.res_b.augmentation)
    rhs2 = ctx.compose(res_c.augmentation, e)
    assert ctx.map_eq(lhs2, rhs2)


def test_comparison_lift_identity_and_zero():
    x4 = fence_x4()
    ctx = SheafContext(x4, QQ)
    k = ctx.constant_sheaf()
    res = injective_resolution(ctx, k)
    lift = comparison_lift(ctx, ctx.identity(k), res, res)
    for q in res.complex.degrees():
        assert ctx.map_eq(lift.comp(q), ctx.identity(res.complex.obj(q)))
    zlift = comparison_lift(ctx, ctx.zero_map(k, k), res, res)
    assert all(zlift.comp(q).is_zero() for q in res.complex.degrees())


def test_comparison_lifts_agree_on_cohomology():
    # two different lifts of the same map induce equal maps after Gamma
    from possheaf.sheafcat import gamma_of_complex

    x4 = fence_x4()
    ctx = SheafContext(x4, QQ)
    ctx_flip = EagerSheafContext(x4, QQ, flip=True)
    k = ctx.constant_sheaf()
    res1 = injective_resolution(ctx, k)
    res2 = injective_resolution(ctx_flip, k)
    l12 = comparison_lift(ctx, ctx.identity(k), res1, res2)
    l21 = comparison_lift(ctx, ctx.identity(k), res2, res1)
    v1 = on_vector_spaces(gamma_of_complex(res1.complex))
    v2 = on_vector_spaces(gamma_of_complex(res2.complex))
    from possheaf.sheafcat import gamma_struct_map

    m12 = ChainMap(v1, v2, {t: gamma_struct_map(l12.comp(t)) for t in v1.degrees()})
    m21 = ChainMap(v2, v1, {t: gamma_struct_map(l21.comp(t)) for t in v2.degrees()})
    for q in range(res1.length() + 1):
        h12 = induced_on_cohomology(m12, q)
        h21 = induced_on_cohomology(m21, q)
        hq = cohomology(v1, q).H
        if hq:
            assert h21 * h12 == Matrix.identity(QQ, hq)


def test_connecting_naturality():
    # two cone-like SESs with nonzero connecting maps and a morphism between
    # them: the naturality square commutes
    def ses_with_slope(c):
        B = CochainComplex(V, {0: 1, 1: 1}, {0: M([[c]])})
        A = CochainComplex(V, {1: 1}, {})
        C = CochainComplex(V, {0: 1}, {})
        iota = ChainMap(A, B, {1: M([[1]])})
        pi = ChainMap(B, C, {0: M([[1]])})
        return SESOfComplexes(iota, pi)

    s1, s2 = ses_with_slope(1), ses_with_slope(2)
    d1, d2 = connecting(s1, 0), connecting(s2, 0)
    assert not d1.is_zero() and not d2.is_zero()
    alpha = M([[2]])   # on A-side cohomology at degree 1
    gamma = M([[1]])   # on C-side cohomology at degree 0
    # beta = (id, x2) is a chain map B1 -> B2 making both squares commute
    assert alpha * d1 == d2 * gamma


def test_ladder_labels():
    A = CochainComplex(V, {0: 1}, {})
    B = CochainComplex(V, {0: 1}, {})
    C = CochainComplex(V, {0: 0}, {})
    ses = SESOfComplexes(ChainMap(A, B, {0: M([[1]])}),
                         ChainMap(B, C, {0: Matrix.zeros(QQ, 0, 1)}))
    ladder = long_exact_sequence(ses)
    assert any(lbl.startswith("H^0(A)") for lbl, _, _ in ladder)


def test_augmented_exact_checks_every_node():
    # 0 -> k -> k^2 -> k -> 0 through (1, -1) and the sum map
    aug, d = M([[1], [-1]]), M([[1, 1]])
    assert augmented_exact(V, 1, aug, [2, 1], [d])
    not_mono = M([[1, 0], [-1, 0]])             # k^2 -> k^2 with image ker d
    assert not augmented_exact(V, 2, not_mono, [2, 1], [d])
    assert not augmented_exact(V, 1, aug, [2, 1], [Matrix.zeros(QQ, 1, 2)])
    assert not augmented_exact(V, 1, aug, [2, 2], [M([[1, 1], [0, 0]])])     # not onto
    assert augmented_exact(V, 0, None, [], [])
    assert not augmented_exact(V, 1, None, [], [])
