import os

import pytest

from engine_oracle import (
    connecting_derived,
    derived_functor_gf,
    derived_functor_map,
    flipped_pair,
    higher_direct_image,
    lifted_h_resolutions,
    map_of_spectral_sequences,
    on_vector_spaces,
    render,
)
from fixtures import fence_x4, gen_leray_instance, product_projection, to_point
from oracle import order_complex_cohomology_dims
from possheaf import homalg
from possheaf.forge import GenConfig
from possheaf.exactla import QQ, Matrix, field_from_name, rank
from possheaf.gross import (
    AcyclicityViolation,
    E2Identification,
    FunctorPair,
    PreconditionFailed,
    _gamma_double,
    acyclic_middle_analysis,
    delta_morphism,
    first_ss_check,
    grothendieck_ss,
    leray_pair,
    leray_ss,
    verify_main_theorem,
)
from possheaf.instancefile import Instance
from possheaf.poset import MonotoneMap, Poset
from possheaf.sheafcat import SheafContext, sheaf_cohomology_dims

X4 = fence_x4()
INSTANCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "instances")


def injective_middle(ctx):
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    C, e = ctx.cokernel(m)
    return k, m, e


def test_derived_functor_point():
    pt = Poset(["x"], [])
    pair = FunctorPair(None, pt, QQ)
    ctx = SheafContext(pt, QQ)
    dims = derived_functor_gf(pair, ctx.constant_sheaf())
    assert dims[0] == 1 and all(d == 0 for d in dims[1:])


def test_derived_functor_fence_matches_oracle():
    pair = FunctorPair(None, X4, QQ)
    ctx = SheafContext(X4, QQ)
    dims = derived_functor_gf(pair, ctx.constant_sheaf())
    oracle = order_complex_cohomology_dims(X4, QQ, top=len(dims) - 1)
    assert dims == oracle[: len(dims)]


def test_identity_functor_gss():
    # F = identity: E_2^{p,0} = H^p, everything else vanishes
    pair = FunctorPair(None, X4, QQ)
    ctx = SheafContext(X4, QQ)
    data = grothendieck_ss(pair, ctx.constant_sheaf())
    dims = data.ss.page_dims(2)
    assert dims == {(0, 0): 1, (1, 0): 1}
    assert first_ss_check(data).ok


def test_gss_to_point_degenerates():
    pair = FunctorPair(to_point(X4), X4, QQ)
    ctx = SheafContext(X4, QQ)
    data = grothendieck_ss(pair, ctx.constant_sheaf())
    assert data.ss.page_dims(2) == {(0, 0): 1, (0, 1): 1}
    assert data.ss.page_dims(data.ss.r_inf) == {(0, 0): 1, (0, 1): 1}
    assert first_ss_check(data).ok
    assert E2Identification(data.double, data.ss).check()


def test_higher_direct_image_identity_vanishes():
    pair = FunctorPair(None, X4, QQ)
    ctx = SheafContext(X4, QQ)
    k = ctx.constant_sheaf()
    assert higher_direct_image(pair, k, 0).dims == k.dims
    assert higher_direct_image(pair, k, 1).total_dim == 0


def test_torus_leray_fixture():
    pr1 = product_projection(X4, X4, 0)
    ctx = SheafContext(pr1.source, QQ)
    data, ident, comparisons = leray_ss(pr1, ctx.constant_sheaf())
    assert data.ss.page_dims(2) == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    # degenerates at E2
    assert data.ss.page_dims(data.ss.r_inf) == data.ss.page_dims(2)
    assert [data.ss.total_h_dim(n) for n in range(3)] == [1, 2, 1]
    oracle = order_complex_cohomology_dims(pr1.source, QQ)
    assert oracle[:3] == [1, 2, 1]
    assert ident.check()
    assert all(a == b for a, b in comparisons.values())
    assert data.ss.convergence_ok()
    assert first_ss_check(data).ok


def test_identity_functor_has_no_higher_derived():
    pair = FunctorPair(None, X4, QQ)
    ctx = SheafContext(X4, QQ)
    k, m, e = injective_middle(ctx)
    gamma, _ = connecting_derived(pair, m, e, 0)
    # R^1(id) = 0, so the sheaf-level boundary map has zero target
    assert gamma.target.total_dim == 0


def test_connecting_derived_injective_middle():
    # F = pushforward to a point: R^1F(A) is the circle class of the fence
    pt_map = to_point(X4)
    pair = FunctorPair(pt_map, X4, QQ)
    ctx = SheafContext(X4, QQ)
    k, m, e = injective_middle(ctx)
    gamma, _ = connecting_derived(pair, m, e, 0)
    assert gamma.target.dims == [1]
    assert pair.tgt_ctx.is_epi(gamma)
    assert sheaf_cohomology_dims(k)[1] == 1  # the fence is a circle


def test_delta_family_split_is_zero():
    ctx = SheafContext(X4, QQ)
    k = ctx.constant_sheaf()
    B = homalg.DirectSum(ctx, [k, k])
    pair = FunctorPair(to_point(X4), X4, QQ)
    family = delta_morphism(pair, B.inj(0), B.proj(1))
    for (p, q), d in family.ssT.page_dims(2).items():
        assert family.delta_r(2, p, q).is_zero()
    rep = verify_main_theorem(family)
    assert rep.ok


def test_delta_family_fence_over_point():
    ctx = SheafContext(X4, QQ)
    k, m, e = injective_middle(ctx)
    pair = FunctorPair(to_point(X4), X4, QQ)
    family = delta_morphism(pair, m, e)
    rep = verify_main_theorem(family)
    assert rep.ok, render(rep)
    # the connecting map H^0(C) -> H^1(A) is onto the circle class
    d0 = family.delta_tot(0)
    assert rank(d0) == 1


def test_delta_rejects_non_ses():
    ctx = SheafContext(X4, QQ)
    k = ctx.constant_sheaf()
    pair = FunctorPair(None, X4, QQ)
    with pytest.raises(PreconditionFailed):
        delta_morphism(pair, ctx.zero_map(k, k), ctx.zero_map(k, k))


def test_torus_delta_and_main_theorem():
    pr1 = product_projection(X4, X4, 0)
    ctx = SheafContext(pr1.source, QQ)
    k, m, e = injective_middle(ctx)
    family = delta_morphism(leray_pair(pr1, QQ), m, e)
    rep = verify_main_theorem(family)
    assert rep.ok, render(rep)
    assert family.mor.signs == {"i": 1, "j": 1, "k": -1}
    # bullet 2 reads gamma_q from the CE invariants of F(SES)
    stored = family.ce.triples[0].inv.delta
    assert family.idT.vec_h
    for q in family.idT.vec_h:
        gamma = homalg.connecting(family.F_ses, q)
        assert (stored[q].source.dims, stored[q].target.dims) == \
            (gamma.source.dims, gamma.target.dims)
        assert family.pair.tgt_ctx.map_eq(stored[q], gamma), q


def test_acyclic_middle_on_torus():
    pr1 = product_projection(X4, X4, 0)
    ctx = SheafContext(pr1.source, QQ)
    k, m, e = injective_middle(ctx)
    pair = leray_pair(pr1, QQ)
    rep = acyclic_middle_analysis(pair, m, e)
    assert rep.ok, render(rep)


def test_acyclic_middle_rejects_constant_middle():
    # B = constant sheaf on the fence is not acyclic (H^1 of the circle)
    ctx = SheafContext(X4, QQ)
    k = ctx.constant_sheaf()
    B = ctx.direct_sum([k])
    pair = FunctorPair(to_point(X4), X4, QQ)
    zero = ctx.zero_obj()
    with pytest.raises(PreconditionFailed):
        acyclic_middle_analysis(pair, ctx.zero_map(zero, B), ctx.identity(B))


def test_dimension_independence_of_choices():
    # two independent sets of choices give identical page dimension tables
    ctx = SheafContext(X4, QQ)
    k, m, e = injective_middle(ctx)
    f = to_point(X4)
    fam1 = delta_morphism(leray_pair(f, QQ), m, e)
    fam2 = delta_morphism(flipped_pair(f, X4, QQ), m, e)
    for r in range(2, fam1.r_inf + 1):
        assert fam1.ssT.page_dims(r) == fam2.ssT.page_dims(r)
        assert fam1.ssR.page_dims(r) == fam2.ssR.page_dims(r)


def test_derived_functor_map_identity_and_zero():
    pair = FunctorPair(to_point(X4), X4, QQ)
    ctx = SheafContext(X4, QQ)
    k = ctx.constant_sheaf()
    for q in (0, 1):
        m = derived_functor_map(pair, ctx.identity(k), q)
        d = derived_functor_gf(pair, k, q)
        assert m == Matrix.identity(QQ, d)
        z = derived_functor_map(pair, ctx.zero_map(k, k), q)
        assert z.is_zero()


def test_derived_functor_resolution_independence():
    # two independent resolutions give the same dimensions, and the lifted
    # identity induces an invertible comparison
    pair = FunctorPair(to_point(X4), X4, QQ)
    pair_flip = flipped_pair(to_point(X4), X4, QQ)
    ctx = SheafContext(X4, QQ)
    k = ctx.constant_sheaf()
    assert derived_functor_gf(pair, k) == derived_functor_gf(pair_flip, k)
    for q in (0, 1):
        m = derived_functor_map(pair_flip, ctx.identity(k), q)
        assert rank(m) == derived_functor_gf(pair, k, q)


def test_acyclicity_violation_raises():
    # a fake pair whose G-acyclicity check must fail: identity on the fence
    # with the constant sheaf forced through the acyclicity gate
    pair = FunctorPair(None, X4, QQ)
    ctx = SheafContext(X4, QQ)
    with pytest.raises(AcyclicityViolation):
        pair.check_acyclic(ctx.constant_sheaf(), "probe")


def test_delta_tot_matches_derived_functor_les():
    # the total-degree connecting map of the filtered machinery agrees, up to
    # a global sign, with the plain connecting map of the Gamma'd resolutions
    # once both are transported through the augmentation quasi-isomorphisms
    from possheaf import homalg
    from possheaf.gross import _gamma_base, augmentation_into_tot
    from possheaf.homalg import ChainMap, SESOfComplexes, cohomology, connecting
    from possheaf.sheafcat import gamma_map
    from possheaf.specseq import Subquotient

    ctx = SheafContext(X4, QQ)
    k, m, e = injective_middle(ctx)
    pair = FunctorPair(to_point(X4), X4, QQ)
    family = delta_morphism(pair, m, e)
    FM, FN, FP = family.F_ses.A, family.F_ses.B, family.F_ses.C
    vecM, basesM = _gamma_base(pair, FM)
    vecN, basesN = _gamma_base(pair, FN)
    vecP, basesP = _gamma_base(pair, FP)
    vecM, vecN, vecP = map(on_vector_spaces, (vecM, vecN, vecP))

    def gmap(chain, src_cplx, src_bases, tgt_bases):
        comps = {}
        for q in src_cplx.degrees():
            if q in tgt_bases:
                comps[q] = gamma_map(chain.comp(q), src_bases[q].basis, tgt_bases[q].basis)
        return comps

    ses_vec = SESOfComplexes(
        ChainMap(vecM, vecN, gmap(family.F_ses.iota, FM, basesM, basesN)),
        ChainMap(vecN, vecP, gmap(family.F_ses.pi, FN, basesN, basesP)))
    def h_reps(h):
        # representatives of H in the ambient space: Z's basis times the
        # quotient representatives of B inside Z's coordinates
        return h.z_mono * Subquotient.cohomology(QQ, h.z_mono.cols, d_in=h.b_mono).reps

    checked = 0
    for n in range(3):
        hP = cohomology(vecP, n)
        hM1 = cohomology(vecM, n + 1)
        if hP.H == 0 and hM1.H == 0:
            continue
        delta_gf = connecting(ses_vec, n)
        uT = augmentation_into_tot(pair, family.ce.doubles["C"], family.ssT, basesP, n)
        uR = augmentation_into_tot(pair, family.ce.doubles["A"], family.ssR, basesM, n + 1)
        phiT = family.ssT.A1[(0, n)].project(uT * h_reps(hP))
        phiR = family.ssR.A1[(0, n + 1)].project(uR * h_reps(hM1))
        lhs = family.delta_tot(n) * phiT
        rhs = phiR * delta_gf
        assert lhs == rhs or lhs == -rhs
        if not lhs.is_zero():
            checked += 1
    assert checked >= 1


def test_sphere_over_chain_leray():
    # six-element sphere model fibered over a chain: R^2 f_* is nonzero and
    # the sequence still converges to H^*(S^2) = (1, 0, 1)
    from fixtures import chain

    sphere = Poset(["a", "b", "c", "d", "e", "f"],
                   [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                    ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f")])
    f = MonotoneMap(sphere, chain(3),
                    {"a": "0", "b": "0", "c": "1", "d": "1", "e": "2", "f": "2"})
    ctx = SheafContext(sphere, QQ)
    data, ident, comparisons = leray_ss(f, ctx.constant_sheaf())
    assert [data.ss.total_h_dim(n) for n in range(4)] == [1, 0, 1, 0]
    assert data.ss.page_dims(2) == {(0, 0): 1, (0, 2): 1}
    assert ident.check()
    assert all(a == b for a, b in comparisons.values())
    oracle = order_complex_cohomology_dims(sphere, QQ)
    assert oracle[:3] == [1, 0, 1]


def test_prime_field_drop_in():
    from possheaf.exactla import field_from_name

    fp = field_from_name("fp:65521")
    ctx = SheafContext(X4, fp)
    pair = FunctorPair(to_point(X4), X4, fp)
    data = grothendieck_ss(pair, ctx.constant_sheaf())
    assert data.ss.page_dims(2) == {(0, 0): 1, (0, 1): 1}
    assert first_ss_check(data).ok
    assert data.ss.convergence_ok()


def test_the_middle_tower_makes_no_subquotient(monkeypatch):
    # delta_morphism reads only Tot and fdiff of the tower of S, so that
    # tower makes no A1, E1 or page, even once the theorem is verified
    from possheaf import gross

    towers = []

    class Recorded(gross.CoupleTower):
        def __init__(self, dc):
            super().__init__(dc)
            towers.append(self)

    monkeypatch.setattr(gross, "CoupleTower", Recorded)
    ctx = SheafContext(X4, QQ)
    k, m, e = injective_middle(ctx)
    family = delta_morphism(FunctorPair(to_point(X4), X4, QQ), m, e)
    assert verify_main_theorem(family).ok
    tR, tS, tT = towers
    assert (tR, tT) == (family.ssR, family.ssT)
    assert not {"A1", "E1", "couples"} & set(vars(tS))
    assert {"A1", "E1", "couples"} <= set(vars(tR)) & set(vars(tT))


def test_inclusion_induces_page_maps():
    # the entrywise inclusion R -> S of a coboundary family's grids is a
    # couple morphism with trivial signs, and composing with the projection
    # S -> T kills every page map (functoriality echo of row exactness); the
    # family keeps no tower of S, so S's is built on the grid size of R's
    from possheaf.sheafcat import gamma_struct_map
    from possheaf.specseq import CoupleTower

    ctx = SheafContext(X4, QQ)
    k, m, e = injective_middle(ctx)
    pair = FunctorPair(to_point(X4), X4, QQ)
    family = delta_morphism(pair, m, e)
    iota_e, pi_e = {}, {}
    for p in range(family.ce.depth()):
        trip = family.ce.triples[p]
        for q in trip.cplx["I"].degrees():
            iota_e[(p, q)] = gamma_struct_map(trip.iota.comp(q))
            pi_e[(p, q)] = gamma_struct_map(trip.pi.comp(q))
    ssS = CoupleTower(_gamma_double(pair, family.ce.doubles["B"], family.ssR.D))
    inc = map_of_spectral_sequences(family.ssR, ssS, iota_e)
    prj = map_of_spectral_sequences(ssS, family.ssT, pi_e)
    assert all(s in (0, 1) for s in inc.signs.values())
    for r in (1, 2):
        for (p, q), d in family.ssR.page_dims(r).items():
            left = inc.page_map(r, p, q)
            assert left.cols == d
            if family.ssT.entry(r, p, q).dim and d:
                assert (prj.page_map(r, p, q) * left).is_zero()


def _leray_oracle(f, sheaf, keys):
    """(p, q) -> dim H^p(Y, R^q f_* A), each R^q f_* A from a fresh resolution."""
    pair = leray_pair(f, sheaf.field)
    out = {}
    for (p, q) in keys:
        rq = higher_direct_image(pair, sheaf, q)
        hp = sheaf_cohomology_dims(rq) if rq.total_dim else [0]
        out[(p, q)] = hp[p] if p < len(hp) else 0
    return out


@pytest.mark.parametrize("name,mapname", [("pseudocircle", "collapse"), ("torus", "pr1")])
def test_leray_comparisons_match_higher_direct_image(name, mapname):
    # leray_ss reads R^q f_* off the complex grothendieck_ss pushed forward
    inst = Instance.load(os.path.join(INSTANCES, name + ".json"))
    f, sheaf = inst.maps[mapname], inst.sheaves["k"]
    _, _, comparisons = leray_ss(f, sheaf)
    oracle = _leray_oracle(f, sheaf, comparisons)
    assert {key: exp for key, (_, exp) in comparisons.items()} == oracle
    assert all(e2 == exp for e2, exp in comparisons.values())


def test_leray_comparisons_match_higher_direct_image_forged():
    for seed in range(6):
        f, sheaf = gen_leray_instance(GenConfig("leray-hdi-%d" % seed, max_elements=5,
                                                max_stalk_dim=2))
        _, _, comparisons = leray_ss(f, sheaf)
        oracle = _leray_oracle(f, sheaf, comparisons)
        assert {key: exp for key, (_, exp) in comparisons.items()} == oracle, seed


# -- the H column, read by structural maps, against the lifted oracle ------------

def _h_column_nonzero_diffs(ident):
    """Check that ident's H column is the lifted oracle's, object for object and
    map for map, augmentations included; the number of nonzero differentials."""
    ctx = ident.double.ctx
    oracle = lifted_h_resolutions(ident.double)
    assert sorted(ident.resolutions) == sorted(oracle)
    nonzero = 0
    for q, res in ident.resolutions.items():
        ref = oracle[q]
        assert res.target is ref.target and res.complex.objects == ref.complex.objects, q
        for p in res.complex.degrees():
            assert ctx.map_eq(res.complex.diff(p), ref.complex.diff(p)), (q, p)
            nonzero += not res.complex.diff(p).is_zero()
        assert ctx.map_eq(res.augmentation, ref.augmentation), q
    return nonzero


@pytest.mark.parametrize("field", ["q", "fp:32003"])
@pytest.mark.parametrize("name,mapname,nonzero", [("pseudocircle", "collapse", [0, 0, 0]),
                                                  ("torus", "pr1", [2, 2, 1])])
def test_h_column_matches_the_lifted_oracle(name, mapname, nonzero, field):
    # the Leray identification, then idR and idT of the verify-main family;
    # the torus columns have nonzero differentials, so a wrong one shows
    inst = Instance.load(os.path.join(INSTANCES, name + ".json"), field=field_from_name(field))
    f = inst.maps[mapname]
    _, ident, _ = leray_ss(f, inst.sheaves["k"])
    _, iota, pi = inst.sequences["S"]
    family = delta_morphism(FunctorPair(f, f.source, inst.field), iota, pi)
    assert [_h_column_nonzero_diffs(i) for i in (ident, family.idR, family.idT)] == nonzero


def test_h_column_matches_the_lifted_oracle_forged():
    nonzero = 0
    for seed in range(5):
        f, sheaf = gen_leray_instance(GenConfig("h-column-%d" % seed, max_elements=5,
                                                max_stalk_dim=2))
        nonzero += _h_column_nonzero_diffs(leray_ss(f, sheaf)[1])
    assert nonzero
