import contextlib
import io
import os
import random
import re

import pytest

from engine_oracle import (
    NotOpen,
    VectorSpaces,
    gamma_struct_basis,
    gamma_struct_map_by_pairs,
    restrict_to_open,
    restricted_cohomology_dims,
)
from fixtures import fence_x4, identity_map, product, product_projection, to_point, torus_power
from oracle import order_complex_cohomology_dims
from possheaf import gross, sheafcat
from possheaf.cli import main
from possheaf.exactla import QQ, Matrix, NoSolution, PrimeField, rank
from possheaf.forge import GenConfig, _random_coinduced_map, gen_poset, gen_ses_sheaves, gen_sheaf
from possheaf.homalg import injective_resolution
from possheaf.instancefile import Instance
from possheaf.poset import Poset
from possheaf.sheafcat import (
    InjectiveSheaf,
    NotCoinduced,
    NotMono,
    Pushforward,
    Sheaf,
    SheafContext,
    SheafMorphism,
    cohomology_on_opens,
    gamma_map,
    gamma_of_complex,
    gamma_struct_map,
    global_sections,
    hom_basis,
    is_acyclic_on_all_opens,
    sections_over,
    sheaf_cohomology_dims,
)
from test_exactla_oracle import same

X4 = fence_x4()


def ctx_x4():
    return SheafContext(X4, QQ)


@pytest.mark.parametrize("fixture", ["pseudocircle", "torus"])
def test_global_sections_are_sections_over_everything(fixture):
    here = os.path.dirname(os.path.abspath(__file__))
    inst = Instance.load(os.path.join(here, "..", "instances", fixture + ".json"))
    assert inst.sheaves
    for F in inst.sheaves.values():
        assert global_sections(F) == sections_over(F, range(len(F.poset)))


def test_constant_sheaf_sections_connected():
    ctx = ctx_x4()
    k = ctx.constant_sheaf()
    assert global_sections(k).dim == 1


def test_sections_on_antichain():
    p = Poset(["u", "v"], [])
    ctx = SheafContext(p, QQ)
    assert global_sections(ctx.constant_sheaf()).dim == 2


def test_coinduced_sections_equal_multiplicity():
    ctx = ctx_x4()
    I = InjectiveSheaf(X4, QQ, [(X4.idx("c"), 2)])
    assert global_sections(I).dim == 2
    assert gamma_struct_basis(I).cols == 2
    # coinduced [c]_V has stalk V at a, b, c and 0 at d
    assert I.dims == [2, 2, 2, 0]


def test_kernel_of_identity_and_cokernel_of_zero():
    ctx = ctx_x4()
    k = ctx.constant_sheaf()
    K, _ = ctx.kernel(ctx.identity(k))
    assert ctx.is_zero_obj(K)
    zero = ctx.zero_obj()
    Q, _ = ctx.cokernel(ctx.zero_map(zero, k))
    assert Q.dims == k.dims


def test_image_on_point_poset():
    pt = Poset(["x"], [])
    ctx = SheafContext(pt, QQ)
    F = Sheaf(pt, QQ, [2], {})
    phi = SheafMorphism(F, F, [Matrix.from_rows(QQ, [[1, 0], [1, 0]])])
    I, mono, epi = ctx.image(phi)
    assert I.dims == [1]
    assert ctx.map_eq(ctx.compose(mono, epi), phi)


def test_injective_embed_constant_on_fence():
    ctx = ctx_x4()
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    assert ctx.is_mono(m)
    # total stalk dimension counts pairs y <= x: 1+1+3+3
    assert I.total_dim == 8
    Q, _ = ctx.cokernel(m)
    assert Q.total_dim == 4


def test_injective_embed_identity_on_realized():
    ctx = ctx_x4()
    I = InjectiveSheaf(X4, QQ, [(0, 1), (2, 2)])
    I2, m = ctx.injective_embed(I)
    assert I2 is I
    assert ctx.map_eq(m, ctx.identity(I))


def test_embed_of_zero():
    ctx = ctx_x4()
    I, _ = ctx.injective_embed(ctx.zero_obj())
    assert ctx.is_zero_obj(I)


def test_extend_along_mono_cases():
    pt = Poset(["x"], [])
    ctx = SheafContext(pt, QQ)
    A = Sheaf(pt, QQ, [1], {})
    B = Sheaf(pt, QQ, [2], {})
    I = InjectiveSheaf(pt, QQ, [(0, 1)])
    m = SheafMorphism(A, B, [Matrix.from_rows(QQ, [[1], [0]])])
    f = SheafMorphism(A, I, [Matrix.from_rows(QQ, [[3]])])
    g = ctx.extend_along_mono(m, f)
    assert ctx.map_eq(ctx.compose(g, m), f)
    # pivot-complement is killed
    assert g.comps[0] == Matrix.from_rows(QQ, [[3, 0]])
    # identity base: extension is f itself
    idm = ctx.identity(A)
    assert ctx.map_eq(ctx.extend_along_mono(idm, f), f)


def test_extend_requires_mono_and_coinduced():
    ctx = ctx_x4()
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    with pytest.raises(NotMono):
        ctx.extend_along_mono(ctx.zero_map(k, k), ctx.compose(m, ctx.identity(k)))
    with pytest.raises(NotCoinduced):
        ctx.extend_along_mono(ctx.identity(k), ctx.identity(k))


def test_descend_along_epi_names_the_stalk_and_the_row():
    ctx = ctx_x4()
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    Q, e = ctx.cokernel(m)
    assert ctx.map_eq(ctx.descend_along_epi(e, e), ctx.identity(Q))
    # the identity of I does not kill im(m); its first row off the row space of e_0
    # is the first row where m_0 is nonzero
    row = next(j for j in range(I.dims[0]) if not m.comps[0].rows_slice([j]).is_zero())
    want = "map does not descend along the epimorphism at %s: no preimage for row %d of the map" % (
        X4.elements[0], row)
    with pytest.raises(NoSolution, match="^%s$" % re.escape(want)) as exc:
        ctx.descend_along_epi(e, ctx.identity(I))
    assert exc.value.column == row


def test_vector_descend_along_epi_names_the_row():
    vctx = VectorSpaces(QQ)
    e = Matrix.from_rows(QQ, [[1, 0]])
    assert vctx.descend_along_epi(e, Matrix.from_rows(QQ, [[2, 0], [3, 0]])) == \
        Matrix.from_rows(QQ, [[2], [3]])
    with pytest.raises(NoSolution, match="^map does not descend along the epimorphism: "
                                         "no preimage for row 1 of the map$"):
        vctx.descend_along_epi(e, Matrix.from_rows(QQ, [[2, 0], [0, 1]]))


def test_resolution_of_constant_on_fence_matches_circle():
    # the fence is the pseudocircle; its order complex is a 4-cycle
    dims = sheaf_cohomology_dims(SheafContext(X4, QQ).constant_sheaf())
    oracle = order_complex_cohomology_dims(X4, QQ, top=len(dims) - 1)
    assert dims == oracle == [1, 1, 0, 0][: len(dims)]


def test_resolution_terminates_exactly():
    ctx = ctx_x4()
    res = injective_resolution(ctx, ctx.constant_sheaf())
    assert res.verify_exact()
    assert not res.truncated
    assert res.length() <= X4.longest_chain_length() + 2


def test_zero_sheaf_resolution_empty():
    ctx = ctx_x4()
    res = injective_resolution(ctx, ctx.zero_obj())
    assert res.complex.is_zero()


def test_product_constant_sheaf_is_torus():
    t = product(X4, X4)
    dims = sheaf_cohomology_dims(SheafContext(t, QQ).constant_sheaf())
    oracle = order_complex_cohomology_dims(t, QQ, top=len(dims) - 1)
    assert dims == oracle
    assert dims[:3] == [1, 2, 1]


def test_restrict_to_open_and_notopen():
    ctx = ctx_x4()
    k = ctx.constant_sheaf()
    FU, sub = restrict_to_open(k, {"c"})
    assert FU.dims == [1]
    with pytest.raises(NotOpen):
        restrict_to_open(k, {"a"})


def test_acyclicity_checker():
    ctx = ctx_x4()
    I, _ = ctx.injective_embed(ctx.constant_sheaf())
    assert is_acyclic_on_all_opens(I).ok
    rep = is_acyclic_on_all_opens(ctx.constant_sheaf())
    assert not rep.ok
    assert rep.failing_open == ["a", "b", "c", "d"]
    assert is_acyclic_on_all_opens(ctx.zero_obj()).ok


FIELDS = [QQ, PrimeField(3), PrimeField(32003)]
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "instances")


def _assert_open_cohomology_matches_oracle(F, max_q):
    # every open, the empty one included
    opens = [set(s) for s in F.poset.open_sets()]
    want = [restricted_cohomology_dims(F, U, max_q) for U in opens]
    assert cohomology_on_opens(F, opens, max_q) == want


def _fixture_cases():
    # the torus has 430 opens, each resolved anew by the oracle, so it runs
    # one field and degree bound per sheaf
    cases = [("pseudocircle", name, field, max_q) for name in ("k", "I", "C")
             for field in FIELDS for max_q in (None, 5)]
    return cases + [("torus", "k", QQ, None), ("torus", "I", FIELDS[1], 5),
                    ("torus", "C", FIELDS[2], None)]


@pytest.mark.parametrize("fixture,sheaf,field,max_q", _fixture_cases(), ids=str)
def test_open_cohomology_matches_restricted_resolution(fixture, sheaf, field, max_q):
    inst = Instance.load(os.path.join(FIXTURES, fixture + ".json"), field=field)
    _assert_open_cohomology_matches_oracle(inst.sheaves[sheaf], max_q)


def _first_failing_open(F):
    """The first nonempty open, in open_sets order, with H^q != 0 for some q >= 1."""
    for s in F.poset.open_sets():
        if s and any(restricted_cohomology_dims(F, s)[1:]):
            return sorted(F.poset.elements[i] for i in s)
    return None


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_open_cohomology_matches_restricted_resolution_on_forged_sheaves(field):
    constant = SheafContext(X4, field).constant_sheaf()    # H^1 of the circle on X4
    sheaves = [constant]
    for seed in range(6):
        cfg = GenConfig("opens-%d" % seed, max_elements=5, max_stalk_dim=2, field=field)
        p = gen_poset(cfg.child("poset"))
        sheaves += [gen_sheaf(cfg, p), gen_ses_sheaves(cfg, p)[1].target]
    verdicts = set()
    for F in sheaves:
        for max_q in (None, 5):
            _assert_open_cohomology_matches_oracle(F, max_q)
        rep = is_acyclic_on_all_opens(F)
        assert rep.exhaustive and rep.failing_open == _first_failing_open(F)
        verdicts.add(rep.ok)
    assert verdicts == {True, False}
    assert is_acyclic_on_all_opens(constant).failing_open == ["a", "b", "c", "d"]


def test_pushforward_identity_and_point():
    ctx = ctx_x4()
    k = ctx.constant_sheaf()
    idmap = identity_map(X4)
    pk = Pushforward(idmap).apply(k)
    assert pk.dims == k.dims
    to_pt = to_point(X4)
    ppk = Pushforward(to_pt).apply(k)
    assert ppk.dims == [global_sections(k).dim]


def _extension_probe(ctx, m, f):
    """Does g: B -> T with g.m = f exist?  Linear solve, no injectivity tags."""
    from possheaf.exactla import Matrix, NoSolution, solve

    A, B, T = m.source, m.target, f.target
    p, field = ctx.poset, ctx.field
    var_off, off = [], 0
    for i in range(len(p)):
        var_off.append(off)
        off += T.dims[i] * B.dims[i]
    rows, rhs = [], []
    for (i, j) in p.covers:   # g_j . rho^B = rho^T . g_i
        rB, rT = B.restriction(i, j), T.restriction(i, j)
        for r in range(T.dims[j]):
            for c in range(B.dims[i]):
                row = [field.zero()] * off
                for k in range(B.dims[j]):
                    row[var_off[j] + r * B.dims[j] + k] += rB.data[k][c]
                for k in range(T.dims[i]):
                    row[var_off[i] + k * B.dims[i] + c] -= rT.data[r][k]
                rows.append(row)
                rhs.append(field.zero())
    for i in range(len(p)):   # g_i . m_i = f_i
        for r in range(T.dims[i]):
            for c in range(A.dims[i]):
                row = [field.zero()] * off
                for k in range(B.dims[i]):
                    row[var_off[i] + r * B.dims[i] + k] += m.comps[i].data[k][c]
                rows.append(row)
                rhs.append(f.comps[i].data[r][c])
    if not rows:
        return True
    mat = Matrix.from_rows(field, rows, off)
    b = Matrix.from_rows(field, [[x] for x in rhs], 1)
    try:
        solve(mat, b)
        return True
    except NoSolution:
        return False


def test_pushforward_preserves_injectivity_probe():
    # f_* of a coinduced sheaf still admits extensions along monos
    t = product(X4, X4)
    pr1 = product_projection(X4, X4, 0)
    src_ctx = SheafContext(t, QQ)
    I, _ = src_ctx.injective_embed(src_ctx.constant_sheaf())
    fI = Pushforward(pr1).apply(I)
    dims = sheaf_cohomology_dims(fI)
    assert all(d == 0 for d in dims[1:])
    # genuine extension probes: random monos A -> B, random maps A -> f_*I
    from possheaf.forge import GenConfig, gen_sheaf
    from possheaf.sheafcat import hom_basis

    ctx = SheafContext(X4, QQ)
    for seed in range(4):
        A = gen_sheaf(GenConfig("probe-%d" % seed, max_stalk_dim=2), X4)
        B, mono = ctx.injective_embed(A)   # any mono out of A works as a base
        homs = hom_basis(A, fI)
        f = homs[seed % len(homs)] if homs else ctx.zero_map(A, fI)
        assert _extension_probe(ctx, mono, f)


def test_extension_probe_detects_non_injectives():
    # the constant sheaf on the fence is not injective: some map from a
    # subobject of an injective cannot be extended
    ctx = ctx_x4()
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    found_obstruction = False
    for phi in hom_basis(k, k):
        if not _extension_probe(ctx, m, phi):
            found_obstruction = True
    assert found_obstruction


def test_gamma_map_consistency():
    ctx = ctx_x4()
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    gsec = global_sections(k)
    isec = global_sections(I)
    mat = gamma_map(m, gsec.basis, isec.basis)
    assert rank(mat) == 1


def test_hom_basis_matches_coinduced_correspondence():
    ctx = ctx_x4()
    F = ctx.constant_sheaf()
    I = InjectiveSheaf(X4, QQ, [(X4.idx("c"), 1)])
    homs = hom_basis(F, I)
    # Hom(F, [c]_k) = Hom(F_c, k) is 1-dimensional
    assert len(homs) == 1


def test_gamma_left_exact_on_ses():
    ctx = ctx_x4()
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    C, e = ctx.cokernel(m)
    gk, gI, gC = global_sections(k), global_sections(I), global_sections(C)
    gm = gamma_map(m, gk.basis, gI.basis)
    ge = gamma_map(e, gI.basis, gC.basis)
    assert rank(gm) == gk.dim  # injective
    assert (ge * gm).is_zero()
    assert rank(gm) + rank(ge) >= gI.dim  # exact at middle for left-exactness check
    assert rank(gm) == gI.dim - rank(ge)


def test_stalkwise_exactness_checker():
    ctx = ctx_x4()
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    C, e = ctx.cokernel(m)
    assert ctx.is_exact_pair(m, e, I)
    assert ctx.is_mono(m) and ctx.is_epi(e)


def test_gamma_of_complex_structured():
    ctx = ctx_x4()
    res = injective_resolution(ctx, ctx.constant_sheaf())
    vec = gamma_of_complex(res.complex)
    assert vec.obj(0) == res.complex.obj(0).mult_total
    vec.validate()


# Gamma of a map between coinduced sums reads each target peak once; the
# frozen reference slices out one (target, source) summand pair at a time.

GAMMA_FIELDS = [QQ, PrimeField(32003)]
PT = {x: X4.idx(x) for x in "abcd"}
GAMMA_CASES = [
    # several summands on c on both sides; the source summand on a is absent at c and d
    ([(PT["a"], 1), (PT["c"], 2), (PT["c"], 1)], [(PT["c"], 1), (PT["a"], 2), (PT["c"], 2), (PT["d"], 1)]),
    ([], [(PT["a"], 1), (PT["c"], 2)]),     # an empty source sum
    ([(PT["b"], 2), (PT["d"], 1)], []),     # an empty target sum
    ([], []),
]


@pytest.mark.parametrize("field", GAMMA_FIELDS)
@pytest.mark.parametrize("seed", range(len(GAMMA_CASES) + 16))
def test_gamma_struct_map_matches_the_pairwise_oracle(field, seed):
    rng = random.Random("gamma/%d" % seed)
    if seed < len(GAMMA_CASES):
        sums = GAMMA_CASES[seed]
    else:
        sums = [[(rng.randrange(4), rng.randint(1, 2)) for _ in range(rng.randint(0, 5))]
                for _ in range(2)]
    ctx = SheafContext(X4, field)
    src, tgt = (InjectiveSheaf(X4, field, s) for s in sums)
    phi = _random_coinduced_map(rng, ctx, src, tgt)
    assert same(gamma_struct_map(phi), gamma_struct_map_by_pairs(phi))


HERE = os.path.dirname(os.path.abspath(__file__))
TORUS = os.path.join(HERE, "..", "instances", "torus.json")
PSEUDOCIRCLE = os.path.join(HERE, "..", "instances", "pseudocircle.json")
GAMMA_COMMANDS = [
    ["verify-main", TORUS, "--map", "pr1", "--sequence", "S"],
    ["--field", "fp:32003", "verify-main", TORUS, "--map", "pr1", "--sequence", "S"],
    ["leray", TORUS, "--map", "pr1", "--sheaf", "k"],
    ["verify-main", PSEUDOCIRCLE, "--map", "collapse", "--sequence", "S"],
    ["leray", PSEUDOCIRCLE, "--map", "collapse", "--sheaf", "k"],
]


def test_every_gamma_of_the_fixture_commands_matches_the_pairwise_oracle(monkeypatch):
    calls = []

    def recording(phi):
        got = gamma_struct_map(phi)
        calls.append((phi, got))
        return got

    monkeypatch.setattr(sheafcat, "gamma_struct_map", recording)
    monkeypatch.setattr(gross, "gamma_struct_map", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in GAMMA_COMMANDS:
            assert main(argv) == 0
    assert len(calls) > 100
    assert any(len(set(x for x, _ in phi.target.summands)) < len(phi.target.summands)
               for phi, _ in calls)         # some target holds two summands on one peak
    for phi, got in calls:
        assert same(got, gamma_struct_map_by_pairs(phi))


def test_three_torus_cohomology_matches_the_order_complex():
    T3, proj = torus_power(3)
    assert (len(T3), len(proj.target)) == (64, 16)
    k = SheafContext(T3, QQ).constant_sheaf()
    # the whole space, and the preimage of each minimal open of T^2: a circle,
    # whose list runs on in zeros to the last degree with a summand peaked in it
    fibers = [sorted(proj.preimage_idx(proj.target.up[y])) for y in range(len(proj.target))]
    whole, *over = cohomology_on_opens(k, [range(len(T3))] + fibers)
    assert whole == order_complex_cohomology_dims(T3, QQ) == [1, 3, 3, 1]
    assert all(dims[:2] == [1, 1] and not any(dims[2:]) for dims in over)
