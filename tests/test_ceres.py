import os

import pytest

from engine_oracle import render
from fixtures import fence_x4, triple_ses
from possheaf.ceres import (
    ES_LABELS,
    InternalCommutativityFailure,
    InternalExactnessFailure,
    build_ce_triple,
    build_injective_triple,
    ce_resolution_of_complex,
    compute_invariants,
    verify_ce,
)
from possheaf.exactla import QQ, Matrix, field_from_name
from possheaf.forge import GenConfig, gen_ses_complexes
from possheaf.homalg import (
    ChainMap,
    CochainComplex,
    SESOfComplexes,
    TruncationInsufficient,
    horseshoe,
    injective_resolution,
)
from possheaf.sheafcat import SheafContext, VectorContext

X4 = fence_x4()


def fence_ctx():
    return SheafContext(X4, QQ)


def injective_middle_ses(ctx):
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    C, e = ctx.cokernel(m)
    A1 = CochainComplex(ctx, {0: k}, {})
    B1 = CochainComplex(ctx, {0: I}, {})
    C1 = CochainComplex(ctx, {0: C}, {})
    return SESOfComplexes(ChainMap(A1, B1, {0: m}), ChainMap(B1, C1, {0: e}))


def horseshoe_ses(ctx):
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    C, e = ctx.cokernel(m)
    hs = horseshoe(ctx, m, e, injective_resolution(ctx, k), injective_resolution(ctx, C))
    return hs.as_ses()


def test_invariants_split_zero_differentials():
    V = VectorContext(QQ)
    A = CochainComplex(V, {0: 1, 1: 1}, {0: Matrix.zeros(QQ, 1, 1)})
    C = CochainComplex(V, {0: 2, 1: 2}, {0: Matrix.zeros(QQ, 2, 2)})
    B = CochainComplex(V, {0: 3, 1: 3}, {0: Matrix.zeros(QQ, 3, 3)})
    iota = ChainMap(A, B, {q: Matrix.from_rows(QQ, [[1], [0], [0]]) for q in (0, 1)})
    pi = ChainMap(B, C, {q: Matrix.from_rows(QQ, [[0, 1, 0], [0, 0, 1]]) for q in (0, 1)})
    inv = compute_invariants(SESOfComplexes(iota, pi))
    for q in (0, 1):
        assert inv.A.W[q] == 0                # H(A) -> H(B) is mono
        assert inv.A.X[q] == 0
        assert inv.A.B[q] == inv.B.B[q] == inv.C.B[q] == 0
        assert inv.A.H[q] == 1 and inv.B.H[q] == 3 and inv.C.H[q] == 2
        assert inv.B.W[q] == 1                # kernel of H(B) -> H(C) is the A part
        assert inv.C.W[q] == 2                # connecting map is zero


def test_invariants_epi_onto_b():
    # A -> B iso in degree 0, C = 0: every C-side object vanishes
    V = VectorContext(QQ)
    A = CochainComplex(V, {0: 2}, {})
    B = CochainComplex(V, {0: 2}, {})
    C = CochainComplex(V, {0: 0}, {})
    ses = SESOfComplexes(ChainMap(A, B, {0: Matrix.identity(QQ, 2)}),
                         ChainMap(B, C, {0: Matrix.zeros(QQ, 0, 2)}))
    inv = compute_invariants(ses)
    assert inv.C.H[0] == 0 and inv.C.W[0] == 0 and inv.C.X[0] == 0


def test_nineteen_labels_present():
    inv = compute_invariants(injective_middle_ses(fence_ctx()))
    counts = inv.label_counts()
    assert set(counts) == set(ES_LABELS)
    assert all(c >= 1 for c in counts.values())


def test_triple_single_degree_shape():
    ctx = fence_ctx()
    ses = injective_middle_ses(ctx)
    triple = build_injective_triple(compute_invariants(ses))
    k = ctx.constant_sheaf()
    I, _ = ctx.injective_embed(k)
    # with zero differentials, I^0 is the chosen injective of A's cohomology
    assert triple.cplx["I"].obj(0).dims == I.dims
    # rows are exact and the differentials square to zero by construction
    triple.cplx["J"].validate()
    ses_row = triple_ses(triple)
    assert ses_row.A is triple.cplx["I"]


def test_triple_on_horseshoe_ses():
    ctx = fence_ctx()
    ses = horseshoe_ses(ctx)
    triple = build_injective_triple(compute_invariants(ses))
    for q in triple.inv.main_degrees():
        assert ctx.is_mono(triple.aug["B"].comp(q))


def test_i_column_alone_is_the_full_triples_i_column():
    ctx = fence_ctx()
    ses = horseshoe_ses(ctx)
    inv = compute_invariants(ses)
    full = build_injective_triple(inv)
    alone = build_injective_triple(compute_invariants(ses, full=False))
    assert set(alone.cplx) == {"I"} and set(alone.aug) == {"A"}
    assert not hasattr(alone, "iota")
    for q in inv.degrees():
        assert alone.cplx["I"].obj(q).summands == full.cplx["I"].obj(q).summands
        assert _map_text(alone.cplx["I"].diff(q)) == _map_text(full.cplx["I"].diff(q))
        assert _map_text(alone.aug["A"].comp(q)) == _map_text(full.aug["A"].comp(q))


def test_zero_ses_gives_zero_triple():
    ctx = fence_ctx()
    z = ctx.zero_obj()
    Z = CochainComplex(ctx, {0: z}, {})
    ses = SESOfComplexes(ChainMap(Z, Z, {0: ctx.zero_map(z, z)}),
                         ChainMap(Z, Z, {0: ctx.zero_map(z, z)}))
    ce = build_ce_triple(ses)
    assert ce.depth() == 0
    assert verify_ce(ce.doubles["A"]).ok


def test_ce_triple_verifies_on_fence():
    ctx = fence_ctx()
    ce = build_ce_triple(horseshoe_ses(ctx))
    assert ce.depth() <= X4.longest_chain_length() + 2
    for name in ("A", "B", "C"):
        rep = verify_ce(ce.doubles[name])
        assert rep.ok, render(rep)
    # row exactness in every bidegree
    for p in range(ce.depth()):
        for q in ce.triples[p].inv.main_degrees():
            i = ce.row_iotas[p].comp(q)
            pi = ce.row_pis[p].comp(q)
            assert ctx.is_exact_pair(i, pi, ce.triples[p].cplx["J"].obj(q))


def test_ce_of_single_complex():
    ctx = fence_ctx()
    k = ctx.constant_sheaf()
    res = injective_resolution(ctx, k)
    double = ce_resolution_of_complex(
        CochainComplex(ctx, {0: k, 1: k}, {0: ctx.zero_map(k, k)}))
    assert verify_ce(double).ok
    assert res is not None


def test_both_iterations_stop_at_the_same_hard_cap(monkeypatch):
    # the cap is four past the resolution bound; a bound of -4 stops the
    # iteration once it is still alive after one row, and the fence horseshoe
    # needs two
    ctx = fence_ctx()
    ses = horseshoe_ses(ctx)
    monkeypatch.setattr(ctx, "resolution_bound", lambda: -4)
    with pytest.raises(TruncationInsufficient, match="still alive after 1 rows"):
        build_ce_triple(ses)
    with pytest.raises(TruncationInsufficient, match="still alive after 1 rows"):
        ce_resolution_of_complex(ses.B)
    assert build_ce_triple(ses, depth=0).depth() == 2   # depth only raises the cap


def test_ce_on_vector_context_closes_immediately():
    V = VectorContext(QQ)
    A = CochainComplex(V, {0: 1, 1: 1}, {0: Matrix.from_rows(QQ, [[0]])})
    B = CochainComplex(V, {0: 2, 1: 2}, {0: Matrix.zeros(QQ, 2, 2)})
    C = CochainComplex(V, {0: 1, 1: 1}, {0: Matrix.zeros(QQ, 1, 1)})
    ses = SESOfComplexes(
        ChainMap(A, B, {q: Matrix.from_rows(QQ, [[1], [0]]) for q in (0, 1)}),
        ChainMap(B, C, {q: Matrix.from_rows(QQ, [[0, 1]]) for q in (0, 1)}))
    ce = build_ce_triple(ses)
    assert ce.depth() == 1
    for name in ("A", "B", "C"):
        assert verify_ce(ce.doubles[name]).ok


def test_corrupted_double_is_located():
    ctx = fence_ctx()
    ce = build_ce_triple(injective_middle_ses(ctx))
    double = ce.doubles["B"]
    # corrupt the first horizontal map by zeroing it
    bad_dh = list(double.dh)
    q0 = 0
    bad_comps = dict(bad_dh[0].comps)
    bad_comps[q0] = ctx.zero_map(double.rows[0].obj(q0), double.rows[1].obj(q0))
    from possheaf.ceres import AugmentedDouble

    corrupt = AugmentedDouble(ctx, double.base, double.rows,
                              [ChainMap(bad_dh[0].source, bad_dh[0].target, bad_comps,
                                        validate=False)] + bad_dh[1:],
                              double.augmentation, double.columns, double.triples)
    rep = verify_ce(corrupt)
    assert not rep.ok
    assert rep.failures()


def test_degree_bound_preserved():
    ctx = fence_ctx()
    ses = horseshoe_ses(ctx)
    ce = build_ce_triple(ses)
    for name in ("A", "B", "C"):
        for row in ce.doubles[name].rows:
            for q in row.degrees():
                if q < 0:
                    assert ctx.is_zero_obj(row.obj(q))


# -- the one-column resolution against the full triple's I column --------------

def _map_text(m):
    return [(c.rows, c.cols, c.to_str_rows()) for c in m.comps]


def _double_text(double):
    """Everything a reader of a CE double sees, as comparable text: per row
    the degree range, summands and differentials, the ZI/HI tag sums; then
    the horizontal maps and the augmentation."""
    out = []
    _, ztag, htag = double.columns
    for p, (row, triple) in enumerate(zip(double.rows, double.triples)):
        out.append(("row", p, row.lo, row.hi))
        for q in row.degrees():
            out.append(("obj", p, q, row.obj(q).summands, _map_text(row.diff(q))))
            for tag in (ztag, htag):
                ts = triple.sum_at(tag, q)
                out.append((tag, p, q, ts.keys, ts.obj.summands))
    for p, f in enumerate(double.dh):
        for q in double.degrees():
            out.append(("dh", p, q, _map_text(f.comp(q))))
    if double.rows:
        for q in double.degrees():
            out.append(("aug", q, _map_text(double.augmentation.comp(q))))
    return out


def _identity_ses_oracle(cplx):
    """X -> X -> 0 with the zero complex over X's degrees."""
    ctx = cplx.ctx
    zero = CochainComplex(ctx, {q: ctx.zero_obj() for q in cplx.degrees()}, {})
    return SESOfComplexes(
        ChainMap(cplx, cplx, {q: ctx.identity(cplx.obj(q)) for q in cplx.degrees()}),
        ChainMap(cplx, zero, {q: ctx.zero_map(cplx.obj(q), ctx.zero_obj())
                              for q in cplx.degrees()}))


# seeds 8, 18 and 21 each give a B whose first cokernel sits in degree 0
# alone while row 0 starts at -1; a zero complex placed over the cokernel's
# own degrees, not at -1, would start row 1 at 0 instead of -1
@pytest.mark.parametrize("field,seeds", [("q", (0, 1, 8)), ("fp:3", (2, 18)),
                                         ("fp:32003", (3, 21))])
def test_single_complex_matches_the_full_triple(field, seeds):
    # forged at the selftest bounds; A, B and C are each resolved alone
    for seed in seeds:
        cfg = GenConfig("ce-column-%d" % seed, max_elements=5, max_stalk_dim=2,
                        field=field_from_name(field))
        ses = gen_ses_complexes(cfg)
        for name in ("A", "B", "C"):
            X = getattr(ses, name)
            double = ce_resolution_of_complex(X)
            oracle = build_ce_triple(_identity_ses_oracle(X)).doubles["A"]
            assert _double_text(double) == _double_text(oracle), (field, seed, name)
            assert verify_ce(double).ok, (field, seed, name)
            assert all(set(t.cplx) == {"I"} for t in double.triples)   # no J, K built


# forged CE triples against a recording; seeds 0, 1 and 5 take
# gen_ses_complexes' mapping-cone branch, 2, 3 and 4 its horseshoe branch
FORGED_CE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "forge-ce.txt")
FORGED_CE_CASES = [(field, seed) for field in ("q", "fp:32003") for seed in range(6)]


def forged_ce_text(field, seed):
    """The three doubles and the row iota/pi maps of one forged CE triple,
    one repr per line, under a header naming the case."""
    cfg = GenConfig("ce-golden-%d" % seed, max_elements=5, max_stalk_dim=2,
                    field=field_from_name(field))
    ce = build_ce_triple(gen_ses_complexes(cfg))
    out = [("case", field, seed)]
    for name in ("A", "B", "C"):
        out += [(name,) + item for item in _double_text(ce.doubles[name])]
    for p, (iota, pi) in enumerate(zip(ce.row_iotas, ce.row_pis)):
        for q in iota.source.degrees():
            out.append(("iota", p, q, _map_text(iota.comp(q))))
        for q in pi.source.degrees():
            out.append(("pi", p, q, _map_text(pi.comp(q))))
    return "".join(repr(item) + "\n" for item in out)


def test_forged_ce_triples_match_the_recording():
    with open(FORGED_CE) as fh:
        recorded = fh.read()
    assert "".join(forged_ce_text(*case) for case in FORGED_CE_CASES) == recorded


# -- invariants of A alone against the full pass ------------------------------

def _obj_text(obj):
    return obj.dims, sorted((c, obj.restriction(*c).to_str_rows()) for c in obj.poset.covers)


def _a_side_text(inv):
    """A's objects and witnesses, h_iota, W(B) and A's five sequences, as text."""
    out = []
    A = inv.A
    for q in inv.degrees():
        for obj, mono in ((A.Z, A.z_mono), (A.B, A.b_in_z), (A.H, A.h_proj),
                          (A.W, A.w_mono), (A.X, A.x_mono), (inv.B.W, inv.B.w_mono)):
            out.append((q, _obj_text(obj[q]), _map_text(mono[q])))
        out.append((q, _map_text(A.b_in_x[q]), _map_text(A.d_epi[q]),
                    _map_text(inv.h_iota[q])))
    for label in ("es1", "es4", "es7", "es10", "es13"):
        for q, w in sorted(inv.seqs[label].items()):
            out.append((label, q, _obj_text(w.L), _obj_text(w.M), _obj_text(w.R),
                        _map_text(w.f), _map_text(w.g)))
    return out


@pytest.mark.parametrize("field", ["q", "fp:3", "fp:32003"])
def test_invariants_of_a_alone_are_the_full_passs_a_side(field):
    # W(A) is nonzero at seeds 2 and 7, B(A) at 0, 2 and 4; A is acyclic at 1 and 3
    for seed in range(8):
        def forged():
            return gen_ses_complexes(GenConfig("a-alone-%d" % seed, max_elements=5,
                                               max_stalk_dim=2, field=field_from_name(field)))
        full, alone = compute_invariants(forged()), compute_invariants(forged(), full=False)
        assert full.names == ("A", "B", "C") and alone.names == ("A",)
        assert _a_side_text(alone) == _a_side_text(full), (field, seed)
        others = [label for label in ES_LABELS
                  if label not in ("es1", "es4", "es7", "es10", "es13")]
        assert len(others) == 14
        assert all(not alone.seqs[label] for label in others), (field, seed)
        assert not alone.delta and not alone.C.W and not alone.B.X and not alone.B.Z
        assert all(full.seqs[label] for label in ES_LABELS)


@pytest.mark.parametrize("label", ["es4", "es7", "es13"])
def test_a_row_of_a_alone_still_checks_a_s_ladders(label):
    # doubling the left map of one of A's sequences breaks only that ladder's
    # left square, which the I column must catch without J and K
    ctx = fence_ctx()
    inv = compute_invariants(horseshoe_ses(ctx), full=False)
    bent = [w for w in inv.seqs[label].values() if not ctx.is_zero_map(w.f)]
    assert bent
    for w in bent:
        w.f = ctx.add(w.f, w.f)
    with pytest.raises(InternalCommutativityFailure, match="ladder %s@.*left square" % label):
        build_injective_triple(inv)
