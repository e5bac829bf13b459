"""Acceptance suite: one test per criterion, exact assertions throughout.

All arithmetic is exact, so every check is an equality, never a tolerance.
Each test prints one PASS line when its criterion holds.
"""

import pytest

from fixtures import (
    fence_x4,
    gen_leray_instance,
    gen_ses_on_source,
    identity_map,
    product_projection,
    to_point,
)
from oracle import order_complex_cohomology_dims
from possheaf.ceres import build_ce_triple, compute_invariants, verify_ce
from possheaf.exactla import QQ, Matrix, rank
from possheaf.forge import GenConfig, gen_ses_complexes
from possheaf.gross import (
    E2Identification,
    acyclic_middle_analysis,
    delta_morphism,
    first_ss_check,
    grothendieck_ss,
    leray_pair,
    leray_ss,
    verify_main_theorem,
)
from possheaf.poset import Poset
from possheaf.sheafcat import SheafContext
from possheaf.specseq import CoupleTower, DoubleComplex

X4 = fence_x4()
THETA = Poset(["a", "b", "c", "d", "e"],
              [("a", "c"), ("a", "d"), ("a", "e"), ("b", "c"), ("b", "d"), ("b", "e")])


def _announce(num, ok, detail):
    line = "criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


# -- shared batches -----------------------------------------------------------

@pytest.fixture(scope="module")
def ce_batch():
    out = []
    for seed in range(50):
        cfg = GenConfig("acc1-%d" % seed, max_elements=6, max_stalk_dim=3)
        ses = gen_ses_complexes(cfg)
        inv = compute_invariants(ses)
        ce = build_ce_triple(ses)
        out.append((ses, inv, ce))
    return out


@pytest.fixture(scope="module")
def leray_batch():
    out = []
    for seed in range(25):
        cfg = GenConfig("acc3-%d" % seed, max_elements=6, max_stalk_dim=3)
        f, sheaf = gen_leray_instance(cfg)
        out.append((f, sheaf) + leray_ss(f, sheaf))
    return out


@pytest.fixture(scope="module")
def delta_batch():
    out = []
    structured = [
        (to_point(X4), SheafContext(X4, QQ)),
        (to_point(THETA), SheafContext(THETA, QQ)),
        (identity_map(X4), SheafContext(X4, QQ)),
    ]
    for f, ctx in structured:
        k = ctx.constant_sheaf()
        I, m = ctx.injective_embed(k)
        C, e = ctx.cokernel(m)
        fam = delta_morphism(leray_pair(f, QQ), m, e)
        out.append((fam, verify_main_theorem(fam)))
    for seed in range(22):
        cfg = GenConfig("acc5-%d" % seed, max_elements=5, max_stalk_dim=2)
        f, _ = gen_leray_instance(cfg)
        ctx, mono, epi = gen_ses_on_source(cfg, f)
        fam = delta_morphism(leray_pair(f, QQ), mono, epi)
        out.append((fam, verify_main_theorem(fam)))
    return out


@pytest.fixture(scope="module")
def torus_data():
    pr1 = product_projection(X4, X4, 0)
    ctx = SheafContext(pr1.source, QQ)
    return pr1, ctx, leray_ss(pr1, ctx.constant_sheaf())


@pytest.fixture(scope="module")
def torus_family():
    pr1 = product_projection(X4, X4, 0)
    ctx = SheafContext(pr1.source, QQ)
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    C, e = ctx.cokernel(m)
    pair = leray_pair(pr1, QQ)
    family = delta_morphism(pair, m, e)
    return pair, m, e, family


# -- the criteria --------------------------------------------------------------

def test_criterion_1_ce_triple_validity(ce_batch):
    passed = 0
    for ses, inv, ce in ce_batch:
        ok = all(verify_ce(ce.doubles[name]).ok for name in ("A", "B", "C"))
        for p in range(ce.depth()):
            t = ce.triples[p]
            for q in t.inv.main_degrees():
                if not ses.ctx.is_exact_pair(ce.row_iotas[p].comp(q), ce.row_pis[p].comp(q),
                                             t.cplx["J"].obj(q)):
                    ok = False
        passed += ok
    _announce(1, passed == 50, "%d/50 CE triples verified" % passed)


def test_criterion_2_nineteen_sequences(ce_batch):
    labels = 0
    for ses, inv, ce in ce_batch:
        counts = inv.label_counts()
        # construction raises on any inexact sequence, so presence means exact
        labels += len(counts)
    _announce(2, labels == 19 * 50, "%d/950 labels exact" % labels)


def test_criterion_3_e2_identification(leray_batch):
    ok_all = True
    for f, sheaf, data, ident, comparisons in leray_batch:
        if not ident.check():
            ok_all = False
        if not all(a == b for a, b in comparisons.values()):
            ok_all = False
    _announce(3, ok_all, "25 instances, dims and invertible identifications")


def test_criterion_4_first_sequence(leray_batch):
    ok_all = all(first_ss_check(data).ok for _, _, data, _, _ in leray_batch)
    _announce(4, ok_all, "etild vanishing and augmentation quasi-isos")


def test_criterion_5_main_theorem(delta_batch):
    passed = sum(rep.ok for _, rep in delta_batch)
    nontrivial = sum(any(fam.mor.signs.values()) for fam, _ in delta_batch)
    _announce(5, passed == len(delta_batch),
              "%d/%d SESs, all three bullets (%d with nonzero coboundary)"
              % (passed, len(delta_batch), nontrivial))
    assert nontrivial >= 3


def test_criterion_6_torus_fixture(torus_data):
    pr1, ctx, (data, ident, comparisons) = torus_data
    ok = data.ss.page_dims(2) == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    ok = ok and data.ss.page_dims(data.ss.r_inf) == data.ss.page_dims(2)
    h = [data.ss.total_h_dim(n) for n in range(3)]
    ok = ok and h == [1, 2, 1]
    oracle = order_complex_cohomology_dims(pr1.source, QQ)[:3]
    ok = ok and oracle == [1, 2, 1]
    ok = ok and ident.check()
    ok = ok and all(a == b for a, b in comparisons.values())
    _announce(6, ok, "E2 = ones on {0,1}^2, degenerate, H = (1,2,1) = oracle")


def test_criterion_7_acyclic_middle(torus_family):
    pair, m, e, _ = torus_family
    rep = acyclic_middle_analysis(pair, m, e)
    _announce(7, rep.ok, "delta_inf and filtration rank equalities over the torus")


def test_criterion_8_convergence(leray_batch, delta_batch, torus_data, torus_family):
    ok = True
    for _, _, data, _, _ in leray_batch:
        if not data.ss.convergence_ok():
            ok = False
    for fam, _ in delta_batch[:5]:
        if not (fam.ssR.convergence_ok() and fam.ssT.convergence_ok()):
            ok = False
    _, _, (data, _, _) = torus_data
    ok = ok and data.ss.convergence_ok()
    _, _, _, family = torus_family
    ok = ok and family.ssR.convergence_ok() and family.ssT.convergence_ok()
    # the staircase shows a nonzero d_2 with E_3 = 0
    dims = [[0] * 3 for _ in range(3)]
    horiz = [[None] * 3 for _ in range(3)]
    vert = [[None] * 3 for _ in range(3)]
    one = Matrix.identity(QQ, 1)
    dims[0][1] = dims[1][0] = dims[1][1] = dims[2][0] = 1
    horiz[0][1] = one
    vert[1][0] = one
    horiz[1][0] = one
    ss = CoupleTower(DoubleComplex(QQ, 2, dims, horiz, vert))
    ok = ok and rank(ss.page(2).d_map(0, 1)) == 1
    ok = ok and ss.page_dims(3) == {}
    ok = ok and ss.convergence_ok()
    _announce(8, ok, "sum of E_inf dims equals total cohomology; staircase d_2 != 0")


def test_criterion_9_choice_independence():
    ok = True
    for seed in range(10):
        cfg = GenConfig("acc9-%d" % seed, max_elements=5, max_stalk_dim=2)
        f, sheaf = gen_leray_instance(cfg)
        d1 = grothendieck_ss(leray_pair(f, QQ), sheaf)
        d2 = grothendieck_ss(leray_pair(f, QQ, flip=True), sheaf)
        for r in range(2, min(d1.ss.r_inf, d2.ss.r_inf) + 1):
            if d1.ss.page_dims(r) != d2.ss.page_dims(r):
                ok = False
    _announce(9, ok, "10 instances, equal page dimension tables for r >= 2")
