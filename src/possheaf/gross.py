"""Grothendieck and Leray spectral sequences with coboundary morphisms.

Pipeline: resolve in sheaves on the source space, push forward, take a
linked Cartan-Eilenberg resolution, apply global sections, and run the
column-filtration spectral sequence.  For a short exact sequence of sheaves
the same machinery produces a morphism of exact couples whose page maps
delta_r connect the spectral sequences of the cokernel and kernel sheaf;
the three assertions made about these maps (commutation with d_r up to one
recorded sign, the derived-functor description of delta_2, and filtration
compatibility of the total-degree connecting maps) are verified, not
assumed.

Sign bookkeeping: the quotient complexes of the column filtration carry the
total-complex sign (-1)^p on their differential, while the sheaf-level
connecting maps of the rows do not; the transport between the two therefore
includes an explicit (-1)^p factor, and every remaining sign is recorded
globally per statement.
"""

from __future__ import annotations

import functools

from . import homalg
from .ceres import build_ce_triple, ce_resolution_of_complex
from .exactla import Matrix, NoSolution, place_blocks, rank, solve
from .homalg import ChainMap, CheckReport, CochainComplex, SESOfComplexes
from .poset import MonotoneMap
from .sheafcat import (
    Pushforward,
    SheafContext,
    SheafMorphism,
    VectorContext,
    gamma_map,
    gamma_of_complex,
    gamma_read_struct,
    gamma_struct_map,
    global_sections,
    is_acyclic_on_all_opens,
    sheaf_cohomology_dims,
)
from .specseq import (
    CoupleMorphism,
    CoupleTower,
    DoubleComplex,
    Subquotient,
    global_sign,
    tot_block_map,
)


class AcyclicityViolation(Exception):
    """F of a chosen injective failed the computed G-acyclicity test."""


class PreconditionFailed(Exception):
    """A checked hypothesis of the analysis does not hold."""


class FunctorPair:
    """F = pushforward along a monotone map (or identity), G = global sections."""

    def __init__(self, f: MonotoneMap | None, source_poset, field):
        self.f = f
        self.field = field
        self.src_poset = source_poset
        self.tgt_poset = f.target if f is not None else source_poset
        self.src_ctx = SheafContext(self.src_poset, field)
        self.tgt_ctx = SheafContext(self.tgt_poset, field)
        self.push = Pushforward(f) if f is not None else None

    # -- F ---------------------------------------------------------------

    def apply_F(self, sheaf):
        if self.push is None:
            return sheaf
        return self.push.apply(sheaf)

    def apply_F_map(self, phi, pushed_src, pushed_tgt):
        if self.push is None:
            return phi
        return self.push.apply_map(phi, pushed_src, pushed_tgt)

    def F_complex(self, cplx: CochainComplex) -> CochainComplex:
        objs = {q: self.apply_F(cplx.obj(q)) for q in cplx.degrees()}
        diffs = {}
        for q in cplx.degrees():
            if q + 1 in objs:
                diffs[q] = self.apply_F_map(cplx.diff(q), objs[q], objs[q + 1])
        return CochainComplex(self.tgt_ctx, objs, diffs)

    def F_ses(self, hs: homalg.HorseshoeData) -> SESOfComplexes:
        """F applied to a degree-wise split SES of resolutions (stays exact)."""
        FA = self.F_complex(hs.res_a.complex)
        FB = self.F_complex(hs.res_b.complex)
        FC = self.F_complex(hs.res_c.complex)
        iot = ChainMap(FA, FB, {q: self.apply_F_map(hs.iota_res.comp(q), FA.obj(q), FB.obj(q))
                                for q in FA.degrees() if q in FB.objects})
        pii = ChainMap(FB, FC, {q: self.apply_F_map(hs.pi_res.comp(q), FB.obj(q), FC.obj(q))
                                for q in FB.degrees() if q in FC.objects})
        return SESOfComplexes(iot, pii)

    # -- G-acyclicity of F(injective), verified by computation --------------

    def check_acyclic(self, sheaf, tag):
        dims = sheaf_cohomology_dims(sheaf)
        if any(d != 0 for d in dims[1:]):
            raise AcyclicityViolation(
                "F(%s) is not G-acyclic: R^qG dims %s" % (tag, dims))


def _linked_resolutions(pair: FunctorPair, iota, pi) -> homalg.HorseshoeData:
    ctx = pair.src_ctx
    A = iota.source
    C = pi.target
    res_a = homalg.injective_resolution(ctx, A)
    res_c = homalg.injective_resolution(ctx, C)
    return homalg.horseshoe(ctx, iota, pi, res_a, res_c)


class GrothendieckData:
    """One object's (or SES's) full pipeline output."""

    def __init__(self, pair, double, ss, base_complex, base_gamma):
        self.pair = pair
        self.double = double          # AugmentedDouble (sheaf level)
        self.ss = ss                  # CoupleTower of the DoubleComplex ss.dc of Gamma values
        self.base_complex = base_complex  # F(M*) on the target space
        self.base_gamma = base_gamma  # (vector complex of G(F(M*)), bases)


def _grid_size(double) -> int:
    """The grid bound D of a CE column: past its last row and every row's top degree."""
    return max(double.depth() - 1, max((r.hi for r in double.rows), default=0), 0) + 1


def _gamma_double(pair: FunctorPair, double, size=None) -> DoubleComplex:
    """Gamma of a sheaf-level CE column, in structured coordinates.

    Each row is a complex of realized injectives, so each map of the grid is
    `gamma_struct_map` of a sheaf map, and `DoubleComplex.validate` checks
    d.d = 0 and the squares; the grid bound D is `_grid_size` unless given.
    """
    depth = double.depth()
    if min((r.lo for r in double.rows), default=0) < 0:
        raise ValueError("first-quadrant grids only")
    D = size if size is not None else _grid_size(double)
    dims = [[0] * (D + 1) for _ in range(D + 1)]
    horiz = [[None] * (D + 1) for _ in range(D + 1)]
    vert = [[None] * (D + 1) for _ in range(D + 1)]
    for p in range(depth):
        row = double.rows[p]
        for q in row.degrees():
            dims[p][q] = row.obj(q).mult_total
            if q + 1 in row.objects:
                vert[p][q] = gamma_struct_map(row.diff(q))
            if p < depth - 1 and q <= double.rows[p + 1].hi:
                horiz[p][q] = gamma_struct_map(double.dh[p].comp(q))
    return DoubleComplex(pair.field, D, dims, horiz, vert)


def _gamma_base(pair: FunctorPair, cplx: CochainComplex):
    bases = {q: global_sections(cplx.obj(q)) for q in cplx.degrees()}
    objs = {q: bases[q].dim for q in cplx.degrees()}
    diffs = {}
    for q in cplx.degrees():
        if q + 1 in objs:
            diffs[q] = gamma_map(cplx.diff(q), bases[q].basis, bases[q + 1].basis)
    return CochainComplex(VectorContext(pair.field), objs, diffs), bases


def grothendieck_ss(pair: FunctorPair, A) -> GrothendieckData:
    """The spectral sequence of one object, with its CE scaffolding."""
    res = homalg.injective_resolution(pair.src_ctx, A)
    FM = pair.F_complex(res.complex)
    for t in FM.degrees():
        pair.check_acyclic(FM.obj(t), ("res", t))
    double = ce_resolution_of_complex(FM)
    ss = CoupleTower(_gamma_double(pair, double))
    base_gamma = _gamma_base(pair, FM)
    return GrothendieckData(pair, double, ss, FM, base_gamma)


# -- the first (by-q) spectral sequence check --------------------------------

def first_ss_check(data: GrothendieckData) -> CheckReport:
    """Vanishing of the row cohomology for p > 0 and the augmentation quasi-iso."""
    rep = CheckReport()
    ss = data.ss
    dc = ss.dc
    base_vec, bases = data.base_gamma

    def row_h_dim(p, q):
        return dc.dim(p, q) - rank(dc.h(p, q)) - rank(dc.h(p - 1, q))

    fails = []
    for q in range(dc.size + 1):
        expected = bases[q].dim if q in bases else 0
        rep.add("row cohomology at (0,%d) = G(A^%d)" % (q, q), row_h_dim(0, q) == expected)
        for p in range(1, dc.size + 1):
            if row_h_dim(p, q) != 0:
                fails.append((p, q))
    rep.add("row cohomology vanishes for p > 0%s"
            % ("" if not fails else " (first survivor %s)" % (fails[0],)), not fails)
    # E_1 of the by-q filtration (the transposed grid), read off the rows: this
    # checks Subquotient.cohomology against the rank formula on the same
    # matrices; test_by_q_e1_matches_transposed_tower compares by_q_e1 with
    # a real CoupleTower on dc.transpose()
    ok = all(by_q_e1(dc, p, q).dim == row_h_dim(p, q)
             for q in range(dc.size + 1) for p in range(dc.size + 1))
    rep.add("by-q tower matches row cohomology", ok)
    # augmentation (G.F)(M*) -> Tot(R) is a quasi-isomorphism
    aug_cols = {}
    for n in base_vec.degrees():
        if 0 <= n <= ss.nmax:
            aug_cols[n] = augmentation_into_tot(data.pair, data.double, ss, bases, n)
    ok_chain = True
    for n in sorted(aug_cols):
        un1 = aug_cols.get(n + 1)
        if un1 is not None:
            if not (ss.tot_diff[n] * aug_cols[n] == un1 * base_vec.diff(n)):
                ok_chain = False
    rep.add("augmentation is a chain map", ok_chain)
    ok_iso = True
    for n in range(ss.nmax + 1):
        hb, htot = gamma_cohomology(base_vec, n), ss.A1[(0, n)]   # hb is 0 off base_vec
        if hb.dim != htot.dim or hb.dim and rank(htot.project(aug_cols[n] * hb.reps)) != hb.dim:
            ok_iso = False
    rep.add("augmentation induces isos on H^n", ok_iso)
    return rep


def by_q_e1(dc: DoubleComplex, p, q) -> Subquotient:
    """E_1^{q,p} of the transposed grid: the horizontal cohomology at (p, q)."""
    return Subquotient.cohomology(dc.field, dc.dim(p, q), dc.h(p, q),
                                  dc.h(p - 1, q) if p else None)


def gamma_cohomology(vec: CochainComplex, p) -> Subquotient:
    """H^p of a complex of Gamma values, as ker d^p / im d^(p-1) in its p-th space."""
    return Subquotient.cohomology(vec.ctx.field, vec.obj(p), vec.diff(p), vec.diff(p - 1))


def augmentation_into_tot(pair, double, tower, bases, n) -> Matrix:
    """G(A^n) -> Tot^n: sections of the base complex included into the (0, n)
    block of the total complex, in structured coordinates."""
    tot_dim = tower.tot_dim.get(n, 0)
    src = bases.get(n)
    base_off = tower.offsets.get((n, 0, n))
    if src is None or tot_dim == 0 or base_off is None:
        return Matrix.zeros(pair.field, tot_dim, 0 if src is None else src.dim)
    moved = double.augmentation.comp(n).as_block_matrix() * src.basis
    struct = gamma_read_struct(double.rows[0].obj(n), moved)
    return place_blocks(pair.field, tot_dim, src.dim, [(base_off, 0, struct)])


# -- E2 identification -------------------------------------------------------

class E2Identification:
    """Explicit iso E_2^{p,q} -> H^p(G(H-resolution of R^qF)), per bidegree.

    The H-resolution is each row's tagged H part, read by structural maps:
    the row's differential has the tagged cocycles as kernel and the tagged
    coboundaries as image."""

    def __init__(self, double, ss):
        self.double = double
        self.ss = ss
        self.resolutions = {}    # q -> the tagged H objects, a homalg.Resolution of R^qF
        self.vec_h = {}          # q -> vector complex of Gamma(H)
        self._h = {}             # (p, q) -> H^p(vec_h[q]), as a Subquotient
        self._build()

    def _parts(self, q):
        """p -> (row object, its H part) at degree q, as keyed sums, for each row tagged there."""
        col, _, htag = self.double.columns
        return {p: (t.sum_at(col, q), t.sum_at(htag, q))
                for p, t in enumerate(self.double.triples) if q in t.sums[htag]}

    def _build(self):
        double, ctx = self.double, self.double.ctx
        for q in range(double.base.lo, double.base.hi + 1):
            parts = self._parts(q)
            if not parts:
                continue
            diffs = {}
            for p, (row, h) in parts.items():
                if p + 1 in parts:
                    row1, h1 = parts[p + 1]
                    diffs[p] = ctx.compose(row1.structural_to(h1),
                                           ctx.compose(double.dh[p].comp(q), h.structural_to(row)))
            cplx = CochainComplex(ctx, {p: h.obj for p, (_, h) in parts.items()}, diffs)
            base = homalg.cohomology(double.base, q)
            row0, h0 = parts[0]
            aug = ctx.descend_along_epi(base.proj, ctx.compose(
                row0.structural_to(h0), ctx.compose(double.augmentation.comp(q), base.z_mono)))
            self.resolutions[q] = homalg.Resolution(base.H, cplx, aug)
            self.vec_h[q] = gamma_of_complex(cplx)

    def cohomology(self, p, q) -> Subquotient:
        """H^p of the Gamma'd H-resolution of R^qF, made on first read and kept."""
        if (p, q) not in self._h:
            self._h[(p, q)] = gamma_cohomology(self.vec_h[q], p)
        return self._h[(p, q)]

    def identification_matrix(self, p, q) -> Matrix:
        """E_2^{p,q} (page witnesses) -> H^p of the Gamma'd H-resolution."""
        e2 = self.ss.entry(2, p, q)
        if q not in self.vec_h or e2.dim == 0:
            hdim = self.cohomology(p, q).dim if q in self.vec_h else 0
            return Matrix.zeros(self.double.ctx.field, hdim, e2.dim)
        row, h = self._parts(q)[p]
        # Gamma of the projection onto the H part, in the subquotient coordinates of the H complex
        return self.cohomology(p, q).project(gamma_struct_map(row.structural_to(h)) * e2.reps)

    def check(self) -> bool:
        for q in self.vec_h:
            for p in range(self.double.depth()):
                e2 = self.ss.entry(2, p, q)
                if e2.dim != self.cohomology(p, q).dim:
                    return False
                if rank(self.identification_matrix(p, q)) != e2.dim:
                    return False
        return True


# -- the coboundary family ----------------------------------------------------

class DeltaFamily:
    """Page maps delta_r: E_r^{p,q}(C) -> E_r^{p,q+1}(A) with all witnesses.

    The E2 identifications of R and T are built when first read: only
    `verify_main_theorem` reads them.
    """

    def __init__(self, pair, F_ses, ce, ssR, ssT, mor):
        self.pair = pair
        self.F_ses = F_ses
        self.ce = ce
        self.ssR, self.ssT = ssR, ssT
        self.mor = mor              # couple morphism T -> R of bidegree (0, 1)

    @functools.cached_property
    def idR(self):
        return E2Identification(self.ce.doubles["A"], self.ssR)

    @functools.cached_property
    def idT(self):
        return E2Identification(self.ce.doubles["C"], self.ssT)

    @property
    def r_inf(self):
        return self.ssT.r_inf

    def delta_r(self, r, p, q) -> Matrix:
        return self.mor.page_map(r, p, q)

    def delta_tot(self, n) -> Matrix:
        """H^n(Tot T) -> H^{n+1}(Tot R), the total-degree connecting map."""
        return self.mor.a_map(0, n)


def _connecting(pi, d, iota, src: Subquotient, tgt: Subquotient) -> Matrix:
    """The zigzag iota^-1 . d . pi^-1 on src's representatives, read in tgt."""
    return tgt.project(solve(iota, d * solve(pi, src.reps)))


def delta_morphism(pair: FunctorPair, iota: SheafMorphism, pi: SheafMorphism) -> DeltaFamily:
    """Construct the coboundary morphism of exact couples for a sheaf SES."""
    ctx = pair.src_ctx
    if not (ctx.is_mono(iota) and ctx.is_epi(pi)
            and ctx.is_exact_pair(iota, pi, iota.target)):
        raise PreconditionFailed("input is not a short exact sequence of sheaves")
    hs = _linked_resolutions(pair, iota, pi)
    F_ses = pair.F_ses(hs)
    for name in ("A", "B", "C"):
        FR = getattr(F_ses, name)
        for t in FR.degrees():
            pair.check_acyclic(FR.obj(t), ("delta-res", name, t))
    ce = build_ce_triple(F_ses)
    size = max(_grid_size(d) for d in ce.doubles.values())
    dcR = _gamma_double(pair, ce.doubles["A"], size)
    dcS = _gamma_double(pair, ce.doubles["B"], size)
    dcT = _gamma_double(pair, ce.doubles["C"], size)
    tR, tS, tT = CoupleTower(dcR), CoupleTower(dcS), CoupleTower(dcT)
    # entrywise inclusion/projection at the Gamma level
    iota_e, pi_e = {}, {}
    for p in range(ce.depth()):
        trip = ce.triples[p]
        for q in trip.cplx["I"].degrees():
            iota_e[(p, q)] = gamma_struct_map(trip.iota.comp(q))
            pi_e[(p, q)] = gamma_struct_map(trip.pi.comp(q))
    # A-level: connecting maps of 0 -> F^p R -> F^p S -> F^p T -> 0
    a_maps = {}
    for (p, q), asq in tT.A1.items():
        n = p + q
        if asq.dim == 0 or n + 1 > tR.nmax:
            continue
        tgt = tR.A1.get((p, q + 1))
        if tgt is None:
            continue
        a_maps[(p, q)] = _connecting(tot_block_map(tS, tT, pi_e, n, p), tS.fdiff[(p, n)],
                                     tot_block_map(tR, tS, iota_e, n + 1, p), asq, tgt)
    # E-level: connecting maps of the column SESs, the differential signed (-1)^p
    e_maps = {}
    for (p, q), esq in tT.E1.items():
        if esq.dim == 0:
            continue
        tgt = tR.E1.get((p, q + 1))
        if tgt is None:
            continue
        v = dcS.v(p, q)
        e_maps[(p, q)] = _connecting(pi_e[(p, q)], -v if p % 2 else v, iota_e[(p, q + 1)],
                                     esq, tgt)
    mor = CoupleMorphism(tT, tR, (0, 1), a_maps, e_maps)
    return DeltaFamily(pair, F_ses, ce, tR, tT, mor)


def verify_main_theorem(family: DeltaFamily) -> CheckReport:
    """The three asserted properties of the page maps, checked at every bidegree."""
    rep = CheckReport()
    mor = family.mor
    ssT, ssR = family.ssT, family.ssR
    r_inf = family.r_inf
    # bullet 1: delta_r commutes with d_r up to one recorded sign per page,
    # and the subquotient-induced map at stage r+1 is delta_{r+1}
    for r in range(2, r_inf):
        pairs = []
        induced_ok = True
        for (p, q) in sorted(ssT.page_dims(r)):
            lhs = mor.page_map(r, p + r, q - r + 1) * ssT.page(r).d_map(p, q)
            rhs = ssR.page(r).d_map(p, q + 1) * mor.page_map(r, p, q)
            pairs.append((lhs, rhs))
            ind = mor.induced_next_page(r, p, q)
            fresh = mor.page_map(r + 1, p, q)
            if not (ind == fresh):
                induced_ok = False
        sign, ok = global_sign(pairs)
        rep.add("bullet1: delta_%d commutes with d_%d" % (r, r), ok,
                "sign=%+d" % sign if sign else "")
        rep.add("bullet1: delta_%d induces delta_%d" % (r, r + 1), induced_ok)
    # bullet 2: delta_2 is the transported derived-functor boundary map
    pairs2 = []
    id_ok = True
    tgt_ctx = family.pair.tgt_ctx
    for q in sorted(family.idT.vec_h):
        if q + 1 not in family.idR.vec_h:
            continue
        gamma_q = family.ce.triples[0].inv.delta[q]     # H^q(F C) -> H^{q+1}(F A)
        resT, resR = family.idT.resolutions[q], family.idR.resolutions[q + 1]
        lam = homalg.comparison_lift(tgt_ctx, gamma_q, resT, resR)
        vecT, vecR = family.idT.vec_h[q], family.idR.vec_h[q + 1]
        lam_vec = ChainMap(vecT, vecR,
                           {p: gamma_struct_map(lam.comp(p)) for p in vecT.degrees()})
        for p in vecT.degrees():
            e2T = ssT.entry(2, p, q)
            e2R = ssR.entry(2, p, q + 1)
            if e2T.dim == 0 and e2R.dim == 0:
                continue
            idT_m = family.idT.identification_matrix(p, q)
            idR_m = family.idR.identification_matrix(p, q + 1)
            if rank(idT_m) != e2T.dim or rank(idR_m) != e2R.dim:
                id_ok = False
            lhs = idR_m * mor.page_map(2, p, q)
            hp = family.idT.cohomology(p, q).induced_map(family.idR.cohomology(p, q + 1),
                                                          lam_vec.comp(p))
            rhs = hp * idT_m
            if p % 2:   # the Koszul sign
                rhs = -rhs
            pairs2.append((lhs, rhs))
    sign2, ok2 = global_sign(pairs2)
    rep.add("bullet2: delta_2 is the derived-functor boundary", ok2 and id_ok,
            "sign=%+d (after the (-1)^p transport factor)" % sign2 if sign2 else "")
    # bullet 3: the total connecting map respects filtrations; graded = delta_inf
    filtT, filtR = ssT.filtration, ssR.filtration
    cert_ok = True
    for n in range(ssT.nmax + 1):
        if n + 1 > ssR.nmax:
            break
        dmat = family.delta_tot(n)
        for p in range(ssT.D + 2):
            basis = filtT[n][p]
            if basis.dim and not filtR[n + 1][p].contains_matrix(dmat * basis.basis):
                cert_ok = False
    rep.add("bullet3: filtration membership certificates", cert_ok)
    pairs3 = []
    for (p, q) in sorted(ssT.page_dims(r_inf)):
        n = p + q
        if n + 1 > ssR.nmax:
            continue
        grT = Subquotient(family.pair.field, ssT.total_h_dim(n), filtT[n][p], filtT[n][p + 1])
        grR = Subquotient(family.pair.field, ssR.total_h_dim(n + 1),
                          filtR[n + 1][p], filtR[n + 1][p + 1])
        try:
            grmap = grT.induced_map(grR, family.delta_tot(n))
        except NoSolution:
            rep.add("bullet3: graded map defined at (%d,%d)" % (p, q), False)
            continue
        isoT = ssT.graded_iso(p, q)
        isoR = ssR.graded_iso(p, q + 1)
        lhs = grmap * isoT
        rhs = isoR * mor.page_map(r_inf, p, q)
        pairs3.append((lhs, rhs))
    sign3, ok3 = global_sign(pairs3)
    rep.add("bullet3: graded pieces equal delta_inf", ok3,
            "sign=%+d" % sign3 if sign3 else "")
    return rep


# -- Leray specialization -----------------------------------------------------

def leray_pair(f: MonotoneMap, field) -> FunctorPair:
    return FunctorPair(f, f.source, field)


def leray_ss(f: MonotoneMap, sheaf):
    """Leray data plus the independent E2 = H^p(Y, R^q f_*) dimension check."""
    pair = leray_pair(f, sheaf.field)
    data = grothendieck_ss(pair, sheaf)
    ident = E2Identification(data.double, data.ss)
    comparisons = {}
    for q in sorted(ident.vec_h):
        rq = homalg.cohomology(data.base_complex, q).H      # R^q f_* of the pushed resolution
        hp = sheaf_cohomology_dims(rq) if rq.total_dim else [0]
        for p in range(data.ss.D + 1):
            expected = hp[p] if p < len(hp) else 0
            comparisons[(p, q)] = (data.ss.entry(2, p, q).dim, expected)
    return data, ident, comparisons


# -- the acyclic-middle analysis ---------------------------------------------

def acyclic_middle_analysis(pair: FunctorPair, iota, pi) -> CheckReport:
    """Filtration-level consequences when the middle sheaf is acyclic on all opens.

    Checked preconditions: the middle term is acyclic on every open (sampled
    for large posets), and the connecting maps on total cohomology are isos
    in positive degree and surjective in degree zero.
    """
    rep = CheckReport()
    B = iota.target
    acyc = is_acyclic_on_all_opens(B)
    if not acyc.ok:
        raise PreconditionFailed(
            "middle sheaf is not acyclic on the open %s" % (acyc.failing_open,))
    rep.add("middle sheaf acyclic on %d opens%s"
            % (acyc.opens_checked, "" if acyc.exhaustive else " (sampled)"), True)
    family = delta_morphism(pair, iota, pi)     # built only once B passes
    ssT, ssR = family.ssT, family.ssR
    # connecting maps: surjective at n = 0, isomorphisms for n >= 1
    for n in range(ssT.nmax + 1):
        if n + 1 > ssR.nmax:
            break
        d = family.delta_tot(n)
        hT, hR = ssT.total_h_dim(n), ssR.total_h_dim(n + 1)
        if n == 0:
            okn = rank(d) == hR
            rep.add("connecting surjective at n=0", okn)
        elif hT or hR:
            okn = hT == hR and rank(d) == hT
            rep.add("connecting iso at n=%d" % n, okn)
        if not (hT or hR):
            continue
        if not rep.items[-1][1]:
            raise PreconditionFailed("connecting map fails its rank condition at n=%d" % n)
    filtT, filtR = ssT.filtration, ssR.filtration
    # bullet a: filtration-level maps iso for p+q >= 1, surjective at p = q = 0
    for n in range(ssT.nmax + 1):
        if n + 1 > ssR.nmax:
            break
        dmat = family.delta_tot(n)
        for p in range(min(n, ssT.D + 1) + 1):    # q = n - p must be >= 0
            src = filtT[n][p]
            tgt = filtR[n + 1][p]
            if src.dim == 0 and tgt.dim == 0:
                continue
            if src.dim:
                try:
                    restricted = tgt.coords_of(dmat * src.basis)
                except NoSolution:
                    rep.add("filtration map defined at (p=%d,n=%d)" % (p, n), False)
                    continue
            else:
                restricted = Matrix.zeros(family.pair.field, tgt.dim, 0)
            if n >= 1:
                ok = src.dim == tgt.dim and rank(restricted) == src.dim
                rep.add("filtration iso at (p=%d, n=%d)" % (p, n), ok)
            else:
                ok = rank(restricted) == tgt.dim
                rep.add("filtration surjection at (p=0, n=0)", ok)
    # bullet b: E_inf maps iso for q >= 1, surjective for q = 0
    r_inf = family.r_inf
    keys = set(ssT.page_dims(r_inf)) | {(p, q - 1) for (p, q) in ssR.page_dims(r_inf)}
    for (p, q) in sorted(keys):
        if q < 0:
            continue
        dT = ssT.entry(r_inf, p, q).dim
        dR = ssR.entry(r_inf, p, q + 1).dim
        if dT == 0 and dR == 0:
            continue
        m = family.delta_r(r_inf, p, q)
        if q >= 1:
            rep.add("E_inf iso at (%d,%d)" % (p, q), dT == dR and rank(m) == dT)
        else:
            rep.add("E_inf surjection at (%d,0)" % p, rank(m) == dR)
    return rep

