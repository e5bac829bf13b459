"""Compatible injective triples and linked Cartan-Eilenberg resolutions.

Given a short exact sequence of bounded complexes, one row of the
construction produces a short exact sequence of complexes of injectives
receiving it; iterating on cokernels yields three linked Cartan-Eilenberg
resolutions with exact rows.

A row is built column by column, the I column (under A) first.  That
column depends on A alone (see ce_resolution_of_complex), so a single
complex X, resolved as X -> X -> 0, builds only the I column of each row,
and of the witnessed sequences below only A's five; the J and K columns,
there a copy of I and zero, are built only by build_ce_triple.

The construction order is fixed: first the nineteen witnessed exact
sequences of subquotient data (cocycles Z, coboundaries B, cohomology H,
and the kernels W and X taken from the long exact sequence), fifteen of
them made by one routine run once per complex, then keyed
direct sums whose structural maps realize the same sequences by block
inclusion and projection, then the comparison maps, placed summand by
summand, each component either an injectivity extension or a composite
forced by commutativity.  Every square the argument relies on is re-checked
numerically; a failure indicates an engine bug, not bad input.
"""

from __future__ import annotations

from .homalg import (
    ChainMap,
    CheckReport,
    CochainComplex,
    DirectSum,
    SESOfComplexes,
    TruncationInsufficient,
    augmented_exact,
    cohomology,
    connecting,
    induced_maps,
    induced_on_cohomology,
)


class InternalExactnessFailure(Exception):
    """A derived exact sequence failed its exactness check."""


class InternalCommutativityFailure(Exception):
    """A comparison square of the construction failed to commute."""


class WitnessedSES:
    """0 -> L -> M -> R -> 0 with both maps kept as witnesses."""

    __slots__ = ("label", "q", "L", "M", "R", "f", "g")

    def __init__(self, label, q, L, M, R, f, g):
        self.label = label
        self.q = q
        self.L, self.M, self.R = L, M, R
        self.f, self.g = f, g

    def check(self, ctx):
        if not ctx.is_mono(self.f):
            raise InternalExactnessFailure("%s@%d: left map not mono" % (self.label, self.q))
        if not ctx.is_epi(self.g):
            raise InternalExactnessFailure("%s@%d: right map not epi" % (self.label, self.q))
        if not ctx.is_exact_pair(self.f, self.g, self.M):
            raise InternalExactnessFailure("%s@%d: not exact in the middle" % (self.label, self.q))


class ComplexData:
    """Z, B, H, W, X of one complex, with canonical witnesses per degree."""

    def __init__(self):
        self.Z, self.z_mono = {}, {}
        self.B, self.b_in_z, self.b_in_x, self.d_epi = {}, {}, {}, {}
        self.H, self.h_proj = {}, {}
        self.W, self.w_mono = {}, {}
        self.X, self.x_mono = {}, {}


ES_LABELS = ["es%d" % i for i in range(1, 20)]

# one row per complex D: the map out of H(D), by attribute and maker (looked
# up when called, so a wrapper installed on the module is seen), the
# complex E it lands in with its degree shift, and the labels of D's five
# sequences: W(D) in H(D) onto W(E), X(D) in Z(D) onto W(E), H(D) as
# Z(D)/B(D), W(D) as X(D)/B(D), and B(D) one up as D/Z(D)
_ROWS = (
    ("A", "h_iota", lambda ses, q: induced_on_cohomology(ses.iota, q), "B", 0,
     ("es1", "es4", "es7", "es10", "es13")),
    ("B", "h_pi", lambda ses, q: induced_on_cohomology(ses.pi, q), "C", 0,
     ("es2", "es5", "es8", "es11", "es14")),
    ("C", "delta", lambda ses, q: connecting(ses, q), "A", 1,
     ("es3", "es6", "es9", "es12", "es15")),
)


class SESInvariants:
    """The objects and witnessed exact sequences of all three complexes, or,
    when full is False, of A alone: A's data, h_iota, W(B) and A's five
    sequences, which is all the I column of a triple reads."""

    def __init__(self, ses: SESOfComplexes, full=True):
        self.ses = ses
        self.ctx = ses.ctx
        self.names = ("A", "B", "C") if full else ("A",)
        self.qlo = min(ses.A.lo, ses.B.lo, ses.C.lo)
        self.qhi = max(ses.A.hi, ses.B.hi, ses.C.hi)
        self.A, self.B, self.C = ComplexData(), ComplexData(), ComplexData()
        self.h_iota, self.h_pi, self.delta = {}, {}, {}
        self.seqs = {label: {} for label in ES_LABELS}
        rows = _ROWS if full else _ROWS[:1]
        for name, attr, make, *_ in rows:
            self._cover(name, attr, make, True)
        if not full:                    # W(B) alone, which es1 and es4 end in
            self._cover(*_ROWS[1][:3], False)
        for row in rows:
            self._one_sided(*row)
        if full:
            self._mixed()

    def degrees(self):
        """Degrees carrying data, one past the support (all zero there)."""
        return range(self.qlo, self.qhi + 2)

    def main_degrees(self):
        return range(self.qlo, self.qhi + 1)

    def _cover(self, name, attr, make, whole):
        """The map out of H(name) and its kernel W; if whole, also Z, B, H, X."""
        ctx, cd, maps = self.ctx, getattr(self, name), getattr(self, attr)
        for q in self.degrees():
            maps[q] = make(self.ses, q)
            cd.W[q], cd.w_mono[q] = ctx.kernel(maps[q])
            if whole:
                h = cohomology(getattr(self.ses, name), q)
                cd.Z[q], cd.z_mono[q] = h.Z, h.z_mono
                cd.B[q], cd.b_in_z[q] = h.B, h.b_mono
                cd.b_in_x[q], cd.d_epi[q] = h.b_into_x, h.d_epi
                cd.H[q], cd.h_proj[q] = h.H, h.proj
                cd.X[q], cd.x_mono[q] = ctx.kernel(ctx.compose(maps[q], h.proj))

    def _seq(self, label, q, L, M, R, f, g):
        self.seqs[label][q] = w = WitnessedSES(label, q, L, M, R, f, g)
        w.check(self.ctx)

    def _one_sided(self, name, attr, make, target, shift, labels):
        ctx, D, E = self.ctx, getattr(self, name), getattr(self, target)
        cplx, maps = getattr(self.ses, name), getattr(self, attr)
        l_w, l_x, l_h, l_b, l_z = labels
        for q in self.main_degrees():
            t = q + shift
            self._seq(l_w, q, D.W[q], D.H[q], E.W[t],
                      D.w_mono[q], ctx.lift_through_mono(maps[q], E.w_mono[t]))
            self._seq(l_x, q, D.X[q], D.Z[q], E.W[t],
                      D.x_mono[q], ctx.compose(self.seqs[l_w][q].g, D.h_proj[q]))
            self._seq(l_h, q, D.B[q], D.Z[q], D.H[q], D.b_in_z[q], D.h_proj[q])
            self._seq(l_b, q, D.B[q], D.X[q], D.W[q],
                      ctx.lift_through_mono(D.b_in_z[q], D.x_mono[q]),
                      ctx.lift_through_mono(ctx.compose(D.h_proj[q], D.x_mono[q]),
                                            D.w_mono[q]))
            self._seq(l_z, q, D.Z[q], cplx.obj(q), D.B[q + 1], D.z_mono[q], D.d_epi[q + 1])

    def _mixed(self):
        """es16-es19, which mix the three complexes."""
        ctx, ses, A, B, C = self.ctx, self.ses, self.A, self.B, self.C
        for q in self.main_degrees():
            iq, pq = ses.iota.comp(q), ses.pi.comp(q)
            za = A.z_mono[q]
            xa = ctx.compose(za, A.x_mono[q])
            xb = ctx.compose(B.z_mono[q], B.x_mono[q])
            xc = ctx.compose(C.z_mono[q], C.x_mono[q])
            self._seq("es16", q, A.X[q], B.B[q], C.B[q],
                      ctx.lift_through_mono(ctx.compose(iq, xa), B.b_in_x[q]),
                      ctx.lift_through_mono(ctx.compose(pq, B.b_in_x[q]), C.b_in_x[q]))
            self._seq("es17", q, A.Z[q], B.Z[q], C.X[q],
                      ctx.lift_through_mono(ctx.compose(iq, za), B.z_mono[q]),
                      ctx.lift_through_mono(ctx.compose(pq, B.z_mono[q]), xc))
            self._seq("es18", q, A.Z[q], B.X[q], C.B[q],
                      ctx.lift_through_mono(ctx.compose(iq, za), xb),
                      ctx.lift_through_mono(ctx.compose(pq, xb), C.b_in_x[q]))
            self._seq("es19", q, ses.A.obj(q), ses.B.obj(q), ses.C.obj(q), iq, pq)

    def label_counts(self):
        return {label: len(self.seqs[label]) for label in ES_LABELS}


# layout of every composite object as a flat direct sum;
# keys are (family, column, level) with family W or B and column I, J, K
_LAYOUT = {
    "HI": lambda q: (("W", "I", q), ("W", "J", q)),
    "HJ": lambda q: (("W", "J", q), ("W", "K", q)),
    "HK": lambda q: (("W", "K", q), ("W", "I", q + 1)),
    "BJ": lambda q: (("W", "I", q), ("B", "I", q), ("B", "K", q)),
    "XI": lambda q: (("W", "I", q), ("B", "I", q)),
    "XJ": lambda q: (("W", "I", q), ("W", "J", q), ("B", "I", q), ("B", "K", q)),
    "XK": lambda q: (("W", "K", q), ("B", "K", q)),
    "ZI": lambda q: (("W", "I", q), ("W", "J", q), ("B", "I", q)),
    "ZJ": lambda q: (("W", "I", q), ("W", "J", q), ("W", "K", q), ("B", "I", q), ("B", "K", q)),
    "ZK": lambda q: (("W", "K", q), ("W", "I", q + 1), ("B", "K", q)),
    "I": lambda q: (("W", "I", q), ("W", "J", q), ("B", "I", q), ("B", "I", q + 1)),
    "J": lambda q: (("W", "I", q), ("W", "J", q), ("W", "K", q), ("B", "I", q), ("B", "K", q),
                    ("W", "I", q + 1), ("B", "I", q + 1), ("B", "K", q + 1)),
    "K": lambda q: (("W", "K", q), ("W", "I", q + 1), ("B", "K", q), ("B", "K", q + 1)),
}

# the I column's families, sums and ladders; the rest belong to J and K
_I_FAMILIES = (("W", "I"), ("W", "J"), ("B", "I"))
_JK_FAMILIES = (("W", "K"), ("B", "K"))
_I_SUMS = ("HI", "XI", "ZI", "I")
_I_LADDERS = _ROWS[0][-1]       # A's five sequences


# per complex of the SES: the column of a triple that resolves it, and the
# tags of that column's cocycle and cohomology parts
COLUMNS = {"A": ("I", "ZI", "HI"), "B": ("J", "ZJ", "HJ"), "C": ("K", "ZK", "HK")}


class InjectiveTriple:
    """One row: 0 -> I* -> J* -> K* -> 0 of injectives under the input SES.

    The I column is built first and from A-side data alone (see
    ce_resolution_of_complex).  On invariants of A alone the row stops
    there, and `cplx`, `aug` and `maps` hold only its I, A and hA/xA/zA
    entries.
    """

    def __init__(self, inv: SESInvariants):
        self.inv = inv
        self.ctx = inv.ctx
        self.fam, self.fam_emb, self.one = {}, {}, {}
        self.sums, self.cplx, self.maps, self.aug = {}, {}, {}, {}
        self._zext = {}
        self._build_i()
        if inv.names == tuple(COLUMNS):
            self._build_jk()

    def sum_at(self, name, q) -> DirectSum:
        return self.sums[name][q]

    def _add_parts(self, families, sums, columns):
        """Chosen injectives of the families, zero-padded one level past the
        end, then the keyed sums and the columns as complexes."""
        ctx, inv = self.ctx, self.inv
        qs = inv.degrees()
        data = {"I": inv.A, "J": inv.B, "K": inv.C}
        pad = inv.qhi + 2
        for fam, col in families:
            cd = data[col]
            for q in qs:
                I, m = ctx.injective_embed(cd.W[q] if fam == "W" else cd.B[q])
                self.fam[(fam, col, q)], self.fam_emb[(fam, col, q)] = I, m
            z = ctx.zero_obj()
            self.fam[(fam, col, pad)], self.fam_emb[(fam, col, pad)] = z, ctx.zero_map(z, z)
        # singleton views of the bare families, for the ladder checks
        for key, obj in self.fam.items():
            if key not in self.one:
                self.one[key] = DirectSum(ctx, [obj], [key])
        for name in sums:
            self.sums[name] = {q: DirectSum(ctx, [self.fam[k] for k in _LAYOUT[name](q)],
                                            _LAYOUT[name](q))
                               for q in qs}
        for name in columns:
            objs = {q: self.sum_at(name, q).obj for q in qs}
            diffs = {q: self.sum_at(name, q).structural_to(self.sum_at(name, q + 1))
                     for q in qs if q + 1 in self.sums[name]}
            self.cplx[name] = CochainComplex(ctx, objs, diffs)

    def _build_i(self):
        """The I column under A: families, sums, hA, xA, zA and the augmentation."""
        ctx, inv = self.ctx, self.inv
        self._add_parts(_I_FAMILIES, _I_SUMS, ("I",))
        emb, s = self.fam_emb, inv.seqs
        hA, xA, zA, aA = {}, {}, {}, {}
        for q in inv.main_degrees():
            hA[q] = self.sum_at("HI", q).into({
                ("W", "I", q): ctx.extend_along_mono(inv.A.w_mono[q], emb[("W", "I", q)]),
                ("W", "J", q): ctx.compose(emb[("W", "J", q)], s["es1"][q].g)})
            xA[q] = self.sum_at("XI", q).into({
                ("B", "I", q): ctx.extend_along_mono(s["es10"][q].f, emb[("B", "I", q)]),
                ("W", "I", q): ctx.compose(emb[("W", "I", q)], s["es10"][q].g)})
            zA[q] = self._z_outer(q, "ZI", "HI", "XI", inv.A, hA[q], xA[q], ("B", "I", q))
            aA[q] = self._augment_outer(q, "I", "ZI", inv.A, zA[q], ("B", "I", q + 1), "es13")
        self.maps.update(hA=hA, xA=xA, zA=zA)
        self.aug["A"] = ChainMap(inv.ses.A, self.cplx["I"], aA)
        self._verify_ladders(_I_LADDERS)
        self._verify_monos("A")

    def _build_jk(self):
        """The J and K columns, the row maps, and the B- and C-side comparisons."""
        ctx, inv = self.ctx, self.inv
        qs = inv.degrees()
        qs_main = list(inv.main_degrees())
        self._add_parts(_JK_FAMILIES, [name for name in _LAYOUT if name not in _I_SUMS],
                        ("J", "K"))
        self.iota = ChainMap(self.cplx["I"], self.cplx["J"],
                             {q: self.sum_at("I", q).structural_to(self.sum_at("J", q))
                              for q in qs})
        self.pi = ChainMap(self.cplx["J"], self.cplx["K"],
                           {q: self.sum_at("J", q).structural_to(self.sum_at("K", q))
                            for q in qs})
        for q in qs:
            WitnessedSES("row", q, self.cplx["I"].obj(q), self.cplx["J"].obj(q),
                         self.cplx["K"].obj(q), self.iota.comp(q), self.pi.comp(q)).check(ctx)
        # comparison maps, in dependency order
        emb, s = self.fam_emb, inv.seqs
        hB, hC, xC, bB, zC, xB, zB, aB, aC = {}, {}, {}, {}, {}, {}, {}, {}, {}
        for q in qs_main:
            hB[q] = self.sum_at("HJ", q).into({
                ("W", "J", q): ctx.extend_along_mono(inv.B.w_mono[q], emb[("W", "J", q)]),
                ("W", "K", q): ctx.compose(emb[("W", "K", q)], s["es2"][q].g)})
            hC[q] = self.sum_at("HK", q).into({
                ("W", "K", q): ctx.extend_along_mono(inv.C.w_mono[q], emb[("W", "K", q)]),
                ("W", "I", q + 1): ctx.compose(emb[("W", "I", q + 1)], s["es3"][q].g)})
            xC[q] = self.sum_at("XK", q).into({
                ("B", "K", q): ctx.extend_along_mono(s["es12"][q].f, emb[("B", "K", q)]),
                ("W", "K", q): ctx.compose(emb[("W", "K", q)], s["es12"][q].g)})
        self._ext16 = {}
        for q in qs_main:
            # B^q(B) -> B^q(J): extend the X-level map, quotient part forced
            bj, xi = self.sum_at("BJ", q), self.sum_at("XI", q)
            ext = ctx.extend_along_mono(s["es16"][q].f, self.maps["xA"][q])
            self._ext16[q] = ext
            bkpart = ctx.compose(emb[("B", "K", q)], s["es16"][q].g)
            bB[q] = ctx.add(ctx.compose(xi.structural_to(bj), ext),
                            bj.into({("B", "K", q): bkpart}))
        for q in qs_main:
            zC[q] = self._z_outer(q, "ZK", "HK", "XK", inv.C, hC[q], xC[q], ("B", "K", q))
        for q in qs_main:
            xB[q] = self._x_middle(q, self.maps["zA"][q], bB[q])
        for q in qs_main:
            zB[q] = self._z_middle(q, hB[q], xB[q], xC[q])
        for q in qs_main:
            aC[q] = self._augment_c(q, zC[q])
        # zero-padded B-level map one degree past the support, for es14 right verticals
        top = qs_main[-1] + 1
        bB[top] = ctx.zero_map(inv.B.B[top], self.sum_at("BJ", top).obj)
        for q in qs_main:
            aB[q] = self._augment_middle(q, zB[q], bB)
        self.maps.update(hB=hB, hC=hC, xB=xB, xC=xC, bB=bB, zB=zB, zC=zC)
        self.aug["B"] = ChainMap(inv.ses.B, self.cplx["J"], aB)
        self.aug["C"] = ChainMap(inv.ses.C, self.cplx["K"], aC)
        self._verify_ladders(label for label in ES_LABELS if label not in _I_LADDERS)
        self._verify_monos("B", "C")

    # -- helpers -----------------------------------------------------------

    def _z_outer(self, q, zname, hname, xname, cd, h_q, x_q, bkey):
        """Z-level map for an outer complex: H-part forced, B-part extended."""
        ctx = self.ctx
        zs, hs, xs = self.sum_at(zname, q), self.sum_at(hname, q), self.sum_at(xname, q)
        hpart = ctx.compose(hs.structural_to(zs), ctx.compose(h_q, cd.h_proj[q]))
        bcomp = ctx.extend_along_mono(cd.x_mono[q], ctx.compose(xs.proj(bkey), x_q))
        return ctx.add(hpart, zs.into({bkey: bcomp}))

    def _x_middle(self, q, zA_q, bB_q):
        """X^q(B) -> X^q(J): the cokernel factorization step."""
        ctx, inv = self.ctx, self.inv
        s = inv.seqs
        xj, xi = self.sum_at("XJ", q), self.sum_at("XI", q)
        es11, es16, es18 = s["es11"][q], s["es16"][q], s["es18"][q]
        a = ctx.compose(self.sum_at("ZI", q).structural_to(xi), zA_q)   # Z^q(A) -> XI
        b = ctx.compose(self.sum_at("BJ", q).structural_to(xi), bB_q)   # B^q(B) -> XI
        S = DirectSum(ctx, [inv.A.Z[q], inv.B.B[q]])
        Q, qepi = ctx.cokernel(S.into({0: inv.A.x_mono[q], 1: ctx.neg(es16.f)}))  # antidiagonal
        try:
            qmono = ctx.descend_along_epi(qepi, S.out_of({0: es18.f, 1: es11.f}))
            qab = ctx.descend_along_epi(qepi, S.out_of({0: a, 1: b}))
        except ctx.LiftError as exc:
            raise InternalCommutativityFailure("Q-factorization@%d: %s" % (q, exc)) from exc
        if not ctx.is_mono(qmono):
            raise InternalCommutativityFailure("Q@%d does not inject into X^q(B)" % q)
        xicomp = ctx.extend_along_mono(qmono, qab)
        return ctx.add(ctx.compose(xi.structural_to(xj), xicomp),
                       xj.into({("W", "J", q): ctx.compose(self.fam_emb[("W", "J", q)], es11.g),
                                ("B", "K", q): ctx.compose(self.fam_emb[("B", "K", q)], es18.g)}))

    def _z_middle(self, q, hB_q, xB_q, xC_q):
        """Z^q(B) -> Z^q(J): H-part forced, X^q(I)-part extended, BK forced."""
        ctx, inv = self.ctx, self.inv
        s = inv.seqs
        zj = self.sum_at("ZJ", q)
        hpart = ctx.compose(self.sum_at("HJ", q).structural_to(zj),
                            ctx.compose(hB_q, inv.B.h_proj[q]))
        bkcomp = ctx.compose(ctx.compose(self.sum_at("XK", q).proj(("B", "K", q)), xC_q),
                             s["es17"][q].g)
        xipart = ctx.extend_along_mono(
            inv.B.x_mono[q],
            ctx.compose(self.sum_at("XJ", q).structural_to(self.sum_at("XI", q)), xB_q))
        return ctx.add(hpart,
                       ctx.add(ctx.compose(self.sum_at("XI", q).structural_to(zj), xipart),
                               zj.into({("B", "K", q): bkcomp})))

    def _augment_outer(self, q, name, zname, cd, z_q, bkey, es_label):
        ctx, inv = self.ctx, self.inv
        ts = self.sum_at(name, q)
        es = inv.seqs[es_label][q]
        zpart = ctx.extend_along_mono(cd.z_mono[q], z_q)
        self._zext[(name, q)] = zpart
        return ctx.add(ctx.compose(self.sum_at(zname, q).structural_to(ts), zpart),
                       ts.into({bkey: ctx.compose(self.fam_emb[bkey], es.g)}))

    def _forced_wi_next(self, q):
        """The W^{q+1}(I)-component of the C-augmentation, forced through pi.

        The middle complex's coboundary map lands in the B-part of B^q(J);
        composing with the chosen XI-extension and descending along pi gives
        the unique component compatible with the es19 quotient square.  Its
        restriction to cocycles agrees with the connecting map by the long
        exact sequence, which the ladder checks confirm.
        """
        ctx, inv = self.ctx, self.inv
        wi_next = self.fam[("W", "I", q + 1)]
        if ctx.is_zero_obj(wi_next) or q + 1 not in self._ext16:
            return ctx.zero_map(inv.ses.C.obj(q), wi_next)
        xi1 = self.sum_at("XI", q + 1)
        through_b = ctx.compose(ctx.compose(xi1.proj(("W", "I", q + 1)), self._ext16[q + 1]),
                                inv.B.d_epi[q + 1])
        try:
            return ctx.descend_along_epi(inv.ses.pi.comp(q), through_b)
        except ctx.LiftError as exc:
            raise InternalCommutativityFailure(
                "forced W(I)-component@%d does not descend: %s" % (q, exc)) from exc

    def _augment_c(self, q, zC_q):
        """C^q -> K^q with the W^{q+1}(I)-component forced by compatibility."""
        ctx, inv = self.ctx, self.inv
        ts, zk = self.sum_at("K", q), self.sum_at("ZK", q)
        es15 = inv.seqs["es15"][q]
        zpart_free = ctx.extend_along_mono(inv.C.z_mono[q], zC_q)
        forced = self._forced_wi_next(q)
        wi_key = ("W", "I", q + 1)
        # the extension, with its W^{q+1}(I)-component replaced by the forced one
        zpart = zk.into({k: forced if k == wi_key else ctx.compose(zk.proj(k), zpart_free)
                         for k in zk.keys})
        if not ctx.map_eq(ctx.compose(zpart, inv.C.z_mono[q]), zC_q):
            raise InternalCommutativityFailure(
                "forced C-augmentation no longer extends Z^%d(C)" % q)
        self._zext[("K", q)] = zpart
        return ctx.add(ctx.compose(zk.structural_to(ts), zpart),
                       ts.into({("B", "K", q + 1): ctx.compose(self.fam_emb[("B", "K", q + 1)],
                                                               es15.g)}))

    def _augment_middle(self, q, zB_q, bB):
        """B^q -> J^q: joint extension over Z^q(B) + iota(A^q), K-part forced."""
        ctx, inv = self.ctx, self.inv
        ses = inv.ses
        jq, zj = self.sum_at("J", q), self.sum_at("ZJ", q)
        zi = self.sum_at("ZI", q)
        es14 = inv.seqs["es14"][q]
        bnext = ctx.compose(bB[q + 1], es14.g)
        bpart = ctx.compose(self.sum_at("BJ", q + 1).structural_to(jq), bnext)
        zpartA = self._zext[("I", q)]                 # A^q -> ZI
        S = DirectSum(ctx, [inv.B.Z[q], ses.A.obj(q)])
        Im, im_mono, im_epi = ctx.image(S.out_of({0: inv.B.z_mono[q], 1: ses.iota.comp(q)}))
        # extend only the ZI-tagged components; the K-side ones are forced below
        t = S.out_of({0: ctx.compose(zj.structural_to(zi), zB_q), 1: zpartA})
        try:
            tbar = ctx.descend_along_epi(im_epi, t)
        except ctx.LiftError as exc:
            raise InternalCommutativityFailure(
                "joint Z(B)+A extension@%d: %s" % (q, exc)) from exc
        zi_part = ctx.extend_along_mono(im_mono, tbar)   # B^q -> ZI
        zpartC = self._zext[("K", q)]                    # C^q -> ZK
        forced_k = ctx.compose(zpartC, ses.pi.comp(q))   # B^q -> ZK
        # forced_k's W^q(K) and B^q(K) components, the keys ZK shares with ZJ
        zpart = ctx.add(ctx.compose(zi.structural_to(zj), zi_part),
                        ctx.compose(self.sum_at("ZK", q).structural_to(zj), forced_k))
        return ctx.add(ctx.compose(zj.structural_to(jq), zpart), bpart)

    # -- verification -------------------------------------------------------

    _LADDER_NODES = {
        "es1": ("WA", "HA", "WB"), "es2": ("WB", "HB", "WC"), "es3": ("WC", "HC", "WA+"),
        "es4": ("XA", "ZA", "WB"), "es5": ("XB", "ZB", "WC"), "es6": ("XC", "ZC", "WA+"),
        "es7": ("BA", "ZA", "HA"), "es8": ("BB", "ZB", "HB"), "es9": ("BC", "ZC", "HC"),
        "es10": ("BA", "XA", "WA"), "es11": ("BB", "XB", "WB"), "es12": ("BC", "XC", "WC"),
        "es13": ("ZA", "A", "BA+"), "es14": ("ZB", "B", "BB+"), "es15": ("ZC", "C", "BC+"),
        "es16": ("XA", "BB", "BC"), "es17": ("ZA", "ZB", "XC"), "es18": ("ZA", "XB", "BC"),
        "es19": ("A", "B", "C"),
    }

    def _node(self, kind, q):
        """Comparison map at one node of the sequences: a family W, B, H, X or
        Z of A, B or C, or the complex itself; a trailing + means degree q+1."""
        if kind.endswith("+"):
            kind, q = kind[:-1], q + 1
        col = COLUMNS[kind[-1]][0]
        if len(kind) == 1:
            return self.sum_at(col, q), self.aug[kind].comp(q)
        if kind in ("WA", "WB", "WC", "BA", "BC"):      # bare chosen injectives
            key = (kind[0], col, q)
            return self.one[key], self.fam_emb[key]
        return self.sum_at(kind[0] + col, q), self.maps[kind[0].lower() + kind[1]][q]

    def _verify_ladders(self, labels):
        ctx, inv = self.ctx, self.inv
        for label in labels:
            lk, mk, rk = self._LADDER_NODES[label]
            for q, es in inv.seqs[label].items():
                lts, lv = self._node(lk, q)
                mts, mv = self._node(mk, q)
                rts, rv = self._node(rk, q)
                fI = lts.structural_to(mts)
                gI = mts.structural_to(rts)
                if not ctx.map_eq(ctx.compose(mv, es.f), ctx.compose(fI, lv)):
                    raise InternalCommutativityFailure(
                        "ladder %s@%d: left square" % (label, q))
                if not ctx.map_eq(ctx.compose(rv, es.g), ctx.compose(gI, mv)):
                    raise InternalCommutativityFailure(
                        "ladder %s@%d: right square" % (label, q))

    def _verify_monos(self, *names):
        ctx, inv = self.ctx, self.inv
        for name in names:
            aug, ztag = self.aug[name], COLUMNS[name][1]
            for q in inv.main_degrees():
                if not ctx.is_mono(aug.comp(q)):
                    raise InternalCommutativityFailure(
                        "augmentation of %s not mono at degree %d" % (name, q))
                z, b, h = induced_maps(aug, q)
                for kind, m in (("cocycles", z), ("coboundaries", b), ("cohomology", h)):
                    if not ctx.is_mono(m):
                        raise InternalCommutativityFailure(
                            "induced map on %s of %s not mono at %d" % (kind, name, q))
                if ctx.obj_dim(ctx.map_target_obj(z)) != ctx.obj_dim(self.sum_at(ztag, q).obj):
                    raise InternalCommutativityFailure(
                        "tagged %s@%d differs from the computed cocycles" % (ztag, q))


def compute_invariants(ses: SESOfComplexes, full=True) -> SESInvariants:
    """The subquotient objects and exact sequences, each checked: of all three
    complexes, or of A alone when full is False."""
    return SESInvariants(ses, full)


def build_injective_triple(inv: SESInvariants) -> InjectiveTriple:
    """One fully verified row of the linked resolutions; only its I column
    on invariants of A alone."""
    return InjectiveTriple(inv)


class AugmentedDouble:
    """One column's Cartan-Eilenberg resolution: rows I^{p,*} under A*."""

    def __init__(self, ctx, base: CochainComplex, rows, dh, augmentation, columns, triples):
        self.ctx = ctx
        self.base = base              # the resolved complex A*
        self.rows = rows              # list of CochainComplex, index p
        self.dh = dh                  # dh[p]: ChainMap rows[p] -> rows[p+1]
        self.augmentation = augmentation  # ChainMap base -> rows[0]
        self.columns = columns        # the COLUMNS entry: (row, Z, H) tags in each triple
        self.triples = triples        # list of InjectiveTriple, index p

    def depth(self):
        return len(self.rows)

    def degrees(self):
        if not self.rows:
            return range(self.base.lo, self.base.hi + 1)
        lo = min([self.base.lo] + [r.lo for r in self.rows])
        hi = max([self.base.hi] + [r.hi for r in self.rows])
        return range(lo, hi + 1)


class CETriple:
    """Three linked Cartan-Eilenberg resolutions with exact rows."""

    def __init__(self, ses, triples, doubles):
        self.ses = ses
        self.triples = triples        # list of InjectiveTriple, index p
        self.doubles = doubles        # {"A": AugmentedDouble, "B": ..., "C": ...}

    def depth(self):
        return len(self.triples)


def _cokernel_complex(ctx, aug: ChainMap):
    """Cokernel of a degree-wise mono chain map, with induced differentials."""
    tgt = aug.target
    objs, epis, diffs = {}, {}, {}
    for q in tgt.degrees():
        Q, e = ctx.cokernel(aug.comp(q))
        objs[q], epis[q] = Q, e
    for q in tgt.degrees():
        if q + 1 in objs:
            diffs[q] = ctx.descend_along_epi(
                epis[q], ctx.compose(epis[q + 1], tgt.diff(q)))
    nonzero = [q for q, o in objs.items() if not ctx.is_zero_obj(o)]
    if nonzero:
        lo, hi = min(nonzero), max(nonzero)
        objs = {q: o for q, o in objs.items() if lo <= q <= hi}
        diffs = {q: d for q, d in diffs.items() if lo <= q < hi}
    else:
        lo = min(objs) if objs else 0
        objs = {lo: ctx.zero_obj()}
        diffs = {}
    cplx = CochainComplex(ctx, objs, diffs)
    return cplx, epis


def _resolve_rows(ses: SESOfComplexes, full, depth):
    """Build rows on cokernels until the sequence vanishes; one double per
    resolved complex, A, B and C, or A alone when full is False.

    Row p is build_injective_triple(compute_invariants(..., full)) of the
    p-th sequence.  The next sequence is the row's cokernel SES when full
    is True, and the A column's cokernel as X -> X -> 0 otherwise.  The row
    count is capped at four past the larger of depth and the context's
    resolution bound; a sequence still alive there raises
    TruncationInsufficient.
    """
    ctx = ses.ctx
    names = tuple(COLUMNS) if full else ("A",)
    bound = ctx.resolution_bound()
    hard_cap = (bound if depth is None else max(depth, bound)) + 4
    triples, dh = [], {name: [] for name in names}
    cur, prev = ses, None
    while not (cur.A.is_zero() and cur.B.is_zero() and cur.C.is_zero()):
        if len(triples) > hard_cap:
            raise TruncationInsufficient(
                "Cartan-Eilenberg iteration still alive after %d rows" % len(triples))
        triple = build_injective_triple(compute_invariants(cur, full))
        rows = {name: triple.cplx[COLUMNS[name][0]] for name in names}
        if prev is not None:
            for name in names:
                epis, prev_row = prev[name]
                comps = {q: ctx.compose(triple.aug[name].comp(q), epis[q])
                         for q in prev_row.degrees()}
                dh[name].append(ChainMap(prev_row, rows[name], comps))
        triples.append(triple)
        coks = {name: _cokernel_complex(ctx, triple.aug[name]) for name in names}
        try:
            cur = _cokernel_ses(triple, coks) if full else _identity_ses(
                coks["A"][0], CochainComplex(ctx, {triple.inv.qlo: ctx.zero_obj()}, {}))
        except ValueError as exc:
            raise InternalExactnessFailure(
                "cokernel SES after row %d: %s" % (len(triples) - 1, exc)) from exc
        prev = {name: (coks[name][1], rows[name]) for name in names}
    doubles = {}
    for name in names:
        column = [t.cplx[COLUMNS[name][0]] for t in triples]
        aug = triples[0].aug[name] if triples else None
        doubles[name] = AugmentedDouble(ctx, getattr(ses, name), column, dh[name], aug,
                                        COLUMNS[name], triples)
    return triples, doubles


def _cokernel_ses(triple, coks):
    """The row's cokernel SES, with the induced maps; exact by the nine lemma."""
    ctx = triple.ctx
    (cokA, epiA), (cokB, epiB), (cokC, epiC) = coks["A"], coks["B"], coks["C"]
    iot = ChainMap(cokA, cokB, {
        q: ctx.descend_along_epi(epiA[q], ctx.compose(epiB[q], triple.iota.comp(q)))
        for q in cokA.degrees()})
    pii = ChainMap(cokB, cokC, {
        q: ctx.descend_along_epi(epiB[q], ctx.compose(epiC[q], triple.pi.comp(q)))
        for q in cokB.degrees()})
    return SESOfComplexes(iot, pii)


def build_ce_triple(ses: SESOfComplexes, depth=None) -> CETriple:
    """Iterate the one-row construction on cokernels until they vanish.

    The rows are capped at four past the larger of depth and the context's
    resolution bound; hitting the cap raises TruncationInsufficient.
    """
    return CETriple(ses, *_resolve_rows(ses, True, depth))


def _identity_ses(cplx: CochainComplex, zero: CochainComplex) -> SESOfComplexes:
    """0 -> X -> X -> 0 -> 0 with the identity, onto the zero complex `zero`."""
    ctx = cplx.ctx
    iota = ChainMap(cplx, cplx, {q: ctx.identity(cplx.obj(q)) for q in cplx.degrees()})
    pi = ChainMap(cplx, zero, {q: ctx.zero_map(cplx.obj(q), ctx.zero_obj())
                               for q in cplx.degrees()})
    return SESOfComplexes(iota, pi)


def ce_resolution_of_complex(cplx: CochainComplex) -> AugmentedDouble:
    """Cartan-Eilenberg resolution of one complex X, one I column per row.

    It is the A double of build_ce_triple on X -> X -> 0 (identity, then
    zero), built without that triple's J and K columns and from invariants
    of A alone (compute_invariants(..., full=False)).  The I column needs
    only A-side data: its families are the chosen injectives of W^q(A) and
    B^q(A), subobjects of A's cohomology and coboundaries, and of W^q(B),
    which es1 identifies with H^q(A)/W^q(A); its checks are the ladders of
    es1, es4, es7, es10 and es13.  Row p resolves the cokernel of row p-1's
    augmentation, again as X -> X -> 0.  The full iteration's cokernel of
    the zero K column is the zero complex at the previous row's lowest
    degree, and the zero complex is placed there too, so every row keeps
    the full iteration's degree range.
    """
    ctx = cplx.ctx
    zero = CochainComplex(ctx, {q: ctx.zero_obj() for q in cplx.degrees()}, {})
    return _resolve_rows(_identity_ses(cplx, zero), False, None)[1]["A"]


def _validates(x) -> bool:
    """Whether a complex or chain map passes its own validation."""
    try:
        x.validate()
    except ValueError:
        return False
    return True


def verify_ce(double: AugmentedDouble) -> CheckReport:
    """Machine-check of the four defining properties of a CE resolution."""
    ctx = double.ctx
    rep = CheckReport()
    if not double.rows:
        rep.add("zero resolution of zero complex",
                all(ctx.is_zero_obj(double.base.obj(q)) for q in double.base.degrees()))
        return rep
    # well-formedness: rows are complexes, horizontal maps are chain maps
    for p, row in enumerate(double.rows):
        rep.add("row %d is a complex" % p, _validates(row))
    for p, f in enumerate(double.dh):
        rep.add("horizontal map %d is a chain map" % p, _validates(f))
    # bullet 1: injectivity by construction tags
    ok = True
    for p, row in enumerate(double.rows):
        for q in row.degrees():
            if not ctx.is_injective_object(row.obj(q)):
                ok = False
    rep.add("entries are chosen injectives", ok)
    # bullet 2: exactness of the augmented rows
    for q in double.degrees():
        objs = [double.rows[p].obj(q) for p in range(double.depth())]
        maps = [double.dh[p].comp(q) for p in range(double.depth() - 1)]
        ok = augmented_exact(ctx, double.base.obj(q), double.augmentation.comp(q),
                             objs, maps)
        rep.add("augmented row exact at q=%d" % q, ok)
    # bullets 3 and 4: cocycles, coboundaries and cohomology columns resolve,
    # under the maps the augmentation and the horizontal maps induce
    _, ztag, htag = double.columns
    for q in double.degrees():
        base = cohomology(double.base, q)
        hs = [cohomology(row, q) for row in double.rows]
        induced = [induced_maps(f, q) for f in [double.augmentation] + double.dh]
        for k, (label, part) in enumerate((("cocycle", "Z"), ("coboundary", "B"),
                                           ("cohomology", "H"))):
            maps = [m[k] for m in induced]
            ok = augmented_exact(ctx, getattr(base, part), maps[0],
                                 [getattr(h, part) for h in hs], maps[1:])
            rep.add("%s column resolves at q=%d" % (label, q), ok)
        # tagged subobjects are injective by construction: Z/H dims match tags
        for p, triple in enumerate(double.triples):
            if q in triple.sums[ztag]:
                okz = ctx.obj_dim(hs[p].Z) == ctx.obj_dim(triple.sum_at(ztag, q).obj)
                okh = ctx.obj_dim(hs[p].H) == ctx.obj_dim(triple.sum_at(htag, q).obj)
                rep.add("tagged Z/H match at p=%d q=%d" % (p, q), okz and okh)
    return rep
