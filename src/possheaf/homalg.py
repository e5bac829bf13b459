"""Cochain complexes over an abelian context, with the standard toolbox.

The context object supplies kernels, cokernels, images, direct sums,
injective embeddings and the extension property; everything here is written
against that interface.  The engine's context is sheafcat.SheafContext,
sheaves on a finite poset; a complex of their global sections lives in
sheafcat.VectorContext, which supplies only what CochainComplex and
ChainMap validation read.  Indexing is cohomological throughout.
"""

from __future__ import annotations


class ZigzagFailure(Exception):
    """Connecting-map construction failed; signals a broken SES."""


class ExtensionFailure(Exception):
    """An injectivity extension step failed; signals invalid input data."""


class TruncationInsufficient(Exception):
    """A resolution did not become exact within the allowed length."""


class CheckReport:
    """Named PASS/FAIL checks, each with an optional detail, in order."""

    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.items)

    def failures(self):
        return [(name, detail) for name, ok, detail in self.items if not ok]

    @staticmethod
    def line(name, ok, detail=""):
        return "%-52s %s%s" % (name, "PASS" if ok else "FAIL", (" " + detail) if detail else "")


class DirectSum:
    """Direct sum of objs, each summand tagged by a key (its position by default).

    A one-summand sum is its summand.  Injections and projections are
    identity blocks at the summands' offsets, made when first read and kept;
    structural maps to other sums are identity blocks too, placed on each
    call; maps into and out of the sum are their parts placed at those
    offsets.
    """

    def __init__(self, ctx, objs, keys=None):
        self.ctx = ctx
        self.objs = list(objs)
        self.keys = list(range(len(self.objs)) if keys is None else keys)
        self.index = {k: i for i, k in enumerate(self.keys)}
        if len(self.index) != len(self.keys):
            raise ValueError("duplicate keys in a direct sum")
        self.obj = self.objs[0] if len(self.objs) == 1 else ctx.direct_sum(self.objs)
        self.offsets = ctx.sum_offsets(self.objs)   # where each summand sits in obj
        self._maps = {}

    def inj(self, key):
        return self._placed("inj", key)

    def proj(self, key):
        return self._placed("proj", key)

    def _placed(self, kind, key):
        f = self._maps.get((kind, key))
        if f is None:
            i = self.index[key]
            X, off, zero = self.objs[i], self.offsets[i], self.offsets[0]
            if kind == "inj":
                f = self.ctx.placed(X, self.obj, [(off, zero, X)])
            else:
                f = self.ctx.placed(self.obj, X, [(zero, off, X)])
            self._maps[(kind, key)] = f
        return f

    def into(self, parts):
        """The map into obj from one common source whose component at each
        key of parts is parts[key], a map into that key's summand; zero at
        the keys not given.  A part of the wrong shape is IllFormedMorphism."""
        X = self.ctx.map_source_obj(next(iter(parts.values())))
        blocks = []
        for key, f in parts.items():
            i = self.index[key]
            self.ctx.check_map(f, X, self.objs[i])
            blocks.append((self.offsets[i], self.offsets[0], f))
        return self.ctx.placed(X, self.obj, blocks)

    def out_of(self, parts):
        """The map out of obj to one common target that is parts[key], a map
        out of that key's summand, on each key of parts; zero on the keys not
        given.  A part of the wrong shape is IllFormedMorphism."""
        Y = self.ctx.map_target_obj(next(iter(parts.values())))
        blocks = []
        for key, f in parts.items():
            i = self.index[key]
            self.ctx.check_map(f, self.objs[i], Y)
            blocks.append((self.offsets[0], self.offsets[i], f))
        return self.ctx.placed(self.obj, Y, blocks)

    def structural_to(self, other: "DirectSum"):
        """The unique key-matching map: the sum of inj.proj over shared keys.

        It is the identity from each shared key's place in self to its place
        in other, and zero elsewhere.
        """
        blocks = [(other.offsets[other.index[k]], off, X)
                  for k, off, X in zip(self.keys, self.offsets, self.objs) if k in other.index]
        return self.ctx.placed(self.obj, other.obj, blocks)


class CochainComplex:
    """Bounded complex: objects X^q and differentials d^q for lo <= q <= hi."""

    def __init__(self, ctx, objects, diffs):
        self.ctx = ctx
        self.objects = dict(objects)
        self.diffs = dict(diffs)
        if self.objects:
            self.lo = min(self.objects)
            self.hi = max(self.objects)
        else:
            self.lo, self.hi = 0, -1
        self._hcache = {}
        self.validate()

    def obj(self, q):
        return self.objects.get(q, self.ctx.zero_obj())

    def diff(self, q):
        d = self.diffs.get(q)
        if d is None:
            return self.ctx.zero_map(self.obj(q), self.obj(q + 1))
        return d

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def is_zero(self):
        return all(self.ctx.is_zero_obj(self.obj(q)) for q in self.degrees())

    def validate(self):
        ctx = self.ctx
        for q in self.degrees():
            d = self.diff(q)
            ctx.check_map(d, self.obj(q), self.obj(q + 1))
            dd = ctx.compose(self.diff(q + 1), d)
            if not ctx.is_zero_map(dd):
                raise ValueError("d^2 != 0 at degree %d" % q)


class ChainMap:
    """Degree-wise map of complexes commuting with the differentials."""

    def __init__(self, source: CochainComplex, target: CochainComplex, comps):
        self.source = source
        self.target = target
        self.comps = dict(comps)
        self.validate()

    def comp(self, q):
        c = self.comps.get(q)
        if c is None:
            return self.source.ctx.zero_map(self.source.obj(q), self.target.obj(q))
        return c

    def validate(self):
        ctx = self.source.ctx
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for q in range(lo, hi + 1):
            ctx.check_map(self.comp(q), self.source.obj(q), self.target.obj(q))
            lhs = ctx.compose(self.target.diff(q), self.comp(q))
            rhs = ctx.compose(self.comp(q + 1), self.source.diff(q))
            if not ctx.map_eq(lhs, rhs):
                raise ValueError("chain map does not commute at degree %d" % q)


class SESOfComplexes:
    """0 -> A* -> B* -> C* -> 0, exact in every degree."""

    def __init__(self, iota: ChainMap, pi: ChainMap):
        self.A = iota.source
        self.B = iota.target
        self.C = pi.target
        if pi.source is not iota.target:
            raise ValueError("iota and pi must share the middle complex")
        self.iota = iota
        self.pi = pi
        self.validate()

    @property
    def ctx(self):
        return self.A.ctx

    def degrees(self):
        return range(min(self.A.lo, self.B.lo, self.C.lo), max(self.A.hi, self.B.hi, self.C.hi) + 1)

    def validate(self):
        ctx = self.ctx
        for q in self.degrees():
            i, p = self.iota.comp(q), self.pi.comp(q)
            if not ctx.is_mono(i):
                raise ValueError("iota not mono at degree %d" % q)
            if not ctx.is_epi(p):
                raise ValueError("pi not epi at degree %d" % q)
            if not ctx.is_exact_pair(i, p, self.B.obj(q)):
                raise ValueError("SES not exact at degree %d" % q)


class HData:
    """Cocycles, coboundaries and cohomology of one degree, with witnesses."""

    __slots__ = ("Z", "z_mono", "B", "b_mono", "b_into_x", "d_epi", "H", "proj")

    def __init__(self, Z, z_mono, B, b_mono, b_into_x, d_epi, H, proj):
        self.Z = Z          # cocycle object
        self.z_mono = z_mono  # Z -> X^q
        self.B = B          # coboundary object
        self.b_mono = b_mono  # B -> Z
        self.b_into_x = b_into_x  # B -> X^q
        self.d_epi = d_epi  # X^{q-1} ->> B (factorization of d^{q-1})
        self.H = H          # cohomology object
        self.proj = proj    # Z ->> H


def cohomology(cplx: CochainComplex, q: int) -> HData:
    if q in cplx._hcache:
        return cplx._hcache[q]
    ctx = cplx.ctx
    Z, z_mono = ctx.kernel(cplx.diff(q))
    Bobj, b_into_x, d_epi = ctx.image(cplx.diff(q - 1))
    b_mono = ctx.lift_through_mono(b_into_x, z_mono)
    H, proj = ctx.cokernel(b_mono)
    data = HData(Z, z_mono, Bobj, b_mono, b_into_x, d_epi, H, proj)
    cplx._hcache[q] = data
    return data


def induced_maps(f: ChainMap, q: int, coboundaries=True):
    """(Z^q(f), B^q(f), H^q(f)): the maps f induces on cocycles, coboundaries
    (None unless asked for) and cohomology, H^q(f) descended from Z^q(f)."""
    ctx = f.source.ctx
    ha, hb = cohomology(f.source, q), cohomology(f.target, q)
    zmap = ctx.lift_through_mono(ctx.compose(f.comp(q), ha.z_mono), hb.z_mono)
    bmap = (ctx.lift_through_mono(ctx.compose(f.comp(q), ha.b_into_x), hb.b_into_x)
            if coboundaries else None)
    return zmap, bmap, ctx.descend_along_epi(ha.proj, ctx.compose(hb.proj, zmap))


def induced_on_cohomology(f: ChainMap, q: int):
    """H^q(f): the map induced on cohomology by a chain map."""
    return induced_maps(f, q, coboundaries=False)[2]


def connecting(ses: SESOfComplexes, q: int):
    """H^q(C) -> H^{q+1}(A) by the standard zigzag, lift-independent.

    Computed through the preimage subobject of Z^q(C) in B^q, so it is
    well defined in any of our concrete contexts; failure to descend means
    the input was not a short exact sequence.
    """
    ctx = ses.ctx
    hc = cohomology(ses.C, q)
    ha1 = cohomology(ses.A, q + 1)
    _, cq = ctx.cokernel(hc.z_mono)  # C^q ->> C^q / Z^q(C)
    P, p = ctx.kernel(ctx.compose(cq, ses.pi.comp(q)))  # preimage of Z^q(C) in B^q
    try:
        v = ctx.lift_through_mono(ctx.compose(ses.B.diff(q), p), ses.iota.comp(q + 1))
        w = ctx.lift_through_mono(v, ha1.z_mono)
        u = ctx.compose(ha1.proj, w)
        e1 = ctx.lift_through_mono(ctx.compose(ses.pi.comp(q), p), hc.z_mono)
        if not ctx.is_epi(e1):
            raise ZigzagFailure("preimage does not surject onto Z^%d(C)" % q)
        e = ctx.compose(hc.proj, e1)
        return ctx.descend_along_epi(e, u)
    except ctx.LiftError as exc:
        raise ZigzagFailure(str(exc)) from exc


class Resolution:
    """Right resolution 0 -> X -> I^0 -> I^1 -> ... by injectives."""

    def __init__(self, target, complex: CochainComplex, augmentation, truncated=False):
        self.target = target          # the resolved object
        self.complex = complex        # the I^* complex (degrees 0..len)
        self.augmentation = augmentation  # X -> I^0
        self.truncated = truncated

    @property
    def ctx(self):
        return self.complex.ctx

    def length(self):
        return self.complex.hi

    def verify_exact(self) -> bool:
        """Exactness of 0 -> X -> I^0 -> I^1 -> ... -> I^top -> 0."""
        cplx = self.complex
        return augmented_exact(self.ctx, self.target, self.augmentation,
                               [cplx.obj(q) for q in cplx.degrees()],
                               [cplx.diff(q) for q in range(cplx.lo, cplx.hi)])


def augmented_exact(ctx, base_obj, aug, objs, maps) -> bool:
    """Exactness of 0 -> X -> C^0 -> C^1 -> ... -> C^top -> 0.

    aug: X -> C^0 and maps[k]: C^k -> C^{k+1}; with no objects, X must be zero.
    """
    if not objs:
        return ctx.is_zero_obj(base_obj)
    if aug is None or not ctx.is_mono(aug):
        return False
    seq = [aug] + maps
    for k in range(len(seq) - 1):
        if not ctx.is_exact_pair(seq[k], seq[k + 1], objs[k]):
            return False
    Q, _ = ctx.cokernel(seq[-1])
    return ctx.is_zero_obj(Q)


def injective_resolution(ctx, X, max_len=None) -> Resolution:
    """Canonical coinduced resolution of an object; exact by construction.

    max_len defaults to the context's truncation bound.  The bound is raised
    automatically as long as the iterated cokernels keep shrinking; a
    non-terminating tail raises TruncationInsufficient.
    """
    if max_len is None:
        max_len = ctx.resolution_bound()
    hard_cap = max_len + 4
    objects, diffs = {}, {}
    I0, m = ctx.injective_embed(X)
    augmentation = m
    objects[0] = I0
    cur_mono, q = m, 0
    truncated = False
    while True:
        Q, e = ctx.cokernel(cur_mono)
        if ctx.is_zero_obj(Q):
            break
        if q + 1 > hard_cap:
            raise TruncationInsufficient(
                "resolution still inexact after %d terms" % (q + 1))
        if q + 1 > max_len:
            truncated = True  # reported, bound raised automatically
        I, m2 = ctx.injective_embed(Q)
        objects[q + 1] = I
        diffs[q] = ctx.compose(m2, e)
        cur_mono, q = m2, q + 1
    cplx = CochainComplex(ctx, objects, diffs)
    return Resolution(X, cplx, augmentation, truncated)


class HorseshoeData:
    """Linked resolutions of a SES, degree-wise split in the middle."""

    def __init__(self, res_a: Resolution, res_b: Resolution, res_c: Resolution,
                 iota_res: ChainMap, pi_res: ChainMap):
        self.res_a = res_a
        self.res_b = res_b
        self.res_c = res_c
        self.iota_res = iota_res
        self.pi_res = pi_res

    def as_ses(self) -> SESOfComplexes:
        return SESOfComplexes(self.iota_res, self.pi_res)


def horseshoe(ctx, iota, pi, res_a: Resolution, res_c: Resolution) -> HorseshoeData:
    """Resolution of the middle of 0 -> A -> B -> C -> 0 from the outer two.

    N^q = M^q (+) P^q with the map B -> N^0 assembled from an injectivity
    extension of the A-augmentation; the construction then iterates on the
    cokernel SES exactly as in the one-step case.
    """
    A_obj = ctx.map_source_obj(iota)
    B_obj = ctx.map_target_obj(iota)
    C_obj = ctx.map_target_obj(pi)
    top = max(res_a.length(), res_c.length())
    sums, diffs = {}, {}
    cur = (A_obj, B_obj, C_obj, iota, pi, res_a.augmentation, res_c.augmentation)
    aug_b = None
    prev_epis = None
    for q in range(top + 1):
        a_obj, b_obj, c_obj, io, pr, emb_a, emb_c = cur
        Mq, Pq = res_a.complex.obj(q), res_c.complex.obj(q)
        N = sums[q] = DirectSum(ctx, [Mq, Pq])
        phi = ctx.extend_along_mono(io, emb_a)          # B -> M^q level
        psi = ctx.compose(emb_c, pr)                     # B -> P^q level
        emb_b = N.into({0: phi, 1: psi})
        if not ctx.is_mono(emb_b):
            raise ExtensionFailure("horseshoe middle embedding not mono at level %d" % q)
        if q == 0:
            aug_b = emb_b
        else:
            diffs[q - 1] = ctx.compose(emb_b, prev_epis)
        # cokernel SES for the next level
        cokA, eA = ctx.cokernel(emb_a)
        cokB, eB = ctx.cokernel(emb_b)
        cokC, eC = ctx.cokernel(psi)                     # psi = N.proj(1) . emb_b
        io2 = ctx.descend_along_epi(eA, ctx.compose(eB, N.inj(0)))
        pr2 = ctx.descend_along_epi(eB, ctx.compose(eC, N.proj(1)))
        if not (ctx.is_mono(io2) and ctx.is_epi(pr2) and ctx.is_exact_pair(io2, pr2, cokB)):
            raise ExtensionFailure("horseshoe cokernel SES not exact at level %d" % q)
        emb_a2 = ctx.descend_along_epi(eA, res_a.complex.diff(q))
        emb_c2 = ctx.descend_along_epi(eC, res_c.complex.diff(q))
        prev_epis = eB
        cur = (cokA, cokB, cokC, io2, pr2, emb_a2, emb_c2)
    # the final cokernel of B must vanish for the middle resolution to close up
    if not ctx.is_zero_obj(cur[1]):
        raise ExtensionFailure("horseshoe middle resolution does not terminate")
    res_b_cplx = CochainComplex(ctx, {q: N.obj for q, N in sums.items()}, diffs)
    res_b = Resolution(B_obj, res_b_cplx, aug_b)
    iota_res = ChainMap(res_a.complex, res_b_cplx, {q: N.inj(0) for q, N in sums.items()})
    pi_res = ChainMap(res_b_cplx, res_c.complex, {q: N.proj(1) for q, N in sums.items()})
    return HorseshoeData(res_a, res_b, res_c, iota_res, pi_res)


def comparison_lift(ctx, phi, res_src: Resolution, res_tgt: Resolution) -> ChainMap:
    """Lift phi: X -> X' to a chain map between injective resolutions."""
    comps = {}
    cur_phi = phi
    emb_src, emb_tgt = res_src.augmentation, res_tgt.augmentation
    top = max(res_src.length(), res_tgt.length())
    for q in range(top + 1):
        g = ctx.extend_along_mono(emb_src, ctx.compose(emb_tgt, cur_phi))
        comps[q] = g
        _, eS = ctx.cokernel(emb_src)
        _, eT = ctx.cokernel(emb_tgt)
        cur_phi = ctx.descend_along_epi(eS, ctx.compose(eT, g))
        emb_src = ctx.descend_along_epi(eS, res_src.complex.diff(q))
        emb_tgt = ctx.descend_along_epi(eT, res_tgt.complex.diff(q))
    return ChainMap(res_src.complex, res_tgt.complex, comps)


def mapping_cone(u: ChainMap):
    """Cone of u: A* -> B*, with the degree-wise split SES B -> cone -> A[1]."""
    ctx = u.source.ctx
    A, B = u.source, u.target
    lo = min(A.lo - 1, B.lo)
    hi = max(A.hi - 1, B.hi)
    sums = {q: DirectSum(ctx, [B.obj(q), A.obj(q + 1)]) for q in range(lo, hi + 1)}
    diffs = {}
    for q in range(lo, hi):
        S, T = sums[q], sums[q + 1]
        diffs[q] = T.into({0: S.out_of({0: B.diff(q), 1: u.comp(q + 1)}),
                           1: S.out_of({1: ctx.neg(A.diff(q + 1))})})
    cone = CochainComplex(ctx, {q: S.obj for q, S in sums.items()}, diffs)
    shiftA = CochainComplex(ctx, {q: A.obj(q + 1) for q in range(lo, hi + 1)},
                            {q: ctx.neg(A.diff(q + 1)) for q in range(lo, hi)})
    iota = ChainMap(B, cone, {q: S.inj(0) for q, S in sums.items()})
    pi = ChainMap(cone, shiftA, {q: S.proj(1) for q, S in sums.items()})
    return cone, SESOfComplexes(iota, pi)
