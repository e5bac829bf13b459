"""Reference computations built from engine pieces, for tests to compare against.

Each function here computes, by a second route, something the engine
computes or assumes on its way to a command's output: the derived functors
of the composite from a fresh resolution, the long exact cohomology
sequence, the exactness of a couple, page stabilization, the couple
morphism induced by entrywise maps, the intersection of subspaces, the
reduced echelon form reached by elimination, the pivot-rule complement of a
subspace and the extension of a map along a mono that vanishes on it, the
structured section basis of a coinduced sheaf, the forge's random map of
coinduced sums placed slot by slot, Gamma of a map of coinduced
sums sliced out one (target, source) summand pair at a time, the tagged H
column of a Cartan-Eilenberg double lifted through its rows' computed cohomology, the
cohomology of a sheaf on an open from its own restricted resolution, every composite
restriction of a sheaf composed eagerly along every path, a direct
sum with all its injections and projections built at once, a map into a
sum with parts on other sums added up through structural maps, the sheaf
operations computed stalk by stalk, with no stalk sharing another's result,
a second set of choices of injective embeddings and extensions (the
flipped `EagerSheafContext` and `flipped_pair`), and finite-dimensional
vector spaces as a whole abelian category.
The command line reaches none of them, so they live with the tests.
"""

import functools

from possheaf import homalg
from possheaf.exactla import (
    Matrix,
    NoSolution,
    Subspace,
    _eliminate,
    cokernel_basis,
    hstack,
    image_basis,
    kernel_basis,
    place_blocks,
    rank,
    solve,
    vstack,
)
from possheaf.gross import FunctorPair, _gamma_base, _linked_resolutions
from possheaf.homalg import ChainMap, CheckReport, SESOfComplexes
from possheaf.poset import Poset
from possheaf.sheafcat import (
    InjectiveSheaf,
    NotCoinduced,
    NotMono,
    Sheaf,
    SheafContext,
    SheafMorphism,
    VectorContext,
    _descend,
    _exact_at,
    _extend_matrix,
    _image,
    gamma_map,
    gamma_of_complex,
    subspace_sheaf,
)
from possheaf.specseq import CoupleMorphism, CoupleTower, ExactCouple, tot_block_map

# -- exactla and homalg -------------------------------------------------------


class VectorSpaces(VectorContext):
    """Finite-dimensional vector spaces as an abelian category with enough
    injectives: objects are dimensions, maps matrices.  `VectorContext` holds
    only what a complex of Gamma values needs; this adds the rest of the
    context interface, so homalg's cohomology, connecting maps, resolutions
    and direct sums run over plain vector spaces too."""

    LiftError = NoSolution

    def is_zero_obj(self, X):
        return X == 0

    def obj_dim(self, X):
        return X

    def identity(self, X):
        return Matrix.identity(self.field, X)

    def add(self, f, g):
        return f + g

    def neg(self, f):
        return -f

    def map_source_obj(self, f):
        return f.cols

    def map_target_obj(self, f):
        return f.rows

    def image(self, f):
        img, epi = _image(f)
        return img.dim, img.basis, epi

    def is_mono(self, f):
        return rank(f) == f.cols

    def is_epi(self, f):
        return rank(f) == f.rows

    def lift_through_mono(self, f, m):
        return solve(m, f)

    def descend_along_epi(self, e, f):
        return _descend(e, f)

    def sum_offsets(self, Xs):
        """Where each summand of the direct sum of Xs begins."""
        offs, off = [], 0
        for n in Xs:
            offs.append(off)
            off += n
        return offs

    def placed(self, X, Y, blocks):
        """The map X -> Y that is zero but for the given blocks, each (row
        offset, column offset, B) and the identity of B for an object."""
        return place_blocks(self.field, Y, X, blocks)

    def extend_along_mono(self, m, f):
        if not self.is_mono(m):
            raise NotMono("extension base is not a monomorphism")
        return _extend_matrix(m, f)

    def is_exact_pair(self, f, g, mid):
        return _exact_at(f, g, mid)

    def is_injective_object(self, X):
        return True

    def resolution_bound(self):
        return 2


def on_vector_spaces(cplx: homalg.CochainComplex) -> homalg.CochainComplex:
    """A complex of Gamma values, as the engine builds it, over `VectorSpaces`,
    so homalg's cohomology and connecting maps run on it."""
    return homalg.CochainComplex(VectorSpaces(cplx.ctx.field), cplx.objects, cplx.diffs)


def intersect(s: Subspace, t: Subspace) -> Subspace:
    """s and t intersected, as a canonical subspace."""
    if s.dim == 0 or t.dim == 0:
        return Subspace.zero(s.field, s.ambient_dim)
    ker = kernel_basis(hstack([s.basis, -t.basis]))
    u = ker.basis.rows_slice(range(s.dim))
    return Subspace.from_columns(s.basis * u)


def rref(m: Matrix):
    """(reduced, pivots) of m by elimination of a copy of every row, whatever
    m's shape or rows: `exactla.rref` as it was before it read empty and
    one-entry-row operands off."""
    a = [dict(r) for r in m._nz]
    pivots = _eliminate(m.field, a, m.cols)
    return Matrix(m.field, m.rows, m.cols, a), pivots


def complement(s: Subspace) -> Subspace:
    """Complementary subspace spanned by the standard vectors off s's pivots."""
    pset = set(s.pivots)
    nonpiv = [i for i in range(s.ambient_dim) if i not in pset]
    # standard vectors in increasing order are already column-reduced
    basis = Matrix.identity(s.field, s.ambient_dim).cols_slice(nonpiv)
    return Subspace(s.field, s.ambient_dim, basis, nonpiv)


def complement_of_image(m: Matrix, flip: bool) -> Matrix:
    """Basis of a complement of im(m), chosen by the pivot rule.

    With flip=True the rule runs on reversed coordinates, giving a second
    deterministic (and generally different) choice.
    """
    n = m.rows
    if not flip:
        return complement(image_basis(m)).basis
    rev = Matrix.identity(m.field, n).cols_slice(list(range(n - 1, -1, -1)))
    comp = complement(image_basis(rev * m)).basis
    return rev * comp


def extend_matrix(m: Matrix, f: Matrix, flip: bool) -> Matrix:
    """g with g*m = f and g = 0 on the chosen complement of im(m), m a mono:
    one solve of the invertible frame [m | complement]."""
    comp = complement_of_image(m, flip)
    frame = hstack([m, comp])
    zero = Matrix.zeros(f.field, f.rows, comp.cols)
    target = hstack([f, zero])
    return solve(frame.transpose(), target.transpose()).transpose()


def render(report: CheckReport) -> str:
    """The report's lines, one per check, as the CLI prints them."""
    return "\n".join(CheckReport.line(*item) for item in report.items)


def long_exact_sequence(ses: SESOfComplexes):
    """The cohomology ladder as a list of (label, map); exactness checkable."""
    out = []
    for q in range(ses.A.lo - 1, max(ses.A.hi, ses.B.hi, ses.C.hi) + 2):
        out.append(("H^%d(A)->H^%d(B)" % (q, q), homalg.induced_on_cohomology(ses.iota, q),
                    homalg.cohomology(ses.A, q).H))
        out.append(("H^%d(B)->H^%d(C)" % (q, q), homalg.induced_on_cohomology(ses.pi, q),
                    homalg.cohomology(ses.B, q).H))
        out.append(("H^%d(C)->H^%d(A)" % (q, q + 1), homalg.connecting(ses, q),
                    homalg.cohomology(ses.C, q).H))
    return out


def les_is_exact(ses: SESOfComplexes) -> bool:
    ctx = ses.ctx
    ladder = long_exact_sequence(ses)
    for k in range(len(ladder) - 1):
        _, f, _ = ladder[k]
        _, g, mid = ladder[k + 1]
        if not ctx.is_exact_pair(f, g, mid):
            return False
    return True


# -- sheafcat -------------------------------------------------------------------


def gamma_struct_basis(I: InjectiveSheaf) -> Matrix:
    """Structured section basis as vectors in total stalk coordinates."""
    field = I.field
    cols = []
    for j, (x, v) in enumerate(I.summands):
        for t in range(v):
            vec = [field.zero()] * I.total_dim
            for y in I.poset.down[x]:
                vec[I.offsets[y] + I.slot[y][j] + t] = field.one()
            cols.append(vec)
    return Matrix.from_rows(field, [[c[i] for c in cols] for i in range(I.total_dim)], len(cols))


def gamma_struct_map_by_pairs(phi: SheafMorphism) -> Matrix:
    """Gamma(phi) in structured coordinates, as `sheafcat.gamma_struct_map`
    read it before it read each target peak once: for every target summand
    and every source summand present at the target's peak, the block of
    phi at that peak between the two summands' slots."""
    srcI, tgtI = phi.source, phi.target
    p = srcI.poset
    blocks = []
    roff = 0
    for jt, (xt, vt) in enumerate(tgtI.summands):
        toff = tgtI.slot[xt][jt]
        rows = phi.comps[xt].rows_slice(range(toff, toff + vt))
        coff = 0
        for js, (xs, vs) in enumerate(srcI.summands):
            if xs in p.up[xt]:  # xt <= xs: source section present at xt
                soff = srcI.slot[xt][js]
                blocks.append((roff, coff, rows.cols_slice(range(soff, soff + vs))))
            coff += vs
        roff += vt
    return place_blocks(srcI.field, tgtI.mult_total, srcI.mult_total, blocks)


def random_coinduced_map_by_slots(rng, ctx, src: InjectiveSheaf, tgt: InjectiveSheaf):
    """The forge's random morphism of coinduced sums as it was first written:
    one random block per (target, source) summand pair with the source's peak
    above the target's, drawn in that order, and each component placed
    directly at both summands' slots in the stalk."""
    field = ctx.field
    blocks = {}
    for jt, (yt, vt) in enumerate(tgt.summands):
        for js, (xs, vs) in enumerate(src.summands):
            if xs in ctx.poset.up[yt]:           # y <= x: Hom([x]_U, [y]_V) = Hom(U, V)
                blocks[(jt, js)] = Matrix.from_rows(
                    field, [[rng.randint(-2, 2) for _ in range(vs)] for _ in range(vt)],
                    cols=vs)
    comps = [place_blocks(field, tgt.dims[z], src.dims[z],
                          [(tgt.slot[z][jt], src.slot[z][js], blocks[(jt, js)])
                           for jt in tgt.present[z] for js in src.present[z] if (jt, js) in blocks])
             for z in range(len(ctx.poset))]
    return SheafMorphism(src, tgt, comps)


def injective_cover(I: InjectiveSheaf, y, x) -> Matrix:
    """The restriction of I along the cover y < x, written from its definition,
    as `InjectiveSheaf` once wrote every cover when it was made: each summand
    present at x moves from its slot at y to its slot at x."""
    rows = [[0] * I.dims[y] for _ in range(I.dims[x])]
    for s in I.present[x]:
        for t in range(I.summands[s][1]):
            rows[I.slot[x][s] + t][I.slot[y][s] + t] = 1
    return Matrix.from_rows(I.field, rows, I.dims[y])


def eager_direct_sum(ctx, objs):
    """(sum, injections, projections) of objs, every map built at once: the
    contexts' `direct_sum` as it was before `homalg.DirectSum` made each map
    on first read.  Summand k sits at the sum of the sizes before it (per
    stalk, over a poset), and its maps are identity blocks placed there."""
    total = ctx.direct_sum(objs)
    vector = isinstance(ctx, VectorSpaces)
    off = zero = 0 if vector else [0] * len(ctx.poset)
    offs = []
    for X in objs:
        offs.append(off)
        off = off + X if vector else [a + d for a, d in zip(off, X.dims)]
    injs = [ctx.placed(X, total, [(o, zero, X)]) for o, X in zip(offs, objs)]
    projs = [ctx.placed(total, X, [(zero, o, X)]) for o, X in zip(offs, objs)]
    return total, injs, projs


def into_by_structural_sums(ctx, T, subs, rest):
    """A map into the sum T with parts on other sums, as ceres once built its
    comparison maps: each part f into a sum S (subs, S -> f) composed after
    S.structural_to(T), added to one another and to T.into(rest), the parts
    at T's own keys."""
    maps = [ctx.compose(S.structural_to(T), f) for S, f in subs.items()]
    return functools.reduce(ctx.add, maps + ([T.into(rest)] if rest else []))


def composites(F: Sheaf) -> dict:
    """Every composite restriction {(i, j): F_i -> F_j} of F, i <= j, each checked
    on every path: `Sheaf._build_full` as it was before composites were made on
    first read.  For each i it composes j in linear-extension order, as the
    cover restriction (read through `restriction`) along each cover k < j above
    i after the composite to k, and raises the engine's ValueError at the first
    pair whose candidates differ."""
    p = F.poset
    pos = {e: k for k, e in enumerate(p.linear_extension())}
    out = {}
    for i in range(len(p)):
        fi = {i: Matrix.identity(F.field, F.dims[i])}
        for j in sorted(p.up[i], key=lambda t: pos[t]):
            if j == i:
                continue
            cands = [F.restriction(k, j) * fi[k] for (k, jj) in p.covers if jj == j and k in fi]
            for other in cands[1:]:
                if not (other == cands[0]):
                    raise ValueError("restriction maps are path dependent from %s to %s"
                                     % (p.elements[i], p.elements[j]))
            fi[j] = cands[0]
        out.update(((i, j), m) for j, m in fi.items())
    return out


class EagerSheafContext(SheafContext):
    """`SheafContext` with every operation that shares equal stalks' results
    computed stalk by stalk instead, as the engine did before: each stalk
    runs its own kernel, product or solve, and `extend_along_mono` extends
    one summand at a time.  A failure is raised at the first stalk that
    fails, and `descend_along_epi` names it.

    With flip=True it makes the second set of choices that the tests check
    the engine's results do not depend on: `injective_embed` lists the
    summands in reverse element order, and `extend_along_mono` extends by
    the frame solve on reversed coordinates, `extend_matrix(m, f, True)`."""

    def __init__(self, poset: Poset, field, flip=False):
        super().__init__(poset, field)
        self.flip = flip

    def injective_embed(self, X):
        if not self.flip or isinstance(X, InjectiveSheaf):
            return super().injective_embed(X)
        order = range(len(self.poset) - 1, -1, -1)
        I = InjectiveSheaf(self.poset, self.field, [(x, X.dims[x]) for x in order if X.dims[x] > 0])
        comps = []
        for y in range(len(self.poset)):
            blocks = [X.restriction(y, I.summands[j][0]) for j in I.present[y]]
            comps.append(vstack(blocks) if blocks else Matrix.zeros(self.field, 0, X.dims[y]))
        return I, SheafMorphism(X, I, comps, validate=False)

    def compose(self, f, g):
        return SheafMorphism(g.source, f.target, [a * b for a, b in zip(f.comps, g.comps)],
                             validate=False)

    def map_eq(self, f, g):
        return all(a == b for a, b in zip(f.comps, g.comps))

    def kernel(self, f):
        kers = [kernel_basis(m) for m in f.comps]
        K = subspace_sheaf(self.poset, self.field, kers, f.source.restriction)
        return K, SheafMorphism(K, f.source, [k.basis for k in kers], validate=False)

    def cokernel(self, f):
        cok = [cokernel_basis(m) for m in f.comps]
        rho = {(i, j): cok[j][1] * (f.target.restriction(i, j) * cok[i][0])
               for (i, j) in self.poset.covers}
        Q = Sheaf(self.poset, self.field, [r.cols for r, _ in cok], rho, validate=False)
        return Q, SheafMorphism(f.target, Q, [p for _, p in cok], validate=False)

    def image(self, f):
        imgs = [image_basis(m) for m in f.comps]
        I = subspace_sheaf(self.poset, self.field, imgs, f.target.restriction)
        mono = SheafMorphism(I, f.target, [s.basis for s in imgs], validate=False)
        epi = SheafMorphism(f.source, I, [m.rows_slice(s.pivots) for m, s in zip(f.comps, imgs)],
                            validate=False)
        return I, mono, epi

    def is_mono(self, f):
        return all(rank(m) == m.cols for m in f.comps)

    def is_epi(self, f):
        return all(rank(m) == m.rows for m in f.comps)

    def is_exact_pair(self, f, g, mid):
        for a, b, d in zip(f.comps, g.comps, mid.dims):
            if not (b * a).is_zero() or rank(a) + rank(b) != d:
                return False
        return True

    def lift_through_mono(self, f, m):
        return SheafMorphism(f.source, m.source, [solve(a, b) for a, b in zip(m.comps, f.comps)],
                             validate=False)

    def descend_along_epi(self, e, f):
        comps = []
        for x, a, b in zip(self.poset.elements, e.comps, f.comps):
            try:
                g = solve(a.transpose(), b.transpose()).transpose()
            except NoSolution as exc:
                raise NoSolution("map does not descend along the epimorphism at %s: "
                                 "no preimage for row %d of the map" % (x, exc.column),
                                 exc.column) from None
            if not (g * a == b):
                raise NoSolution("map does not descend along the epimorphism at %s" % x)
            comps.append(g)
        return SheafMorphism(e.target, f.target, comps, validate=False)

    def extend_along_mono(self, m, f):
        I = f.target
        if not isinstance(I, InjectiveSheaf):
            raise NotCoinduced("extension target must be a realized coinduced sum")
        if not self.is_mono(m):
            raise NotMono("extension base is not a monomorphism")
        B = m.target
        peaks = []
        for j, (x, v) in enumerate(I.summands):
            off = I.slot[x][j]
            mx, fx = m.comps[x], f.comps[x].rows_slice(range(off, off + v))
            peaks.append(extend_matrix(mx, fx, True) if self.flip else _extend_matrix(mx, fx))
        comps = []
        for y in range(len(self.poset)):
            blocks = [peaks[j] * B.restriction(y, I.summands[j][0]) for j in I.present[y]]
            comps.append(vstack(blocks) if blocks else Matrix.zeros(self.field, 0, B.dims[y]))
        return SheafMorphism(B, I, comps, validate=False)


def flipped_pair(f, source_poset, field) -> FunctorPair:
    """`FunctorPair(f, source_poset, field)` on the second set of choices:
    both of its contexts are flipped `EagerSheafContext`s."""
    pair = FunctorPair(f, source_poset, field)
    pair.src_ctx = EagerSheafContext(pair.src_poset, field, flip=True)
    pair.tgt_ctx = EagerSheafContext(pair.tgt_poset, field, flip=True)
    return pair


class NotOpen(Exception):
    pass


def restrict_to_open(F: Sheaf, open_names):
    """F restricted to an open set, as a sheaf on the induced subposet."""
    p = F.poset
    if not p.is_open(set(open_names)):
        raise NotOpen("%r is not an up-set" % (sorted(open_names),))
    keepset = {i for i in range(len(p)) if p.elements[i] in set(open_names)}
    keep = sorted(keepset)
    sub = Poset([p.elements[i] for i in keep],
                [(p.elements[i], p.elements[j]) for (i, j) in p.covers
                 if i in keepset and j in keepset])
    remap = {i: sub.idx(p.elements[i]) for i in keep}
    dims = [0] * len(sub)
    for i in keep:
        dims[remap[i]] = F.dims[i]
    rho = {}
    for (i, j) in p.covers:
        if i in remap and j in remap:
            rho[(remap[i], remap[j])] = F.restriction(i, j)
    return Sheaf(sub, F.field, dims, rho, validate=False), sub


def resolved_cohomology_dims(F: Sheaf, max_q=None) -> list:
    """R^q Gamma(F) dims from q=0: cohomology of Gamma of F's own resolution."""
    res = homalg.injective_resolution(SheafContext(F.poset, F.field), F)
    vec = on_vector_spaces(gamma_of_complex(res.complex))
    top = res.length() if max_q is None else max(res.length(), max_q)
    return [homalg.cohomology(vec, q).H for q in range(top + 1)]


def restricted_cohomology_dims(F: Sheaf, open_idx, max_q=None) -> list:
    """H^q(U, F|_U) dims from q=0, from a resolution of the restricted sheaf."""
    FU, _ = restrict_to_open(F, {F.poset.elements[i] for i in open_idx})
    return resolved_cohomology_dims(FU, max_q)


# -- specseq --------------------------------------------------------------------


def _exact_pair(f: Matrix, g: Matrix, mid: int) -> bool:
    if f.rows != mid or g.cols != mid:
        return False
    if not (g * f).is_zero():
        return False
    return rank(f) + rank(g) == mid


def check_exact(couple: ExactCouple) -> bool:
    """Triangle exactness at every populated node of the couple."""
    r = couple.level
    for (p, q) in couple.E:
        # at E^{p,q}: im(j from A^{p-r+1,q+r-1}) = ker(k to A^{p+1,q})
        jm = couple.j_map(p - r + 1, q + r - 1)
        km = couple.k_map(p, q)
        if not _exact_pair(jm, km, couple.e_sq(p, q).dim):
            return False
    for (p, q) in couple.A:
        # at A^{p,q}: im(i from A^{p+1,q-1}) = ker(j)
        im = couple.i_map(p + 1, q - 1)
        jm = couple.j_map(p, q)
        if not _exact_pair(im, jm, couple.a_sq(p, q).dim):
            return False
        # at A^{p,q}: im(k from E^{p-1,q}) = ker(i to A^{p-1,q+1})
        km = couple.k_map(p - 1, q)
        im2 = couple.i_map(p, q)
        if not _exact_pair(km, im2, couple.a_sq(p, q).dim):
            return False
    return True


def stabilization_ok(ss: CoupleTower) -> bool:
    """E_r^{p,q} constant for r > max(p, q+1) + 1."""
    for p in range(ss.D + 1):
        for q in range(ss.D + 1):
            start = max(p, q + 1) + 2
            dims = {r: ss.entry(r, p, q).dim
                    for r in range(min(start, ss.r_inf), ss.r_inf + 1)}
            if len(set(dims.values())) > 1:
                return False
    return True


def map_of_spectral_sequences(src: CoupleTower, dst: CoupleTower, entry_maps) -> CoupleMorphism:
    """Couple morphism induced by entrywise maps R^{p,q} -> R'^{p,q}.

    The entry maps must commute with both differentials up to one global
    sign (checked); A-level maps are induced on filtration cohomology.
    """
    a_maps, e_maps = {}, {}
    for (p, q), asq in src.A1.items():
        n = p + q
        tgt = dst.A1.get((p, q))
        if tgt is None or asq.dim == 0:
            continue
        a_maps[(p, q)] = asq.induced_map(tgt, tot_block_map(src, dst, entry_maps, n, p))
    for (p, q), esq in src.E1.items():
        tgt = dst.E1.get((p, q))
        if tgt is None or esq.dim == 0:
            continue
        m = entry_maps.get((p, q))
        if m is None:
            m = Matrix.zeros(src.field, dst.dc.dim(p, q), src.dc.dim(p, q))
        e_maps[(p, q)] = esq.induced_map(tgt, m)
    return CoupleMorphism(src, dst, (0, 0), a_maps, e_maps)


# -- gross: derived functors from a fresh resolution -----------------------------


def derived_functor_gf(pair: FunctorPair, A, q=None):
    """R^q(G.F)(A) dims (list from 0, or one value) via a fresh resolution."""
    res = homalg.injective_resolution(pair.src_ctx, A)
    vec = on_vector_spaces(_gamma_base(pair, pair.F_complex(res.complex))[0])
    dims = [homalg.cohomology(vec, t).H for t in range(res.length() + 1)]
    return dims if q is None else (dims[q] if q < len(dims) else 0)


def higher_direct_image(pair: FunctorPair, A, q):
    """R^q F(A) as a sheaf on the target, via a fresh resolution."""
    res = homalg.injective_resolution(pair.src_ctx, A)
    F = pair.F_complex(res.complex)
    return homalg.cohomology(F, q).H


def derived_functor_map(pair: FunctorPair, phi, q) -> Matrix:
    """R^q(G.F)(phi) as a matrix, via a comparison lift of resolutions."""
    ctx = pair.src_ctx
    res_src = homalg.injective_resolution(ctx, ctx.map_source_obj(phi))
    res_tgt = homalg.injective_resolution(ctx, ctx.map_target_obj(phi))
    lift = homalg.comparison_lift(ctx, phi, res_src, res_tgt)
    F_src, F_tgt = pair.F_complex(res_src.complex), pair.F_complex(res_tgt.complex)
    vec_src, bases_src = _gamma_base(pair, F_src)
    vec_tgt, bases_tgt = _gamma_base(pair, F_tgt)
    comps = {}
    for t in vec_src.degrees():
        if t not in vec_tgt.objects:
            continue
        Fl = pair.apply_F_map(lift.comp(t), F_src.obj(t), F_tgt.obj(t))
        comps[t] = gamma_map(Fl, bases_src[t].basis, bases_tgt[t].basis)
    chain = ChainMap(on_vector_spaces(vec_src), on_vector_spaces(vec_tgt), comps)
    return homalg.induced_on_cohomology(chain, q)


def lifted_h_resolutions(double) -> dict:
    """q -> the tagged H column of a CE double at degree q, as a Resolution
    of H^q of its base, built by lifting through the rows' computed cohomology.

    The tagged H part of row p goes to H^q of the row by its inclusion into
    the row object, lifted to the cocycles and projected; each differential
    and the augmentation are the maps induced on cohomology, lifted back
    through those isos.
    """
    ctx = double.ctx
    col, _, htag = double.columns
    depth = double.depth()

    def tagged_to_computed(p, q):
        triple = double.triples[p]
        h = homalg.cohomology(double.rows[p], q)
        incl = triple.sum_at(htag, q).structural_to(triple.sum_at(col, q))
        return ctx.compose(h.proj, ctx.lift_through_mono(incl, h.z_mono))

    out = {}
    for q in range(double.base.lo, double.base.hi + 1):
        objs, diffs, isos = {}, {}, {}
        for p, triple in enumerate(double.triples):
            if q in triple.sums[htag]:
                objs[p] = triple.sum_at(htag, q).obj
                isos[p] = tagged_to_computed(p, q)
        for p in range(depth - 1):
            if p in objs and p + 1 in objs:
                hd = homalg.induced_on_cohomology(double.dh[p], q)
                diffs[p] = ctx.lift_through_mono(ctx.compose(hd, isos[p]), isos[p + 1])
        if not objs:
            continue
        haug = homalg.induced_on_cohomology(double.augmentation, q)
        out[q] = homalg.Resolution(homalg.cohomology(double.base, q).H,
                                   homalg.CochainComplex(ctx, objs, diffs),
                                   ctx.lift_through_mono(haug, isos[0]))
    return out


def connecting_derived(pair: FunctorPair, iota, pi, q, horseshoe_data=None):
    """The boundary morphism R^qF(C) -> R^{q+1}F(A) at the sheaf level."""
    if horseshoe_data is None:
        horseshoe_data = _linked_resolutions(pair, iota, pi)
    F_ses = pair.F_ses(horseshoe_data)
    return homalg.connecting(F_ses, q), F_ses
