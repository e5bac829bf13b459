"""The two concrete abelian categories with enough injectives.

Plain finite-dimensional vector spaces, and sheaves of such on a finite
poset (stalk at x = sections over the minimal open U_x, so a sheaf is a
functor on <= with restriction maps F_x -> F_y for x <= y).  Both are
wrapped in one context interface: kernels, cokernels, images, direct sums,
injective embeddings and the extension property along monomorphisms.

Injective sheaves are only ever represented as formal sums of coinduced
summands [x]_V (stalk V at every y <= x, identity restrictions); the
correspondence Hom(F, [x]_V) = Hom(F_x, V) drives every extension step.
"""

from __future__ import annotations

import random

from . import homalg
from .exactla import (
    Matrix,
    NoSolution,
    Subspace,
    block_diag,
    cokernel_basis,
    image_basis,
    kernel_basis,
    kron,
    place_blocks,
    rank,
    solve,
    vstack,
)
from .poset import MonotoneMap, Poset


class IllFormedMorphism(Exception):
    pass


class NotMono(Exception):
    pass


class NotCoinduced(Exception):
    pass


def _extend_matrix(m: Matrix, f: Matrix, flip: bool) -> Matrix:
    """g with g*m = f, for m a mono, and g = 0 on a complement of im(m).

    The complement is spanned by the standard vectors off the pivots P of
    im(m)'s canonical basis.  That basis is the identity on P, so m is it
    times C, m's rows at P, which is invertible as m is a mono.  So g is
    f*C^-1 on the columns P and zero elsewhere, from one solve of C's size.
    With flip=True the pivot rule runs on reversed coordinates, a second
    deterministic (and generally different) choice: g is the extension of
    m with its rows reversed, with its own columns reversed back.
    """
    if flip:
        rev = range(m.rows - 1, -1, -1)
        return _extend_matrix(m.rows_slice(rev), f, False).cols_slice(rev)
    piv = image_basis(m).pivots
    # g^T's rows at P, then one zero row that every other row of g^T shares
    gt = vstack([solve(m.rows_slice(piv).transpose(), f.transpose()), Matrix.zeros(f.field, 1, f.rows)])
    at = {pc: a for a, pc in enumerate(piv)}
    return gt.rows_slice([at.get(i, len(piv)) for i in range(m.rows)]).transpose()


class VectorContext:
    """Finite-dimensional vector spaces; objects are dimensions, maps matrices."""

    LiftError = NoSolution

    def __init__(self, field, flip=False):
        self.field = field
        self.flip = flip

    # objects -----------------------------------------------------------
    def zero_obj(self):
        return 0

    def is_zero_obj(self, X):
        return X == 0

    def obj_dim(self, X):
        return X

    # maps ---------------------------------------------------------------
    def identity(self, X):
        return Matrix.identity(self.field, X)

    def zero_map(self, X, Y):
        return Matrix.zeros(self.field, Y, X)

    def compose(self, f, g):
        return f * g

    def add(self, f, g):
        return f + g

    def sub(self, f, g):
        return f - g

    def neg(self, f):
        return -f

    def map_eq(self, f, g):
        return f == g

    def is_zero_map(self, f):
        return f.is_zero()

    def check_map(self, f, X, Y):
        if f.cols != X or f.rows != Y:
            raise IllFormedMorphism("expected %dx%d map, got %dx%d" % (Y, X, f.rows, f.cols))

    def map_source_obj(self, f):
        return f.cols

    def map_target_obj(self, f):
        return f.rows

    # abelian structure ---------------------------------------------------
    def kernel(self, f):
        ker = kernel_basis(f)
        return ker.dim, ker.basis

    def cokernel(self, f):
        reps, proj = cokernel_basis(f)
        return reps.cols, proj

    def image(self, f):
        # the basis is the identity on its pivot rows, and f lies in its span
        img = image_basis(f)
        return img.dim, img.basis, f.rows_slice(img.pivots)

    def is_mono(self, f):
        return rank(f) == f.cols

    def is_epi(self, f):
        return rank(f) == f.rows

    def lift_through_mono(self, f, m):
        return solve(m, f)

    def descend_along_epi(self, e, f):
        try:
            g = solve(e.transpose(), f.transpose()).transpose()
        except NoSolution as exc:
            raise NoSolution("map does not descend along the epimorphism: "
                             "no preimage for row %d of the map" % exc.column, exc.column) from None
        if not (g * e == f):
            raise NoSolution("map does not descend along the epimorphism")
        return g

    def sum_offsets(self, Xs):
        """Where each summand of the direct sum of Xs begins."""
        offs, off = [], 0
        for n in Xs:
            offs.append(off)
            off += n
        return offs

    def placed_identities(self, X, Y, blocks):
        """The map X -> Y that is zero but for identity blocks.

        Each block (row offset, column offset, Z) is the identity of Z, with
        its corner at those offsets.
        """
        return place_blocks(self.field, Y, X, blocks)

    def direct_sum(self, Xs):
        total = sum(Xs)
        offs = self.sum_offsets(Xs)
        injs = [self.placed_identities(X, total, [(off, 0, X)]) for off, X in zip(offs, Xs)]
        projs = [self.placed_identities(total, X, [(0, off, X)]) for off, X in zip(offs, Xs)]
        return total, injs, projs

    def injective_embed(self, X):
        return X, Matrix.identity(self.field, X)

    def extend_along_mono(self, m, f):
        if not self.is_mono(m):
            raise NotMono("extension base is not a monomorphism")
        return _extend_matrix(m, f, self.flip)

    def is_exact_pair(self, f, g, mid):
        if not (g * f).is_zero():
            return False
        return rank(f) + rank(g) == mid

    def is_injective_object(self, X):
        return True

    def resolution_bound(self):
        return 2


class Sheaf:
    """Sheaf of finite-dimensional vector spaces on a finite poset."""

    def __init__(self, poset: Poset, field, dims, rho, validate=True):
        self.poset = poset
        self.field = field
        self.dims = list(dims)
        if len(self.dims) != len(poset):
            raise ValueError("stalk dimension list does not match the poset")
        self.rho = dict(rho)  # (i, j) cover index pair -> Matrix dims[j] x dims[i]
        for (i, j) in poset.covers:
            m = self.rho.get((i, j))
            if m is None:
                if self.dims[i] == 0 or self.dims[j] == 0:
                    self.rho[(i, j)] = Matrix.zeros(field, self.dims[j], self.dims[i])
                else:
                    raise ValueError("missing restriction for cover %s<%s"
                                     % (poset.elements[i], poset.elements[j]))
        self.offsets = []
        off = 0
        for d in self.dims:
            self.offsets.append(off)
            off += d
        self.total_dim = off
        self._composites = {}   # (i, j) -> restriction(i, j), made on first read
        if validate:
            self.validate()

    def validate(self):
        """Check every restriction's shape, then read every pair, i ascending and j
        in linear-extension order, so each is checked along every path."""
        for (i, j), m in self.rho.items():
            if m.rows != self.dims[j] or m.cols != self.dims[i]:
                raise ValueError("restriction %s<%s has wrong shape"
                                 % (self.poset.elements[i], self.poset.elements[j]))
        p = self.poset
        pos = {e: k for k, e in enumerate(p.linear_extension())}
        for i in range(len(p)):
            for j in sorted(p.up[i], key=pos.__getitem__):
                self.restriction(i, j)

    def restriction(self, i, j) -> Matrix:
        """The composite restriction F_i -> F_j for i <= j, made on first read and kept."""
        m = self._composites.get((i, j))
        if m is None:
            m = self._composites[i, j] = self._compose(i, j)
        return m

    def _compose(self, i, j) -> Matrix:
        """rho along each cover k < j above i after restriction(i, k); these must agree."""
        if i == j:
            return Matrix.identity(self.field, self.dims[i])
        p = self.poset
        first, *others = [self.rho[(k, j)] * self.restriction(i, k)
                          for (k, jj) in p.covers if jj == j and k in p.up[i]]
        if any(other != first for other in others):
            raise ValueError("restriction maps are path dependent from %s to %s"
                             % (p.elements[i], p.elements[j]))
        return first

    def __repr__(self):
        return "Sheaf(dims=%s)" % (self.dims,)


class InjectiveSheaf(Sheaf):
    """Realized formal sum of coinduced summands [x]_V.

    `present[y]` lists the summands whose peak lies above y, in order, and
    `slot[y][s]` is where summand s begins in the stalk at y.  Every
    restriction is known by construction, so none is composed along
    paths: `_compose` writes the composite y -> x (y <= x) directly, as
    the summands present at x, each an identity block from its slot at y
    to its slot at x, dropping the others.  It is path-independent by
    construction.
    """

    def __init__(self, poset: Poset, field, summands):
        self.summands = [(poset_idx, mult) for (poset_idx, mult) in summands]
        n = len(poset)
        present = [[] for _ in range(n)]
        for j, (x, v) in enumerate(self.summands):
            if v <= 0:
                raise ValueError("coinduced summand multiplicity must be >= 1")
            for y in poset.down[x]:
                present[y].append(j)
        dims = [sum(self.summands[j][1] for j in present[y]) for y in range(n)]
        slot = [dict() for _ in range(n)]
        for y in range(n):
            off = 0
            for j in present[y]:
                slot[y][j] = off
                off += self.summands[j][1]
        self.present = present
        self.slot = slot
        self.mult_total = sum(v for (_, v) in self.summands)
        self.field, self.dims = field, dims   # _compose reads them to write rho on the covers
        super().__init__(poset, field, dims, {c: self._compose(*c) for c in poset.covers},
                         validate=False)

    def _compose(self, y, x) -> Matrix:
        return place_blocks(self.field, self.dims[x], self.dims[y],
                            [(self.slot[x][s], self.slot[y][s], self.summands[s][1])
                             for s in self.present[x]])

    def peak_rows(self, j):
        """Row indices (in total coordinates) of summand j at its peak point."""
        x, v = self.summands[j]
        off = self.offsets[x] + self.slot[x][j]
        return list(range(off, off + v))

    def __repr__(self):
        return "InjectiveSheaf(%s)" % [
            ("%s" % self.poset.elements[x], v) for (x, v) in self.summands
        ]


class SheafMorphism:
    """Stalk-wise linear maps commuting with all restriction maps."""

    def __init__(self, source: Sheaf, target: Sheaf, comps, validate=True):
        self.source = source
        self.target = target
        self.comps = list(comps)
        if validate:
            self.validate()

    def validate(self):
        src, tgt = self.source, self.target
        if src.poset is not tgt.poset:
            raise IllFormedMorphism("source and target live on different posets")
        if len(self.comps) != len(src.poset):
            raise IllFormedMorphism("wrong number of components")
        for i, m in enumerate(self.comps):
            if m.rows != tgt.dims[i] or m.cols != src.dims[i]:
                raise IllFormedMorphism("component at %s has wrong shape"
                                        % src.poset.elements[i])
        for (i, j) in src.poset.covers:
            lhs = self.comps[j] * src.rho[(i, j)]
            rhs = tgt.rho[(i, j)] * self.comps[i]
            if not (lhs == rhs):
                raise IllFormedMorphism("component square at cover %s<%s does not commute"
                                        % (src.poset.elements[i], src.poset.elements[j]))

    def is_zero(self):
        return all(m.is_zero() for m in self.comps)

    def __eq__(self, other):
        return (
            isinstance(other, SheafMorphism)
            and self.source.dims == other.source.dims
            and self.target.dims == other.target.dims
            and all(a == b for a, b in zip(self.comps, other.comps))
        )

    def as_block_matrix(self) -> Matrix:
        """The morphism on total coordinates (block diagonal over elements)."""
        return block_diag(self.source.field, self.comps)

    def __repr__(self):
        return "SheafMorphism(%s -> %s)" % (self.source.dims, self.target.dims)


class SheafContext:
    """Sheaves on a fixed finite poset as an abelian category."""

    LiftError = NoSolution

    def __init__(self, poset: Poset, field, flip=False):
        self.poset = poset
        self.field = field
        self.flip = flip
        self._zero = InjectiveSheaf(poset, field, [])

    # objects -----------------------------------------------------------
    def zero_obj(self):
        return self._zero

    def is_zero_obj(self, X):
        return X.total_dim == 0

    def obj_dim(self, X):
        return X.total_dim

    def constant_sheaf(self, dim=1):
        ident = Matrix.identity(self.field, dim)
        rho = {(i, j): ident for (i, j) in self.poset.covers}
        return Sheaf(self.poset, self.field, [dim] * len(self.poset), rho)

    # maps ---------------------------------------------------------------
    def identity(self, X):
        return SheafMorphism(X, X, [Matrix.identity(self.field, d) for d in X.dims],
                             validate=False)

    def zero_map(self, X, Y):
        return SheafMorphism(
            X, Y, [Matrix.zeros(self.field, Y.dims[i], X.dims[i]) for i in range(len(self.poset))],
            validate=False)

    def compose(self, f, g):
        if g.target.dims != f.source.dims:
            raise IllFormedMorphism("composition shape mismatch")
        return SheafMorphism(g.source, f.target,
                             [a * b for a, b in zip(f.comps, g.comps)], validate=False)

    def add(self, f, g):
        return SheafMorphism(f.source, f.target,
                             [a + b for a, b in zip(f.comps, g.comps)], validate=False)

    def sub(self, f, g):
        return SheafMorphism(f.source, f.target,
                             [a - b for a, b in zip(f.comps, g.comps)], validate=False)

    def neg(self, f):
        return SheafMorphism(f.source, f.target, [-a for a in f.comps], validate=False)

    def map_eq(self, f, g):
        return all(a == b for a, b in zip(f.comps, g.comps))

    def is_zero_map(self, f):
        return f.is_zero()

    def check_map(self, f, X, Y):
        if f.source.dims != X.dims or f.target.dims != Y.dims:
            raise IllFormedMorphism("morphism endpoints do not match")

    def map_source_obj(self, f):
        return f.source

    def map_target_obj(self, f):
        return f.target

    # abelian structure ---------------------------------------------------
    def kernel(self, f):
        kers = [kernel_basis(f.comps[i]) for i in range(len(self.poset))]
        dims = [k.dim for k in kers]
        rho = {}
        for (i, j) in self.poset.covers:
            moved = f.source.rho[(i, j)] * kers[i].basis
            rho[(i, j)] = (kers[j].coords_of(moved) if dims[j] else
                           Matrix.zeros(self.field, 0, dims[i]))
        K = Sheaf(self.poset, self.field, dims, rho, validate=False)
        mono = SheafMorphism(K, f.source, [k.basis for k in kers], validate=False)
        return K, mono

    def cokernel(self, f):
        reps, projs, dims = [], [], []
        for i in range(len(self.poset)):
            r, p = cokernel_basis(f.comps[i])
            reps.append(r)
            projs.append(p)
            dims.append(r.cols)
        rho = {}
        for (i, j) in self.poset.covers:
            rho[(i, j)] = projs[j] * (f.target.rho[(i, j)] * reps[i])
        Q = Sheaf(self.poset, self.field, dims, rho, validate=False)
        epi = SheafMorphism(f.target, Q, projs, validate=False)
        return Q, epi

    def image(self, f):
        imgs = [image_basis(f.comps[i]) for i in range(len(self.poset))]
        dims = [s.dim for s in imgs]
        rho = {}
        for (i, j) in self.poset.covers:
            moved = f.target.rho[(i, j)] * imgs[i].basis
            rho[(i, j)] = (imgs[j].coords_of(moved) if dims[j] else
                           Matrix.zeros(self.field, 0, dims[i]))
        I = Sheaf(self.poset, self.field, dims, rho, validate=False)
        mono = SheafMorphism(I, f.target, [s.basis for s in imgs], validate=False)
        epi_comps = [f.comps[i].rows_slice(s.pivots) for i, s in enumerate(imgs)]
        epi = SheafMorphism(f.source, I, epi_comps, validate=False)
        return I, mono, epi

    def is_mono(self, f):
        return all(rank(m) == m.cols for m in f.comps)

    def is_epi(self, f):
        return all(rank(m) == m.rows for m in f.comps)

    def lift_through_mono(self, f, m):
        comps = [solve(m.comps[i], f.comps[i]) for i in range(len(self.poset))]
        return SheafMorphism(f.source, m.source, comps, validate=False)

    def descend_along_epi(self, e, f):
        comps = []
        for i in range(len(self.poset)):
            try:
                g = solve(e.comps[i].transpose(), f.comps[i].transpose()).transpose()
            except NoSolution as exc:
                raise NoSolution("map does not descend along the epimorphism at %s: "
                                 "no preimage for row %d of the map"
                                 % (self.poset.elements[i], exc.column), exc.column) from None
            if not (g * e.comps[i] == f.comps[i]):
                raise NoSolution("map does not descend along the epimorphism at %s"
                                 % self.poset.elements[i])
            comps.append(g)
        return SheafMorphism(e.target, f.target, comps, validate=False)

    def direct_sum(self, Xs):
        if all(isinstance(X, InjectiveSheaf) for X in Xs):
            S = InjectiveSheaf(self.poset, self.field,
                               [s for X in Xs for s in X.summands])
        else:
            dims = [sum(X.dims[i] for X in Xs) for i in range(len(self.poset))]
            rho = {}
            for (i, j) in self.poset.covers:
                rho[(i, j)] = block_diag(self.field, [X.rho[(i, j)] for X in Xs])
            S = Sheaf(self.poset, self.field, dims, rho, validate=False)
        zero, offs = [0] * len(self.poset), self.sum_offsets(Xs)
        injs = [self.placed_identities(X, S, [(off, zero, X)]) for off, X in zip(offs, Xs)]
        projs = [self.placed_identities(S, X, [(zero, off, X)]) for off, X in zip(offs, Xs)]
        return S, injs, projs

    def sum_offsets(self, Xs):
        """Where each summand of the direct sum of Xs begins: a list of stalk offsets."""
        offs, off = [], [0] * len(self.poset)
        for X in Xs:
            offs.append(off)
            off = [a + d for a, d in zip(off, X.dims)]
        return offs

    def placed_identities(self, X, Y, blocks):
        """The morphism X -> Y that is zero but for identity blocks.

        Each block (row offsets, column offsets, Z) is the identity of Z, at
        each stalk i with its corner at the i-th offsets.
        """
        comps = [place_blocks(self.field, Y.dims[i], X.dims[i],
                              [(r[i], c[i], Z.dims[i]) for r, c, Z in blocks])
                 for i in range(len(self.poset))]
        return SheafMorphism(X, Y, comps, validate=False)

    def injective_embed(self, X):
        """Canonical coinduced embedding; identity when X is already realized."""
        if isinstance(X, InjectiveSheaf):
            return X, self.identity(X)
        order = range(len(self.poset))
        if self.flip:
            order = range(len(self.poset) - 1, -1, -1)
        summands = [(x, X.dims[x]) for x in order if X.dims[x] > 0]
        I = InjectiveSheaf(self.poset, self.field, summands)
        comps = []
        for y in range(len(self.poset)):
            blocks = [X.restriction(y, I.summands[j][0]) for j in I.present[y]]
            if blocks:
                comps.append(vstack(blocks))
            else:
                comps.append(Matrix.zeros(self.field, 0, X.dims[y]))
        mono = SheafMorphism(X, I, comps, validate=False)
        return I, mono

    def extend_along_mono(self, m, f):
        """g: B -> I with g.m = f, for I a realized coinduced sum.

        Works one summand [x]_V at a time through Hom(F, [x]_V) = Hom(F_x, V):
        solve at the peak stalk, extend by zero on a complement of im(m_x).
        """
        I = f.target
        if not isinstance(I, InjectiveSheaf):
            raise NotCoinduced("extension target must be a realized coinduced sum")
        if not self.is_mono(m):
            raise NotMono("extension base is not a monomorphism")
        B = m.target
        peaks = []
        for j, (x, v) in enumerate(I.summands):
            off = I.slot[x][j]
            fj = f.comps[x].rows_slice(range(off, off + v))
            peaks.append(_extend_matrix(m.comps[x], fj, self.flip))
        comps = []
        for y in range(len(self.poset)):
            blocks = [peaks[j] * B.restriction(y, I.summands[j][0]) for j in I.present[y]]
            if blocks:
                comps.append(vstack(blocks))
            else:
                comps.append(Matrix.zeros(self.field, 0, B.dims[y]))
        return SheafMorphism(B, I, comps, validate=False)

    def is_exact_pair(self, f, g, mid):
        for i in range(len(self.poset)):
            if not (g.comps[i] * f.comps[i]).is_zero():
                return False
            if rank(f.comps[i]) + rank(g.comps[i]) != mid.dims[i]:
                return False
        return True

    def is_injective_object(self, X):
        return isinstance(X, InjectiveSheaf)

    def resolution_bound(self):
        return self.poset.longest_chain_length() + 2


# global sections ---------------------------------------------------------

def global_sections(F: Sheaf) -> Subspace:
    """Gamma(F): sections over the whole space, in total stalk coordinates."""
    return sections_over(F, range(len(F.poset)))


def sections_over(F: Sheaf, open_idx) -> Subspace:
    """Sections over an open set, in the coordinates of its stalks."""
    offs, total = {}, 0
    for x in sorted(open_idx):
        offs[x] = total
        total += F.dims[x]
    rows = []
    for (i, j) in F.poset.covers:
        if i in offs and j in offs:
            # rho_ij s_i - s_j = 0
            rows.append(place_blocks(F.field, F.dims[j], total,
                                     [(0, offs[i], F.rho[(i, j)]),
                                      (0, offs[j], -Matrix.identity(F.field, F.dims[j]))]))
    if not rows:
        return Subspace.full(F.field, total)
    return kernel_basis(vstack(rows))


def gamma_struct_map(phi: SheafMorphism, srcI: InjectiveSheaf, tgtI: InjectiveSheaf) -> Matrix:
    """Gamma(phi) in structured coordinates (one slot per coinduced summand)."""
    field = phi.source.field
    p = phi.source.poset
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
    return place_blocks(field, tgtI.mult_total, srcI.mult_total, blocks)


def gamma_read_struct(I: InjectiveSheaf, vecs: Matrix) -> Matrix:
    """Structured coordinates of section vectors (read off at the peaks)."""
    rows = []
    for j in range(len(I.summands)):
        rows.extend(I.peak_rows(j))
    return vecs.rows_slice(rows)


def gamma_map(phi: SheafMorphism, src_basis: Matrix, tgt_basis: Matrix) -> Matrix:
    """Gamma(phi) between explicit section bases in total coordinates."""
    moved = phi.as_block_matrix() * src_basis
    if tgt_basis.cols == 0:
        if not moved.is_zero():
            raise NoSolution("section image misses the target section space")
        return Matrix.zeros(phi.source.field, 0, src_basis.cols)
    return solve(tgt_basis, moved)


def gamma_of_complex(cplx: homalg.CochainComplex, vctx: VectorContext) -> homalg.CochainComplex:
    """Apply Gamma to a complex of realized injective sheaves (structured)."""
    objects, diffs = {}, {}
    for q in cplx.degrees():
        objects[q] = cplx.obj(q).mult_total
    for q in cplx.degrees():
        if q + 1 in objects:
            diffs[q] = gamma_struct_map(cplx.diff(q), cplx.obj(q), cplx.obj(q + 1))
    return homalg.CochainComplex(vctx, objects, diffs)


def cohomology_on_opens(F: Sheaf, opens, max_q=None) -> list:
    """H^q(U, F|_U) dims from q=0 for each open U (a set of element indices).

    One canonical resolution I of F serves every open.  Injective sheaves are
    flasque, and stay flasque, hence Gamma-acyclic, on an open, so Gamma(U, I)
    computes H^*(U, F|_U).  Gamma(U, [x]_V) is V for x in U and 0 otherwise,
    so Gamma(U, I) is the principal block of Gamma(I) on the summands peaked
    in U: a quotient complex, as U is an up-set.  I restricted to U is the
    canonical resolution of F|_U, so each list ends at the last degree with a
    summand peaked in U (0 if none), raised to max_q.
    """
    res = homalg.injective_resolution(SheafContext(F.poset, F.field), F)
    vec = gamma_of_complex(res.complex, VectorContext(F.field))
    peaks = [[x for x, v in res.complex.obj(q).summands for _ in range(v)]
             for q in res.complex.degrees()]
    out = []
    for U in opens:
        keep = [[c for c, x in enumerate(col) if x in U] for col in peaks]
        top = max((q for q, cols in enumerate(keep) if cols), default=0)
        # r[q] is the rank of d^(q-1) on the block
        r = [0] + [rank(vec.diff(q).rows_slice(keep[q + 1]).cols_slice(keep[q]))
                   for q in range(top)] + [0]
        dims = [len(keep[q]) - r[q] - r[q + 1] for q in range(top + 1)]
        out.append(dims + [0] * ((max_q or 0) - top))
    return out


def sheaf_cohomology_dims(F: Sheaf, max_q=None) -> list:
    """R^q Gamma via the canonical coinduced resolution; list of dims from q=0."""
    return cohomology_on_opens(F, [range(len(F.poset))], max_q)[0]


# opens and acyclicity -------------------------------------------------------

class AcyclicityReport:
    def __init__(self, ok, failing_open, opens_checked, exhaustive):
        self.ok = ok
        self.failing_open = failing_open
        self.opens_checked = opens_checked
        self.exhaustive = exhaustive

    def __bool__(self):
        return self.ok


_OPEN_CAP = 600         # check every open when there are at most this many
_SAMPLE_COUNT = 24      # else add this many random unions of minimal opens,
_SAMPLE_SEED = 0        # drawn from this seed


def is_acyclic_on_all_opens(F: Sheaf) -> AcyclicityReport:
    """H^q(U, F|_U) = 0 for q >= 1, over all opens or a generated sample.

    Small posets are checked exhaustively; larger ones over all minimal opens
    U_x, their pairwise unions, the whole space and seeded random unions.
    """
    p = F.poset
    opens = None
    if len(p) <= 10:
        all_opens = p.open_sets()
        if len(all_opens) <= _OPEN_CAP:
            opens = [set(s) for s in all_opens if s]
    exhaustive = opens is not None
    if opens is None:
        gens = [set(p.up[i]) for i in range(len(p))]
        fam = [set(range(len(p)))] + gens
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                fam.append(gens[a] | gens[b])
        rng = random.Random(_SAMPLE_SEED)
        for _ in range(_SAMPLE_COUNT):
            k = rng.randint(2, max(2, min(4, len(gens))))
            pick = rng.sample(range(len(gens)), k)
            fam.append(set().union(*[gens[t] for t in pick]))
        seen, opens = set(), []
        for s in fam:
            key = frozenset(s)
            if key and key not in seen:
                seen.add(key)
                opens.append(s)
    for s, dims in zip(opens, cohomology_on_opens(F, opens)):
        if any(dims[1:]):
            return AcyclicityReport(False, sorted(p.elements[i] for i in s), len(opens),
                                    exhaustive)
    return AcyclicityReport(True, None, len(opens), exhaustive)


# pushforward ---------------------------------------------------------------

class Pushforward:
    """Direct image along a monotone map: stalks are sections over preimages."""

    def __init__(self, f: MonotoneMap):
        self.f = f

    def apply(self, F: Sheaf) -> Sheaf:
        f, tgt = self.f, self.f.target
        opens, bases = [], []
        for q in range(len(tgt)):
            o = sorted(f.preimage_idx(tgt.up[q]))
            opens.append(o)
            bases.append(sections_over(F, o))
        dims = [b.dim for b in bases]
        rho = {}
        for (q, q2) in tgt.covers:
            sel = self._selector(F, opens[q], opens[q2])
            moved = sel * bases[q].basis
            rho[(q, q2)] = (bases[q2].coords_of(moved) if dims[q2] else
                            Matrix.zeros(F.field, 0, dims[q]))
        out = Sheaf(tgt, F.field, dims, rho, validate=False)
        out._push = (opens, bases)
        return out

    @staticmethod
    def _selector(F: Sheaf, big, small) -> Matrix:
        offs_big, off = {}, 0
        for x in big:
            offs_big[x] = off
            off += F.dims[x]
        keep = [offs_big[x] + r for x in small for r in range(F.dims[x])]
        return Matrix.identity(F.field, off).rows_slice(keep)

    def apply_map(self, phi: SheafMorphism, FA_pushed: Sheaf, FB_pushed: Sheaf) -> SheafMorphism:
        opensA, basesA = FA_pushed._push
        _, basesB = FB_pushed._push
        comps = []
        for q in range(len(self.f.target)):
            o = opensA[q]
            blocks = block_diag(phi.source.field, [phi.comps[x] for x in o]) if o else \
                Matrix.zeros(phi.source.field, 0, 0)
            moved = blocks * basesA[q].basis
            if basesB[q].dim:
                comps.append(basesB[q].coords_of(moved))
            else:
                comps.append(Matrix.zeros(phi.source.field, 0, basesA[q].dim))
        return SheafMorphism(FA_pushed, FB_pushed, comps, validate=False)


def hom_basis(F: Sheaf, G: Sheaf):
    """Basis of the space of sheaf morphisms F -> G.

    The unknowns are the entries of every component phi_i, row-major, one
    block per element.  Each cover i < j asks phi_j rF - rG phi_i = 0, and
    row-major vec(phi_j rF) = (1 (x) rF^T) vec(phi_j), vec(rG phi_i) =
    (rG (x) 1) vec(phi_i).
    """
    p = F.poset
    field = F.field
    var_off, off = [], 0
    for i in range(len(p)):
        var_off.append(off)
        off += G.dims[i] * F.dims[i]
    nvars = off
    rows = []
    for (i, j) in p.covers:
        rF, rG = F.rho[(i, j)], G.rho[(i, j)]
        rows.append(place_blocks(field, G.dims[j] * F.dims[i], nvars, [
            (0, var_off[j], kron(Matrix.identity(field, G.dims[j]), rF.transpose())),
            (0, var_off[i], -kron(rG, Matrix.identity(field, F.dims[i])))]))
    ker = kernel_basis(vstack(rows)) if rows else Subspace.full(field, nvars)
    out = []
    for t in range(ker.dim):
        vec = ker.basis.cols_slice([t])
        out.append(SheafMorphism(F, G, [
            vec.rows_slice(range(var_off[i], var_off[i] + G.dims[i] * F.dims[i]))
            .reshape(G.dims[i], F.dims[i]) for i in range(len(p))]))
    return out
