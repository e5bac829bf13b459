"""Sheaves on a finite poset: the abelian category with enough injectives.

Sheaves of finite-dimensional vector spaces on a finite poset (stalk at x =
sections over the minimal open U_x, so a sheaf is a functor on <= with
restriction maps F_x -> F_y for x <= y), wrapped in the context interface
homalg reads: kernels, cokernels, images, direct sums, injective embeddings
and the extension property along monomorphisms.  Global sections turn a
complex of them into a complex of matrices, whose context, VectorContext,
holds only what validating such a complex reads.

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


def _extend_matrix(m: Matrix, f: Matrix) -> Matrix:
    """g with g*m = f, for m a mono, and g = 0 on a complement of im(m).

    The complement is spanned by the standard vectors off the pivots P of
    im(m)'s canonical basis.  That basis is the identity on P, so m is it
    times C, m's rows at P, which is invertible as m is a mono.  So g is
    f*C^-1 on the columns P and zero elsewhere, from one solve of C's size.
    """
    piv = image_basis(m).pivots
    # g^T's rows at P, then one zero row that every other row of g^T shares
    gt = vstack([solve(m.rows_slice(piv).transpose(), f.transpose()), Matrix.zeros(f.field, 1, f.rows)])
    at = {pc: a for a, pc in enumerate(piv)}
    return gt.rows_slice([at.get(i, len(piv)) for i in range(m.rows)]).transpose()


def _stalkwise(fn, *comps):
    """[fn(*ops) for ops in zip(*comps)], running fn once per distinct ops.

    Stalks whose operands are equal share one result.  That is exact, as
    every exactla kernel is a function of its operands' values, and safe,
    as no result is changed once made.  The memo lives for this call only.
    Products, solves and extensions go through here; kernels, cokernels and
    images are called stalk by stalk, as a command's field keeps them in its
    memo (see exactla).
    """
    memo, out = {}, []
    for ops in zip(*comps):
        r = memo.get(ops)
        if r is None:
            r = memo[ops] = fn(*ops)
        out.append(r)
    return out


def _no_descent(column, where=""):
    """NoSolution for a map that does not descend along an epi, at `where`;
    column is the first row of the map with no preimage, when one is known."""
    msg = "map does not descend along the epimorphism" + where
    if column is not None:
        msg += ": no preimage for row %d of the map" % column
    return NoSolution(msg, column)


def _descend(e: Matrix, f: Matrix) -> Matrix:
    """g with g*e = f, for e an epi; NoSolution when f does not descend."""
    try:
        g = solve(e.transpose(), f.transpose()).transpose()
    except NoSolution as exc:
        raise _no_descent(exc.column) from None
    if not (g * e == f):
        raise _no_descent(None)
    return g


def _exact_at(f: Matrix, g: Matrix, mid: int) -> bool:
    """g*f = 0 and rank f + rank g = mid: f then g is exact at a space of dimension mid."""
    return (g * f).is_zero() and rank(f) + rank(g) == mid


def _image(m: Matrix):
    """im(m)'s canonical basis, and m into it: the basis is the identity on
    its pivot rows, and m lies in its span."""
    img = image_basis(m)
    return img, m.rows_slice(img.pivots)


class VectorContext:
    """The context of a complex of Gamma values: objects are dimensions, maps
    matrices.  It holds what validating a complex or chain map of them reads."""

    def __init__(self, field):
        self.field = field

    def zero_obj(self):
        return 0

    def zero_map(self, X, Y):
        return Matrix.zeros(self.field, Y, X)

    def compose(self, f, g):
        return f * g

    def map_eq(self, f, g):
        return f == g

    def is_zero_map(self, f):
        return f.is_zero()

    def check_map(self, f, X, Y):
        if f.cols != X or f.rows != Y:
            raise IllFormedMorphism("expected %dx%d map, got %dx%d" % (Y, X, f.rows, f.cols))

    # The benchmark's tracer wraps these four by name (perfbench/tracer.py,
    # TARGETS), and test_layout pins every name it wraps; the command line
    # never calls them on Gamma values.
    def kernel(self, f):
        ker = kernel_basis(f)
        return ker.dim, ker.basis

    def cokernel(self, f):
        reps, proj = cokernel_basis(f)
        return reps.cols, proj

    def direct_sum(self, Xs):
        return sum(Xs)

    def injective_embed(self, X):
        return X, Matrix.identity(self.field, X)


class Sheaf:
    """Sheaf of finite-dimensional vector spaces on a finite poset."""

    def __init__(self, poset: Poset, field, dims, rho, validate=True):
        self.poset = poset
        self.field = field
        self.dims = list(dims)
        if len(self.dims) != len(poset):
            raise ValueError("stalk dimension list does not match the poset")
        self.offsets = []
        off = 0
        for d in self.dims:
            self.offsets.append(off)
            off += d
        self.total_dim = off
        # (i, j) -> restriction(i, j), Matrix dims[j] x dims[i]: the given
        # covers, and every other pair once it is first read
        self._composites = dict(rho)
        if validate:
            self.validate()

    def validate(self):
        """Read every cover, so a missing one is named, and check its shape; then read
        every pair, i ascending and j in linear-extension order, so each is checked
        along every path."""
        p = self.poset
        covers = [(i, j, self.restriction(i, j)) for (i, j) in p.covers]
        for i, j, m in covers:
            if m.rows != self.dims[j] or m.cols != self.dims[i]:
                raise ValueError("restriction %s<%s has wrong shape"
                                 % (p.elements[i], p.elements[j]))
        pos = {e: k for k, e in enumerate(p.linear_extension())}
        for i in range(len(p)):
            for j in sorted(p.up[i], key=pos.__getitem__):
                self.restriction(i, j)

    def restriction(self, i, j) -> Matrix:
        """The restriction F_i -> F_j for i <= j, made on first read and kept."""
        m = self._composites.get((i, j))
        if m is None:
            m = self._composites[i, j] = self._compose(i, j)
        return m

    def _compose(self, i, j) -> Matrix:
        """A cover not given is zero out of or into a zero stalk, and missing otherwise.
        Any other pair is the restriction along each cover k < j above i after
        restriction(i, k); these must agree."""
        p = self.poset
        if i == j:
            return Matrix.identity(self.field, self.dims[i])
        if j in p.succ[i]:
            if self.dims[i] and self.dims[j]:
                raise ValueError("missing restriction for cover %s<%s"
                                 % (p.elements[i], p.elements[j]))
            return Matrix.zeros(self.field, self.dims[j], self.dims[i])
        first, *others = [self.restriction(k, j) * self.restriction(i, k)
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
    `slot[y][s]` is where summand s begins in the stalk at y, and
    `struct_off[s]` where it begins in structured coordinates, the basis of
    Gamma with one slot per summand (`mult_total` in all).  Every
    restriction is known by construction, so none is given and none is
    composed along paths: `_compose` writes the restriction y -> x (y <= x),
    a cover or not, when it is first read, as the summands present at x,
    each an identity block from its slot at y to its slot at x, dropping
    the others.  It is path-independent by construction.
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
        self.struct_off, self.mult_total = [], 0
        for _, v in self.summands:
            self.struct_off.append(self.mult_total)
            self.mult_total += v
        super().__init__(poset, field, dims, {}, validate=False)

    def _compose(self, y, x) -> Matrix:
        return place_blocks(self.field, self.dims[x], self.dims[y],
                            [(self.slot[x][s], self.slot[y][s], self.summands[s][1])
                             for s in self.present[x]])

    def sections_at(self, x) -> Matrix:
        """Gamma in structured coordinates -> the stalk at x: the identity from
        each summand present at x, at its structured offset, to its slot there."""
        return place_blocks(self.field, self.dims[x], self.mult_total,
                            [(self.slot[x][j], self.struct_off[j], self.summands[j][1])
                             for j in self.present[x]])

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
            lhs = self.comps[j] * src.restriction(i, j)
            rhs = tgt.restriction(i, j) * self.comps[i]
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


def subspace_sheaf(poset: Poset, field, subs, restrict) -> Sheaf:
    """The sheaf of the stalk subspaces subs with the restrictions they inherit.

    subs[i] lies in an ambient space at i, and restrict(i, j) maps the ambient
    space at i to the one at j, carrying subs[i] into subs[j], for each cover
    i < j.  A cover out of or into a zero subspace is left to the sheaf, which
    reads it as zero.
    """
    rho = {(i, j): subs[j].coords_of(restrict(i, j) * subs[i].basis)
           for (i, j) in poset.covers if subs[i].dim and subs[j].dim}
    return Sheaf(poset, field, [s.dim for s in subs], rho, validate=False)


def _into_coinduced(B: Sheaf, I: InjectiveSheaf, peaks) -> SheafMorphism:
    """The map B -> I with rows peaks[j] at summand j's peak x_j, by
    Hom(B, [x]_V) = Hom(B_x, V): its component at y stacks
    peaks[j] * B.restriction(y, x_j) over the summands j present at y."""
    comps = []
    for y in range(len(B.poset)):
        blocks = [peaks[j] * B.restriction(y, I.summands[j][0]) for j in I.present[y]]
        comps.append(vstack(blocks) if blocks else Matrix.zeros(B.field, 0, B.dims[y]))
    return SheafMorphism(B, I, comps, validate=False)


class SheafContext:
    """Sheaves on a fixed finite poset as an abelian category."""

    LiftError = NoSolution

    def __init__(self, poset: Poset, field):
        self.poset = poset
        self.field = field
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
        return SheafMorphism(g.source, f.target, _stalkwise(Matrix.__mul__, f.comps, g.comps),
                             validate=False)

    def add(self, f, g):
        return SheafMorphism(f.source, f.target,
                             [a + b for a, b in zip(f.comps, g.comps)], validate=False)

    def neg(self, f):
        return SheafMorphism(f.source, f.target, [-a for a in f.comps], validate=False)

    def map_eq(self, f, g):
        return all(a == b for a, b in set(zip(f.comps, g.comps)))

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
        kers = [kernel_basis(m) for m in f.comps]
        K = subspace_sheaf(self.poset, self.field, kers, f.source.restriction)
        return K, SheafMorphism(K, f.source, [k.basis for k in kers], validate=False)

    def cokernel(self, f):
        cok = [cokernel_basis(m) for m in f.comps]    # (reps, proj) per stalk
        rho = {(i, j): cok[j][1] * (f.target.restriction(i, j) * cok[i][0])
               for (i, j) in self.poset.covers}
        Q = Sheaf(self.poset, self.field, [r.cols for r, _ in cok], rho, validate=False)
        return Q, SheafMorphism(f.target, Q, [p for _, p in cok], validate=False)

    def image(self, f):
        parts = [_image(m) for m in f.comps]    # (image, f into it) per stalk
        I = subspace_sheaf(self.poset, self.field, [s for s, _ in parts], f.target.restriction)
        mono = SheafMorphism(I, f.target, [s.basis for s, _ in parts], validate=False)
        epi = SheafMorphism(f.source, I, [e for _, e in parts], validate=False)
        return I, mono, epi

    def is_mono(self, f):
        return all(rank(m) == m.cols for m in set(f.comps))

    def is_epi(self, f):
        return all(rank(m) == m.rows for m in set(f.comps))

    def lift_through_mono(self, f, m):
        return SheafMorphism(f.source, m.source, _stalkwise(solve, m.comps, f.comps),
                             validate=False)

    def descend_along_epi(self, e, f):
        def descend(ei, fi):
            try:
                return _descend(ei, fi)
            except NoSolution as exc:
                # _stalkwise runs this at the first stalk that holds ei and fi: name it
                at = next(x for x, ops in zip(self.poset.elements, zip(e.comps, f.comps))
                          if ops == (ei, fi))
                raise _no_descent(exc.column, " at %s" % at) from None
        return SheafMorphism(e.target, f.target, _stalkwise(descend, e.comps, f.comps),
                             validate=False)

    def direct_sum(self, Xs):
        if all(isinstance(X, InjectiveSheaf) for X in Xs):
            S = InjectiveSheaf(self.poset, self.field,
                               [s for X in Xs for s in X.summands])
        else:
            dims = [sum(X.dims[i] for X in Xs) for i in range(len(self.poset))]
            rho = {}
            for (i, j) in self.poset.covers:
                rho[(i, j)] = block_diag(self.field, [X.restriction(i, j) for X in Xs])
            S = Sheaf(self.poset, self.field, dims, rho, validate=False)
        return S

    def sum_offsets(self, Xs):
        """Where each summand of the direct sum of Xs begins: a list of stalk offsets."""
        offs, off = [], [0] * len(self.poset)
        for X in Xs:
            offs.append(off)
            off = [a + d for a, d in zip(off, X.dims)]
        return offs

    def placed(self, X, Y, blocks):
        """The morphism X -> Y that is zero but for the given blocks.

        Each block (row offsets, column offsets, B) has, at each stalk i, its
        corner at the i-th offsets, and is the identity of B for a sheaf, or
        B's component at i for a morphism.
        """
        comps = [place_blocks(self.field, Y.dims[i], X.dims[i],
                              [(r[i], c[i], B.comps[i] if isinstance(B, SheafMorphism)
                                else B.dims[i]) for r, c, B in blocks])
                 for i in range(len(self.poset))]
        return SheafMorphism(X, Y, comps, validate=False)

    def injective_embed(self, X):
        """Canonical coinduced embedding; identity when X is already realized."""
        if isinstance(X, InjectiveSheaf):
            return X, self.identity(X)
        summands = [(x, X.dims[x]) for x in range(len(self.poset)) if X.dims[x] > 0]
        I = InjectiveSheaf(self.poset, self.field, summands)
        return I, _into_coinduced(X, I, [Matrix.identity(self.field, v) for _, v in summands])

    def extend_along_mono(self, m, f):
        """g: B -> I with g.m = f, for I a realized coinduced sum.

        Works through Hom(F, [x]_V) = Hom(F_x, V): solve at the peak stalk,
        extend by zero on a complement of im(m_x).  The extension works row by
        row, so f's stalk at each peak is extended once, and each summand
        peaked there takes its own rows.
        """
        I = f.target
        if not isinstance(I, InjectiveSheaf):
            raise NotCoinduced("extension target must be a realized coinduced sum")
        if not self.is_mono(m):
            raise NotMono("extension base is not a monomorphism")
        pts = list(dict.fromkeys(x for x, _ in I.summands))
        exts = dict(zip(pts, _stalkwise(_extend_matrix, [m.comps[x] for x in pts],
                                        [f.comps[x] for x in pts])))
        peaks = [exts[x].rows_slice(range(I.slot[x][j], I.slot[x][j] + v))
                 for j, (x, v) in enumerate(I.summands)]
        return _into_coinduced(m.target, I, peaks)

    def is_exact_pair(self, f, g, mid):
        return all(_exact_at(*ops) for ops in set(zip(f.comps, g.comps, mid.dims)))

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
                                     [(0, offs[i], F.restriction(i, j)),
                                      (0, offs[j], -Matrix.identity(F.field, F.dims[j]))]))
    if not rows:
        return Subspace.full(F.field, total)
    return kernel_basis(vstack(rows))


def gamma_struct_map(phi: SheafMorphism) -> Matrix:
    """Gamma(phi) in structured coordinates (one slot per coinduced summand),
    read off phi's own endpoints, realized injectives.  A section's
    coordinates on a target summand are its value at the summand's peak, so
    the rows of summand j peaked at x are phi at x after Gamma(source) -> the
    stalk at x, read once per distinct peak."""
    src, tgt = phi.source, phi.target
    at = {x: phi.comps[x] * src.sections_at(x) for x in dict.fromkeys(x for x, _ in tgt.summands)}
    return place_blocks(src.field, tgt.mult_total, src.mult_total,
                        [(tgt.struct_off[j], 0, at[x].rows_slice(range(tgt.slot[x][j], tgt.slot[x][j] + v)))
                         for j, (x, v) in enumerate(tgt.summands)])


def gamma_read_struct(I: InjectiveSheaf, vecs: Matrix) -> Matrix:
    """Structured coordinates of section vectors (read off at the peaks)."""
    rows = []
    for j in range(len(I.summands)):
        rows.extend(I.peak_rows(j))
    return vecs.rows_slice(rows)


def gamma_map(phi: SheafMorphism, src_basis: Matrix, tgt_basis: Matrix) -> Matrix:
    """Gamma(phi) between explicit section bases in total coordinates."""
    return solve(tgt_basis, phi.as_block_matrix() * src_basis)


def gamma_of_complex(cplx: homalg.CochainComplex) -> homalg.CochainComplex:
    """Apply Gamma to a complex of realized injective sheaves (structured)."""
    objects, diffs = {}, {}
    for q in cplx.degrees():
        objects[q] = cplx.obj(q).mult_total
    for q in cplx.degrees():
        if q + 1 in objects:
            diffs[q] = gamma_struct_map(cplx.diff(q))
    return homalg.CochainComplex(VectorContext(cplx.ctx.field), objects, diffs)


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
    vec = gamma_of_complex(res.complex)
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


def sheaf_cohomology_dims(F: Sheaf) -> list:
    """R^q Gamma via the canonical coinduced resolution; list of dims from q=0."""
    return cohomology_on_opens(F, [range(len(F.poset))])[0]


# opens and acyclicity -------------------------------------------------------

class AcyclicityReport:
    def __init__(self, ok, failing_open, opens_checked, exhaustive):
        self.ok = ok
        self.failing_open = failing_open
        self.opens_checked = opens_checked
        self.exhaustive = exhaustive


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
        out = subspace_sheaf(tgt, F.field, bases,
                             lambda q, q2: self._selector(F, opens[q], opens[q2]))
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
            moved = block_diag(phi.source.field, [phi.comps[x] for x in opensA[q]]) * basesA[q].basis
            comps.append(basesB[q].coords_of(moved))
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
        rF, rG = F.restriction(i, j), G.restriction(i, j)
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
