"""Double complexes, exact couples and spectral sequence pages.

Everything here is plain linear algebra over an exact field (the engine runs
after global sections have been applied).  Pages are stored as explicit
subquotient witnesses: E_r^{p,q} is a pair of nested subspaces of the fixed
E_1^{p,q} coordinate space (the entry R^{p,q}), with differentials as
matrices in canonical representative bases, so every page identity is a
checkable matrix statement.

Conventions: squares of the double complex commute; the total differential
carries the sign (-1)^p on the vertical part.  The filtration is by column
degree p.  Tot^n lists its cells by increasing p, so F^p Tot^n is the
trailing block of Tot^n and the cell (p, n - p) is its head: filtration
inclusions and cell projections are offsets, not eliminations.  E_1^{p,q} is
the vertical cohomology of column p, A_1^{p,q} the total cohomology of the
filtration piece F^p; only the level-one couple has an A side.
"""

from __future__ import annotations

from functools import cached_property, partial

from .exactla import (
    ContainmentViolation,
    Matrix,
    NoSolution,
    Subspace,
    hstack,
    kernel_basis,
    place_blocks,
    quotient_basis,
    rank,
    rref,
    solve,
)


class SquareNotCommuting(Exception):
    pass


class ExactnessLost(Exception):
    """A derived couple failed its exactness check (engine bug signal)."""


class NotACoupleMorphism(Exception):
    pass


class DoubleComplex:
    """First-quadrant grid 0 <= p, q <= D with commuting squares."""

    def __init__(self, field, size, dims, horiz, vert):
        self.field = field
        self.size = size            # grid bound D; indices run 0..D
        self.dims = dims            # dims[p][q]
        self.horiz = horiz          # horiz[p][q]: R^{p,q} -> R^{p+1,q} (or None)
        self.vert = vert            # vert[p][q]: R^{p,q} -> R^{p,q+1} (or None)
        self.validate()

    def dim(self, p, q):
        if 0 <= p <= self.size and 0 <= q <= self.size:
            return self.dims[p][q]
        return 0

    def h(self, p, q) -> Matrix:
        m = None
        if 0 <= p < self.size and 0 <= q <= self.size:
            m = self.horiz[p][q]
        return m if m is not None else Matrix.zeros(self.field, self.dim(p + 1, q), self.dim(p, q))

    def v(self, p, q) -> Matrix:
        m = None
        if 0 <= p <= self.size and 0 <= q < self.size:
            m = self.vert[p][q]
        return m if m is not None else Matrix.zeros(self.field, self.dim(p, q + 1), self.dim(p, q))

    def validate(self):
        D = self.size
        for p in range(D + 1):
            for q in range(D + 1):
                if self.h(p, q).cols != self.dim(p, q) or self.h(p, q).rows != self.dim(p + 1, q):
                    raise ValueError("horizontal map shape at (%d,%d)" % (p, q))
                if self.v(p, q).cols != self.dim(p, q) or self.v(p, q).rows != self.dim(p, q + 1):
                    raise ValueError("vertical map shape at (%d,%d)" % (p, q))
                if not (self.h(p + 1, q) * self.h(p, q)).is_zero():
                    raise ValueError("d_h^2 != 0 at (%d,%d)" % (p, q))
                if not (self.v(p, q + 1) * self.v(p, q)).is_zero():
                    raise ValueError("d_v^2 != 0 at (%d,%d)" % (p, q))
                if not (self.v(p + 1, q) * self.h(p, q) == self.h(p, q + 1) * self.v(p, q)):
                    raise SquareNotCommuting("square at (%d,%d) does not commute" % (p, q))


class Subquotient:
    """Z/B inside a fixed coordinate space, with canonical representatives."""

    def __init__(self, field, ambient_dim, Z: Subspace, B: Subspace):
        try:
            self.reps, self.proj = quotient_basis(Z, B)
        except ContainmentViolation:
            raise ValueError("B not contained in Z") from None
        self.field = field
        self.ambient_dim = ambient_dim
        self.Z = Z
        self.B = B
        self.dim = self.reps.cols

    @classmethod
    def zero(cls, field, ambient_dim):
        z = Subspace.zero(field, ambient_dim)
        return cls(field, ambient_dim, z, z)

    @classmethod
    def cohomology(cls, field, ambient_dim, d_out=None, d_in=None):
        """ker d_out / im d_in inside k^ambient_dim; a missing map counts as zero."""
        Z = kernel_basis(d_out) if d_out is not None else Subspace.full(field, ambient_dim)
        B = Subspace.from_columns(d_in) if d_in is not None else Subspace.zero(field, ambient_dim)
        return cls(field, ambient_dim, Z, B)

    def project(self, vecs: Matrix) -> Matrix:
        """Coordinates of ambient vectors (must lie in Z) in the rep basis."""
        if vecs.cols and not self.Z.contains_matrix(vecs):
            raise NoSolution("vector not in the cocycle witness space")
        return self.proj * vecs

    def induced_map(self, other: "Subquotient", ambient_map: Matrix) -> Matrix:
        """Matrix of the induced map when ambient_map respects the witnesses."""
        if self.Z.dim and not other.Z.contains_matrix(ambient_map * self.Z.basis):
            raise NoSolution("induced map does not preserve cocycle witnesses")
        if self.B.dim and not other.B.contains_matrix(ambient_map * self.B.basis):
            raise NoSolution("induced map does not preserve boundary witnesses")
        return other.proj * (ambient_map * self.reps)


class CoupleTower:
    """The spectral sequence of the column filtration: the level-one exact
    couple (A1, E1 and the maps i, j, k), the pages E_r with their
    differentials, the limit page r_inf and the filtration on total
    cohomology.

    Tot^n lists its cells (p, n - p) by increasing p, so the filtration piece
    F^p Tot^n is the trailing block of Tot^n from `start(p, n)` on, and the
    cell (p, q) is the head of F^p Tot^{p+q}.  Every filtration map is an
    offset: an inclusion F^p -> F^p' (p >= p') puts zero rows on top, and a
    cell is read off the first rows of its filtration piece.

    The tower makes Tot and fdiff at once, and A1, E1, each page and the
    filtration when first read, so a tower read only for Tot makes no
    subquotient.  Such a tower checks B in Z on no filtration piece, and
    needs not: the double complex's validate checked d_h^2 = 0, d_v^2 = 0
    and every square, which give it.
    """

    def __init__(self, dc: DoubleComplex):
        self.dc = dc
        self.field = dc.field
        D = dc.size
        self.D = D
        self.nmax = 2 * D
        self.cells = {}
        self.offsets = {}
        self.tot_dim = {}
        for n in range(self.nmax + 2):
            cells = [(p, n - p) for p in range(max(0, n - D), min(n, D) + 1)]
            self.cells[n] = cells
            off = 0
            for (p, q) in cells:
                self.offsets[(n, p, q)] = off
                off += dc.dim(p, q)
            self.tot_dim[n] = off
        self.tot_diff = {n: self._total_diff(n) for n in range(self.nmax + 1)}
        self.fdiff = {}     # (p, n): the differential F^p Tot^n -> F^p Tot^{n+1}
        for p in range(D + 2):
            for n in range(self.nmax + 1):
                self.fdiff[(p, n)] = (
                    self.tot_diff[n].rows_slice(range(self.start(p, n + 1), self.tot_dim[n + 1]))
                    .cols_slice(range(self.start(p, n), self.tot_dim[n])))
        self.r_inf = D + 2

    @cached_property
    def A1(self):
        """(p, q) -> H^{p+q}(F^p Tot) as a subquotient of F^p Tot^{p+q}."""
        return {(p, n - p): Subquotient.cohomology(self.field, self.filt_dim(p, n),
                                                   self.fdiff[(p, n)], self.fdiff.get((p, n - 1)))
                for p in range(self.D + 2) for n in range(self.nmax + 1)}

    @cached_property
    def E1(self):
        """(p, q) -> the vertical cohomology of column p at q."""
        dc = self.dc
        return {(p, q): Subquotient.cohomology(self.field, dc.dim(p, q), dc.v(p, q),
                                               dc.v(p, q - 1) if q > 0 else None)
                for p in range(self.D + 1) for q in range(self.D + 1)}

    @cached_property
    def couples(self):
        """The pages derived so far, from E_1 on."""
        return [ExactCouple(self, 1, self.E1)]

    def _total_diff(self, n) -> Matrix:
        """Tot^n -> Tot^{n+1}: d_h plus (-1)^p d_v."""
        dc = self.dc
        blocks = []
        for (p, q) in self.cells[n]:
            coff = self.offsets[(n, p, q)]
            roff = self.offsets.get((n + 1, p + 1, q))
            if roff is not None:
                blocks.append((roff, coff, dc.h(p, q)))
            roff = self.offsets.get((n + 1, p, q + 1))
            if roff is not None:
                blocks.append((roff, coff, dc.v(p, q) if p % 2 == 0 else -dc.v(p, q)))
        return place_blocks(self.field, self.tot_dim.get(n + 1, 0), self.tot_dim[n], blocks)

    def start(self, p, n) -> int:
        """The first Tot^n coordinate of F^p Tot^n: the offset of its first cell."""
        for (pp, qq) in self.cells.get(n, ()):
            if pp >= p:
                return self.offsets[(n, pp, qq)]
        return self.tot_dim.get(n, 0)

    def filt_dim(self, p, n) -> int:
        return self.tot_dim.get(n, 0) - self.start(p, n)

    def include(self, m, n, p_from, p_to) -> Matrix:
        """F^{p_from} Tot^n coordinates of the columns of m as F^{p_to} ones, p_from >= p_to."""
        return place_blocks(self.field, self.filt_dim(p_to, n), m.cols,
                            [(self.start(p_from, n) - self.start(p_to, n), 0, m)])

    def restrict(self, m, n, p_from, p_to) -> Matrix:
        """F^{p_from} Tot^n columns of m that lie in F^{p_to} (p_from <= p_to), in its coordinates.

        Drops the top rows; NoSolution names the first column with a nonzero
        entry there.
        """
        top = self.start(p_to, n) - self.start(p_from, n)
        head = m.rows_slice(range(top))
        if not head.is_zero():
            # the first pivot of the dropped rows is their first nonzero column
            raise NoSolution("no preimage for column %d" % rref(head)[1][0])
        return m.rows_slice(range(top, m.rows))

    def from_cell(self, m, p, q) -> Matrix:
        """Cell (p, q) coordinates as F^p Tot^{p+q} ones: zero rows below."""
        return place_blocks(self.field, self.filt_dim(p, p + q), m.cols, [(0, 0, m)])

    def to_cell(self, m, p, q) -> Matrix:
        """The cell (p, q) part of F^p Tot^{p+q} columns: their first rows."""
        return m.rows_slice(range(self.dc.dim(p, q)))

    # -- the level-one couple -------------------------------------------------

    def a_sq(self, p, q) -> Subquotient:
        sq = self.A1.get((p, q))
        return sq if sq is not None else Subquotient.zero(self.field, self.filt_dim(p, p + q))

    def i_map(self, p, q) -> Matrix:
        """i: A1^{p,q} -> A1^{p-1,q+1}, induced by the inclusion F^p -> F^{p-1}."""
        src, tgt = self.a_sq(p, q), self.a_sq(p - 1, q + 1)
        if src.dim == 0 or tgt.dim == 0:
            return Matrix.zeros(self.field, tgt.dim, src.dim)
        incl = self.include(Matrix.identity(self.field, src.ambient_dim), p + q, p, p - 1)
        return src.induced_map(tgt, incl)

    def j_map(self, p, q) -> Matrix:
        """j: A1^{p,q} -> E1^{p,q}, the class of a cocycle's cell (p, q) part."""
        src, tgt = self.a_sq(p, q), self.entry(1, p, q)
        if src.dim == 0 or tgt.dim == 0:
            return Matrix.zeros(self.field, tgt.dim, src.dim)
        return tgt.project(self.to_cell(src.reps, p, q))

    def k_map(self, p, q) -> Matrix:
        """k: E1^{p,q} -> A1^{p+1,q}, the class of D x, which lies in F^{p+1}."""
        src, tgt = self.entry(1, p, q), self.a_sq(p + 1, q)
        if src.dim == 0 or tgt.dim == 0:
            return Matrix.zeros(self.field, tgt.dim, src.dim)
        n = p + q
        dx = self.fdiff[(p, n)] * self.from_cell(src.reps, p, q)
        return tgt.project(self.restrict(dx, n + 1, p, p + 1))

    # -- pages ----------------------------------------------------------------

    def page(self, r) -> "ExactCouple":
        while len(self.couples) < r:
            self.couples.append(self.couples[-1].derive())
        return self.couples[r - 1]

    def page_dims(self, r):
        couple = self.page(r)
        return {(p, q): couple.e_sq(p, q).dim
                for p in range(self.D + 1) for q in range(self.D + 1)
                if couple.e_sq(p, q).dim}

    def entry(self, r, p, q) -> Subquotient:
        return self.page(r).e_sq(p, q)

    def total_h_dim(self, n) -> int:
        return self.A1[(0, n)].dim if (0, n) in self.A1 else 0

    def page_table(self, r):
        """Sorted (p, q, dim) rows for reporting."""
        dims = self.page_dims(r)
        return sorted((p, q, d) for (p, q), d in dims.items())

    # -- filtration and convergence -------------------------------------------

    @cached_property
    def filtration(self):
        """filt[n][p]: subspace of H^n(Tot) coords hit by H^n(F^p)."""
        out = {}
        for n in range(self.nmax + 1):
            h = self.A1[(0, n)]
            levels = []
            for p in range(self.D + 2):
                ap = self.A1.get((p, n - p))
                if ap is None or ap.Z.dim == 0:
                    levels.append(Subspace.zero(self.field, h.dim))
                    continue
                levels.append(Subspace.from_columns(h.project(self.include(ap.Z.basis, n, p, 0))))
            out[n] = levels
        return out

    def graded_iso(self, p, q) -> Matrix:
        """The isomorphism E_inf^{p,q} -> F^p H^{p+q} / F^{p+1} H^{p+q}."""
        n = p + q
        einf = self.entry(self.r_inf, p, q)
        h = self.A1[(0, n)]
        filt = self.filtration[n]
        grad = Subquotient(self.field, h.dim, filt[p], filt[p + 1])
        if einf.dim == 0:
            return Matrix.zeros(self.field, grad.dim, 0)
        x = self.from_cell(einf.reps, p, q)
        dx = self.restrict(self.fdiff[(p, n)] * x, n + 1, p, p + 1)   # D x lands in F^{p+1}
        s = solve(self.fdiff[(p + 1, n)], dx)                          # s in F^{p+1} with D s = D x
        vec = self.include(x - self.include(s, n, p + 1, p), n, p, 0)
        return grad.project(h.project(vec))

    def convergence_ok(self) -> bool:
        """Sum of limit-page dimensions equals total cohomology, via the graded isos."""
        for n in range(self.nmax + 1):
            total = self.total_h_dim(n)
            s = 0
            for p in range(self.D + 1):
                q = n - p
                if 0 <= q <= self.D:
                    e = self.entry(self.r_inf, p, q)
                    s += e.dim
                    iso = self.graded_iso(p, q)
                    if rank(iso) != e.dim:
                        return False
            if s != total:
                return False
        return True


class ExactCouple:
    """Page r of a tower: the entries E_r^{p,q} and the differentials d_r.

    A page holds no A side.  d_r, the j.k of the r-th derived couple, is
    read off level-one data: for x a representative of E_r^{p,q}, D x lies
    in F^{p+1} and is a cocycle z of F^{p+r} plus a boundary of F^{p+1},
    and d_r [x] is the class of z's cell (p + r, q - r + 1) part.  Another
    such z differs by a cocycle of F^{p+r} that bounds in F^{p+1}, whose
    cell part lies in B_r, so the class does not depend on the one found.
    """

    def __init__(self, tower: CoupleTower, level: int, E):
        self.tower = tower
        self.level = level
        self.E = E
        self._d = {}        # (p, q) -> d_r, computed once

    def e_sq(self, p, q) -> Subquotient:
        sq = self.E.get((p, q))
        return sq if sq is not None else Subquotient.zero(self.tower.field, self.tower.dc.dim(p, q))

    def d_map(self, p, q) -> Matrix:
        """d_r: E_r^{p,q} -> E_r^{p+r,q-r+1}, one solve of D x against the
        cocycles of F^{p+r} and the boundaries of F^{p+1}."""
        d = self._d.get((p, q))
        if d is not None:
            return d
        t, r = self.tower, self.level
        p2, q2 = p + r, q - r + 1
        src, tgt = self.e_sq(p, q), self.e_sq(p2, q2)
        z = t.A1[(p2, q2)].Z if src.dim and tgt.dim else None
        if z is None or z.dim == 0:
            d = Matrix.zeros(t.field, tgt.dim, src.dim)
        else:
            n = p + q
            dx = t.restrict(t.fdiff[(p, n)] * t.from_cell(src.reps, p, q), n + 1, p, p + 1)
            b = t.A1[(p + 1, q)].B
            z_in = t.include(z.basis, n + 1, p2, p + 1)
            sol = solve(hstack([z_in, b.basis]) if b.dim else z_in, dx)
            d = tgt.project(t.to_cell(z.basis * sol.rows_slice(range(z.dim)), p2, q2))
        self._d[(p, q)] = d
        return d

    def derive(self) -> "ExactCouple":
        """The next page.  An entry that nothing can change is carried over
        as it is: a zero entry, or one whose d_r in and out are zero."""
        t, r = self.tower, self.level
        newE = {}
        for (p, q), sq in self.E.items():
            if sq.dim == 0:
                newE[(p, q)] = sq
                continue
            dout = self.d_map(p, q)
            din = self.d_map(p - r, q + r - 1)
            if dout.is_zero() and din.is_zero():
                newE[(p, q)] = sq
                continue
            kerd = kernel_basis(dout)
            Z = sq.B.sum(Subspace.from_columns(sq.reps * kerd.basis))
            B = sq.B.sum(Subspace.from_columns(sq.reps * din)) if din.cols else sq.B
            if not Z.contains(B):
                raise ExactnessLost("derived boundaries escape cocycles at (%d,%d)" % (p, q))
            newE[(p, q)] = Subquotient(t.field, sq.ambient_dim, Z, B)
        return ExactCouple(t, r + 1, newE)


def global_sign(pairs):
    """(sign, ok): one sign s in {1, -1} with lhs = s * rhs for every pair.

    Pairs with both sides zero say nothing; the sign is 0 when all are.
    """
    sign = None
    for lhs, rhs in pairs:
        if lhs.is_zero() and rhs.is_zero():
            continue
        if lhs == rhs:
            cand = 1
        elif lhs == -rhs:
            cand = -1
        else:
            return None, False
        if sign is None:
            sign = cand
        elif sign != cand:
            return None, False
    return (sign if sign is not None else 0), True


def tot_block_map(t_src: CoupleTower, t_dst: CoupleTower, entries, n, p) -> Matrix:
    """Entrywise maps R^{p,q} -> R'^{p,q} assembled on F^p Tot^n -> F^p Tot^n.

    entries maps (p, q) to a matrix; a missing entry is the zero map.
    """
    r0, c0 = t_dst.start(p, n), t_src.start(p, n)
    blocks = []
    for (pp, qq) in t_src.cells.get(n, []):
        m = entries.get((pp, qq))
        roff = t_dst.offsets.get((n, pp, qq))
        if pp >= p and m is not None and roff is not None:
            blocks.append((roff - r0, t_src.offsets[(n, pp, qq)] - c0, m))
    return place_blocks(t_src.field, t_dst.filt_dim(p, n), t_src.filt_dim(p, n), blocks)


class CoupleMorphism:
    """Morphism of exact couples of a fixed bidegree, with recorded signs.

    Holds level-one maps on A and E (matrices in representative bases); the
    intertwining relations with i, j, k are required to hold up to one
    global sign each, which is recorded, never assumed.
    """

    def __init__(self, src: CoupleTower, dst: CoupleTower, bidegree,
                 a_maps, e_maps):
        self.src = src
        self.dst = dst
        self.bidegree = tuple(bidegree)
        self.a_maps = a_maps     # (p,q) -> Matrix A1-src reps -> A1-dst reps
        self.e_maps = e_maps     # (p,q) -> Matrix E1-src reps -> E1-dst reps
        self.signs = {}
        self.verify_intertwining()

    def a_map(self, p, q) -> Matrix:
        m = self.a_maps.get((p, q))
        if m is None:
            dp, dq = self.bidegree
            m = Matrix.zeros(self.src.field, self.dst.a_sq(p + dp, q + dq).dim,
                             self.src.a_sq(p, q).dim)
        return m

    def e_map(self, p, q) -> Matrix:
        m = self.e_maps.get((p, q))
        if m is None:
            dp, dq = self.bidegree
            m = Matrix.zeros(self.src.field, self.dst.entry(1, p + dp, q + dq).dim,
                             self.src.entry(1, p, q).dim)
        return m

    def verify_intertwining(self):
        s, d = self.src, self.dst
        dp, dq = self.bidegree
        ipairs, jpairs, kpairs = [], [], []
        for (p, q), sq in s.A1.items():
            if sq.dim == 0:
                continue
            ipairs.append((self.a_map(p - 1, q + 1) * s.i_map(p, q),
                           d.i_map(p + dp, q + dq) * self.a_map(p, q)))
            jpairs.append((self.e_map(p, q) * s.j_map(p, q),
                           d.j_map(p + dp, q + dq) * self.a_map(p, q)))
        for (p, q), sq in s.E1.items():
            if sq.dim == 0:
                continue
            kpairs.append((self.a_map(p + 1, q) * s.k_map(p, q),
                           d.k_map(p + dp, q + dq) * self.e_map(p, q)))
        for name, pairs in (("i", ipairs), ("j", jpairs), ("k", kpairs)):
            sign, ok = global_sign(pairs)
            if not ok:
                raise NotACoupleMorphism(
                    "intertwining with %s does not hold up to one global sign" % name)
            self.signs[name] = sign

    def page_map(self, r, p, q) -> Matrix:
        """Induced map E_r^{p,q}(src) -> E_r^{p+dp,q+dq}(dst)."""
        return self._induced(1, r, p, q, self.e_map)

    def induced_next_page(self, r, p, q) -> Matrix:
        """Transport the page-r map to page r+1 through the subquotients."""
        return self._induced(r, r + 1, p, q, partial(self.page_map, r))

    def _induced(self, r0, r, p, q, m) -> Matrix:
        """The map E_r^{p,q}(src) -> E_r^{p+dp,q+dq}(dst) induced by m(p, q), a
        map of the page-r0 entries (r0 <= r).

        On the ambient spaces m reads as d0.reps * (m * s0.proj), for s0 and d0
        the page-r0 entries: s0.proj takes Z_r, which lies in Z_r0, to its
        classes.  Subquotient.induced_map checks that it keeps the Z and B
        witnesses.  m is called only past the zero rule.
        """
        dp, dq = self.bidegree
        s, d = self.src.entry(r, p, q), self.dst.entry(r, p + dp, q + dq)
        if s.dim == 0 or d.ambient_dim == 0:
            return Matrix.zeros(self.src.field, d.dim, s.dim)
        s0, d0 = self.src.entry(r0, p, q), self.dst.entry(r0, p + dp, q + dq)
        try:
            return s.induced_map(d, d0.reps * (m(p, q) * s0.proj))
        except NoSolution as exc:
            raise NotACoupleMorphism("page %d map does not induce one on page %d at (%d,%d): %s"
                                     % (r0, r, p, q, exc)) from None
