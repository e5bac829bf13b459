"""The column-filtration tower as it was before filtration offsets, frozen as an oracle.

These are the former `specseq` bodies of `CoupleTower` (position lists per
filtration level, 0/1 inclusion and projection matrices inverted with
`solve`), `ExactCouple` (every `d_r` recomputed on each request, every
entry rebuilt by `derive`) and the `SpectralSequence` entries, differentials,
filtration and graded isomorphisms.  The only edits are the imports and that
`ExactCouple.check_exact` is left out.  The differential tests in
`test_specseq_oracle.py` compare them with the engine.  Do not optimise this
file.
"""

from possheaf.exactla import (
    Matrix,
    Subspace,
    hstack,
    kernel_basis,
    place_blocks,
    solve,
)
from possheaf.specseq import DoubleComplex, ExactnessLost, Subquotient


class _Filtered:
    """Coordinate data of one filtration level F^p of the total complex."""

    __slots__ = ("positions", "dim", "diff")

    def __init__(self, positions, dim, diff):
        self.positions = positions  # per n: global Tot^n coordinate indices
        self.dim = dim              # per n: dimension
        self.diff = diff            # per n: matrix F^p Tot^n -> F^p Tot^{n+1}


class CoupleTower:
    """Level-one exact couple of the column filtration, plus derived stages."""

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
        self.filt = []
        for p in range(D + 2):
            positions, dimn, diffs = {}, {}, {}
            for n in range(self.nmax + 2):
                pos = []
                for (pp, qq) in self.cells[n]:
                    if pp >= p:
                        base = self.offsets[(n, pp, qq)]
                        pos.extend(range(base, base + dc.dim(pp, qq)))
                positions[n] = pos
                dimn[n] = len(pos)
            for n in range(self.nmax + 1):
                diffs[n] = self.tot_diff[n].rows_slice(positions[n + 1]).cols_slice(positions[n])
            self.filt.append(_Filtered(positions, dimn, diffs))
        self.A1 = {}
        self.E1 = {}
        for p in range(D + 2):
            f = self.filt[p]
            for n in range(self.nmax + 1):
                self.A1[(p, n - p)] = Subquotient.cohomology(
                    self.field, f.dim.get(n, 0), f.diff.get(n), f.diff.get(n - 1))
        for p in range(D + 1):
            for q in range(D + 1):
                self.E1[(p, q)] = Subquotient.cohomology(
                    self.field, dc.dim(p, q), dc.v(p, q), dc.v(p, q - 1) if q > 0 else None)
        self.couples = [ExactCouple(self, 1, dict(self.A1), dict(self.E1))]

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

    def filt_dim(self, p, n):
        p = min(max(p, 0), self.D + 1)
        return self.filt[p].dim.get(n, 0)

    def clamp(self, p):
        return min(max(p, 0), self.D + 1)

    def inclusion_matrix(self, p_from, p_to, n) -> Matrix:
        """Coordinate inclusion F^{p_from} -> F^{p_to} at degree n, p_from >= p_to."""
        src = self.filt[self.clamp(p_from)].positions.get(n, [])
        tgt = self.filt[self.clamp(p_to)].positions.get(n, [])
        tpos = {g: i for i, g in enumerate(tgt)}
        out = Matrix.zeros(self.field, len(tgt), len(src)).data
        for c, g in enumerate(src):
            out[tpos[g]][c] = self.field.one()
        return Matrix.from_rows(self.field, out, len(src))

    def column_inclusion(self, p, q) -> Matrix:
        """Coordinates of the cell (p,q) inside F^p at degree n = p + q."""
        n = p + q
        pos = self.filt[self.clamp(p)].positions.get(n, [])
        base = self.offsets.get((n, p, q), 0)
        dim = self.dc.dim(p, q)
        ppos = {g: i for i, g in enumerate(pos)}
        out = Matrix.zeros(self.field, len(pos), dim).data
        for c in range(dim):
            out[ppos[base + c]][c] = self.field.one()
        return Matrix.from_rows(self.field, out, dim)

    def column_projection(self, p, q) -> Matrix:
        return self.column_inclusion(p, q).transpose()

    def page(self, r) -> "ExactCouple":
        while len(self.couples) < r:
            self.couples.append(self.couples[-1].derive())
        return self.couples[r - 1]

    def r_infinity(self):
        return self.D + 2


class ExactCouple:
    """One stage: bigraded A, E with maps i, j, k exact in a triangle.

    Maps at level r: i: A^{p,q} -> A^{p-1,q+1}; j: A^{p,q} -> E^{p+r-1,q-r+1};
    k: E^{p,q} -> A^{p+1,q}.  The E-differential is d = j.k.
    """

    def __init__(self, tower: CoupleTower, level: int, A, E):
        self.tower = tower
        self.level = level
        self.A = A
        self.E = E

    def a_sq(self, p, q) -> Subquotient:
        sq = self.A.get((p, q))
        if sq is None:
            sq = Subquotient.zero(self.tower.field, self.tower.filt_dim(p, p + q))
        return sq

    def e_sq(self, p, q) -> Subquotient:
        sq = self.E.get((p, q))
        if sq is None:
            sq = Subquotient.zero(self.tower.field, self.tower.dc.dim(p, q)
                                  if 0 <= p <= self.tower.D and 0 <= q <= self.tower.D else 0)
        return sq

    def i_map(self, p, q) -> Matrix:
        t = self.tower
        src, tgt = self.a_sq(p, q), self.a_sq(p - 1, q + 1)
        if src.dim == 0 or tgt.dim == 0:
            return Matrix.zeros(t.field, tgt.dim, src.dim)
        incl = t.inclusion_matrix(p, p - 1, p + q)
        return src.induced_map(tgt, incl)

    def j_map(self, p, q) -> Matrix:
        t, r = self.tower, self.level
        src = self.a_sq(p, q)
        p2, q2 = p + r - 1, q - r + 1
        tgt = self.e_sq(p2, q2)
        if src.dim == 0 or tgt.dim == 0:
            return Matrix.zeros(t.field, tgt.dim, src.dim)
        n = p + q
        z1 = t.A1.get((p2, q2))
        if z1 is None or z1.Z.dim == 0:
            return Matrix.zeros(t.field, tgt.dim, src.dim)
        incl = t.inclusion_matrix(p2, p, n)
        base1 = t.A1[(p, q)]
        frame = (hstack([incl * z1.Z.basis, base1.B.basis]) if base1.B.dim
                 else incl * z1.Z.basis)
        sol = solve(frame, src.reps)
        a = z1.Z.basis * sol.rows_slice(range(z1.Z.dim))
        return tgt.project(t.column_projection(p2, q2) * a)

    def k_map(self, p, q) -> Matrix:
        t = self.tower
        src, tgt = self.e_sq(p, q), self.a_sq(p + 1, q)
        if src.dim == 0 or tgt.dim == 0:
            return Matrix.zeros(t.field, tgt.dim, src.dim)
        n = p + q
        colinc = t.column_inclusion(p, q)
        dF = t.filt[t.clamp(p)].diff[n]
        incl_back = t.inclusion_matrix(p + 1, p, n + 1)
        dx = dF * (colinc * src.reps)               # lies in the F^{p+1} block
        return tgt.project(solve(incl_back, dx))

    def d_map(self, p, q) -> Matrix:
        """d_r = j . k, of bidegree (r, 1-r)."""
        return self.j_map(p + 1, q) * self.k_map(p, q)

    def derive(self) -> "ExactCouple":
        t, r = self.tower, self.level
        newA, newE = {}, {}
        for (p, q), sq in self.A.items():
            if sq.ambient_dim == 0:
                newA[(p, q)] = sq
                continue
            src = self.a_sq(p + 1, q - 1)
            if src.dim:
                incl = t.inclusion_matrix(p + 1, p, p + q)
                Z = sq.B.sum(Subspace.from_columns(incl * src.reps))
            else:
                Z = sq.B
            newA[(p, q)] = Subquotient(t.field, sq.ambient_dim, Z, sq.B)
        for (p, q), sq in self.E.items():
            if sq.ambient_dim == 0:
                newE[(p, q)] = sq
                continue
            dout = self.d_map(p, q)
            din = self.d_map(p - r, q + r - 1)
            if sq.dim:
                kerd = kernel_basis(dout)
                Z = sq.B.sum(Subspace.from_columns(sq.reps * kerd.basis))
                B = sq.B.sum(Subspace.from_columns(sq.reps * din)) if din.cols else sq.B
            else:
                Z, B = sq.Z, sq.B
            if not Z.contains(B):
                raise ExactnessLost("derived boundaries escape cocycles at (%d,%d)" % (p, q))
            newE[(p, q)] = Subquotient(t.field, sq.ambient_dim, Z, B)
        return ExactCouple(t, r + 1, newA, newE)


class SpectralSequence:
    """Pages, differentials, the limit and the filtration on total cohomology."""

    def __init__(self, dc: DoubleComplex):
        self.dc = dc
        self.tower = CoupleTower(dc)
        self.field = dc.field
        self.r_inf = self.tower.r_infinity()
        self.tower.page(self.r_inf)
        self._filtration = None
        self._graded_isos = None

    # -- page access ---------------------------------------------------------

    def page_dims(self, r):
        D = self.tower.D
        couple = self.tower.page(r)
        return {(p, q): couple.e_sq(p, q).dim
                for p in range(D + 1) for q in range(D + 1)
                if couple.e_sq(p, q).dim}

    def entry(self, r, p, q) -> Subquotient:
        return self.tower.page(r).e_sq(p, q)

    def differential(self, r, p, q) -> Matrix:
        return self.tower.page(r).d_map(p, q)

    def total_h_dim(self, n) -> int:
        return self.tower.A1[(0, n)].dim if (0, n) in self.tower.A1 else 0

    # -- filtration and convergence -------------------------------------------

    def filtration(self):
        """filt[n][p]: subspace of H^n(Tot) coords hit by H^n(F^p)."""
        if self._filtration is not None:
            return self._filtration
        t = self.tower
        out = {}
        for n in range(t.nmax + 1):
            h = t.A1[(0, n)]
            levels = []
            for p in range(t.D + 2):
                ap = t.A1.get((p, n - p))
                if ap is None or ap.Z.dim == 0:
                    levels.append(Subspace.zero(self.field, h.dim))
                    continue
                incl = t.inclusion_matrix(p, 0, n)
                levels.append(Subspace.from_columns(h.project(incl * ap.Z.basis)))
            out[n] = levels
        self._filtration = out
        return out

    def graded_iso(self, p, q) -> Matrix:
        """The stored isomorphism E_inf^{p,q} -> F^p H^{p+q} / F^{p+1} H^{p+q}."""
        if self._graded_isos is None:
            self._graded_isos = {}
        key = (p, q)
        if key in self._graded_isos:
            return self._graded_isos[key]
        t = self.tower
        n = p + q
        einf = self.entry(self.r_inf, p, q)
        h = t.A1[(0, n)]
        filt = self.filtration()[n]
        grad = Subquotient(self.field, h.dim, filt[p], filt[p + 1])
        if einf.dim == 0:
            mat = Matrix.zeros(self.field, grad.dim, 0)
            self._graded_isos[key] = mat
            return mat
        colinc = t.column_inclusion(p, q)
        fp1 = t.filt[t.clamp(p + 1)]
        dnext = fp1.diff[n] if n in fp1.diff else Matrix.zeros(self.field, 0, fp1.dim.get(n, 0))
        incl_p1_p = t.inclusion_matrix(p + 1, p, n)
        incl_p_0 = t.inclusion_matrix(p, 0, n)
        incl_p1_p_next = t.inclusion_matrix(p + 1, p, n + 1)
        dF = t.filt[t.clamp(p)].diff[n]
        x = colinc * einf.reps
        dx_in_p1 = solve(incl_p1_p_next, dF * x)   # D x lands in F^{p+1}
        s = solve(dnext, dx_in_p1)                 # s in F^{p+1} with D s = D x
        vec = incl_p_0 * (x - incl_p1_p * s)
        mat = grad.project(h.project(vec))
        self._graded_isos[key] = mat
        return mat
