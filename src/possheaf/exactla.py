"""Exact dense linear algebra over the rationals or a prime field.

This is the substrate for every morphism in the engine.  All arithmetic is
exact; matrices are dense row-major lists of field elements.  Subspaces are
kept in a canonical column-reduced form so that every basis-dependent choice
made downstream is deterministic.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as _mpq


class NoSolution(Exception):
    """Raised by solve() when the right hand side is not in the image."""


class ContainmentViolation(Exception):
    """Raised by subspace operations when a stated containment fails."""


class FpElement:
    """Element of a prime field, normalized to 0 <= val < p."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def __add__(self, other):
        return FpElement(self.val + other.val, self.p)

    def __sub__(self, other):
        return FpElement(self.val - other.val, self.p)

    def __mul__(self, other):
        return FpElement(self.val * other.val, self.p)

    def __truediv__(self, other):
        return FpElement(self.val * pow(other.val, -1, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        return isinstance(other, FpElement) and self.val == other.val and self.p == other.p

    def __bool__(self):
        return self.val != 0

    def __hash__(self):
        return hash((self.val, self.p))

    def __repr__(self):
        return "%d" % self.val


class RationalField:
    """Arbitrary-precision rationals (gmpy2.mpq, Fraction as fallback)."""

    name = "q"

    def zero(self):
        return _mpq(0)

    def one(self):
        return _mpq(1)

    def from_int(self, n):
        return _mpq(n)

    def parse(self, s):
        return _mpq(str(s))

    def fmt(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers mod p for a prime p < 2**31; a drop-in speed alternative."""

    def __init__(self, p: int):
        if p < 2 or p >= 2**31 or any(p % d == 0 for d in range(2, min(p, 1 + int(p**0.5) + 1))):
            raise ValueError("modulus must be a prime < 2**31, got %r" % p)
        self.p = p
        self.name = "fp:%d" % p

    def zero(self):
        return FpElement(0, self.p)

    def one(self):
        return FpElement(1, self.p)

    def from_int(self, n):
        return FpElement(n, self.p)

    def parse(self, s):
        s = str(s)
        if "/" in s:
            num, den = s.split("/")
            return FpElement(int(num), self.p) / FpElement(int(den), self.p)
        return FpElement(int(s), self.p)

    def fmt(self, x) -> str:
        return str(x.val)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def field_from_name(name: str):
    """Map a CLI field spec ("q" or "fp:<prime>") to a field object."""
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        return PrimeField(int(name[3:]))
    raise ValueError("unknown field %r" % name)


class Matrix:
    """Dense matrix over an exact field; represents a map k^cols -> k^rows."""

    __slots__ = ("field", "rows", "cols", "data", "_rank")

    def __init__(self, field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data  # list of row lists; treated as immutable
        self._rank = None

    @classmethod
    def from_rows(cls, field, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def from_int_rows(cls, field, rows, cols=None):
        data = [[field.from_int(x) for x in r] for r in rows]
        ncols = len(rows[0]) if rows else (cols or 0)
        if cols is not None and rows and cols != ncols:
            raise ValueError("cols does not match row length")
        return cls(field, len(rows), ncols, data)

    @classmethod
    def identity(cls, field, n: int):
        one, zero = field.one(), field.zero()
        data = []
        for i in range(n):
            row = [zero] * n
            row[i] = one
            data.append(row)
        return cls(field, n, n, data)

    @classmethod
    def zeros(cls, field, rows: int, cols: int):
        zero = field.zero()
        return cls(field, rows, cols, [[zero] * cols for _ in range(rows)])

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(self.data[i][j] == other.data[i][j] for i in range(self.rows) for j in range(self.cols))
        )

    def __neg__(self):
        return Matrix(self.field, self.rows, self.cols, [[-x for x in row] for row in self.data])

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add: %dx%d vs %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        return Matrix(
            self.field, self.rows, self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return Matrix(self.field, self.rows, self.cols, [[c * x for x in row] for row in self.data])

    def __mul__(self, other):
        """Matrix product self @ other (composition: self after other)."""
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul: %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        zero = self.field.zero()
        out = []
        bdata = other.data
        for arow in self.data:
            acc = [zero] * other.cols
            for k, a in enumerate(arow):
                if a:
                    brow = bdata[k]
                    acc = [c + a * b for c, b in zip(acc, brow)]
            out.append(acc)
        return Matrix(self.field, self.rows, other.cols, out)

    def transpose(self):
        return Matrix(self.field, self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def col(self, j: int) -> "Matrix":
        return Matrix(self.field, self.rows, 1, [[row[j]] for row in self.data])

    def cols_slice(self, idx) -> "Matrix":
        return Matrix(self.field, self.rows, len(idx), [[row[j] for j in idx] for row in self.data])

    def rows_slice(self, idx) -> "Matrix":
        return Matrix(self.field, len(idx), self.cols, [list(self.data[i]) for i in idx])

    def to_str_rows(self):
        return [[self.field.fmt(x) for x in row] for row in self.data]

    def __repr__(self):
        return "Matrix(%dx%d %s)" % (self.rows, self.cols, self.to_str_rows())


def hstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    rows, field = mats[0].rows, mats[0].field
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack row mismatch")
    data = [sum((list(m.data[i]) for m in mats), []) for i in range(rows)]
    return Matrix(field, rows, sum(m.cols for m in mats), data)


def vstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    cols, field = mats[0].cols, mats[0].field
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack col mismatch")
    data = []
    for m in mats:
        data.extend(list(r) for r in m.data)
    return Matrix(field, sum(m.rows for m in mats), cols, data)


def place_blocks(field, rows: int, cols: int, blocks) -> Matrix:
    """The rows x cols matrix that is zero outside the given blocks.

    Each block is (row offset, column offset, Matrix) and is copied in at
    that offset; blocks must not overlap.
    """
    out = Matrix.zeros(field, rows, cols).data
    for r0, c0, m in blocks:
        for i, row in enumerate(m.data):
            out[r0 + i][c0:c0 + m.cols] = row
    return Matrix(field, rows, cols, out)


def block_diag(field, mats) -> Matrix:
    blocks, r0, c0 = [], 0, 0
    for m in mats:
        blocks.append((r0, c0, m))
        r0 += m.rows
        c0 += m.cols
    return place_blocks(field, r0, c0, blocks)


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns (reduced, pivots, transform) with transform * m = reduced and
    transform invertible.  The reduced form is canonical: row-equivalent
    matrices produce identical output.
    """
    field = m.field
    a = [list(r) for r in m.data]
    t = Matrix.identity(field, m.rows).data
    pivots = []
    prow = 0
    for pcol in range(m.cols):
        # find a pivot at or below prow
        sel = None
        for i in range(prow, m.rows):
            if a[i][pcol]:
                sel = i
                break
        if sel is None:
            continue
        if sel != prow:
            a[prow], a[sel] = a[sel], a[prow]
            t[prow], t[sel] = t[sel], t[prow]
        pv = a[prow][pcol]
        if pv != field.one():
            inv = field.one() / pv
            a[prow] = [inv * x for x in a[prow]]
            t[prow] = [inv * x for x in t[prow]]
        row_p, trow_p = a[prow], t[prow]
        for i in range(m.rows):
            if i != prow and a[i][pcol]:
                f = a[i][pcol]
                a[i] = [x - f * y for x, y in zip(a[i], row_p)]
                t[i] = [x - f * y for x, y in zip(t[i], trow_p)]
        pivots.append(pcol)
        prow += 1
        if prow == m.rows:
            break
    return Matrix(field, m.rows, m.cols, a), pivots, Matrix(field, m.rows, m.rows, t)


def rank(m: Matrix) -> int:
    if m._rank is None:
        m._rank = len(rref(m)[1])
    return m._rank


def solve(m: Matrix, rhs: Matrix) -> Matrix:
    """Solve m @ x = rhs columnwise, zeroing the non-pivot coordinates.

    Raises NoSolution naming the first right-hand-side column with no
    preimage.  Solvability is exactly the vanishing of the transformed
    right-hand side beyond the rank: with x supported on pivot columns,
    reduced @ x reproduces those entries and transform is invertible.
    """
    if m.rows != rhs.rows:
        raise ValueError("solve shape mismatch")
    field = m.field
    _, pivots, t = rref(m)
    nr = len(pivots)
    c = t * rhs
    zero = field.zero()
    for j in range(rhs.cols):
        for i in range(nr, m.rows):
            if c.data[i][j]:
                raise NoSolution("no preimage for column %d" % j)
    xdata = [[zero] * rhs.cols for _ in range(m.cols)]
    for i, pc in enumerate(pivots):
        xdata[pc] = list(c.data[i])
    return Matrix(field, m.cols, rhs.cols, xdata)


class Subspace:
    """Subspace of k^ambient_dim with a canonical column-reduced basis.

    The basis matrix is n x dim; its transpose is in reduced row echelon
    form, so equal subspaces have equal basis matrices.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, basis, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_columns(cls, cols: Matrix) -> "Subspace":
        red, pivots, _ = rref(cols.transpose())
        basis = red.rows_slice(range(len(pivots))).transpose()
        return cls(cols.field, cols.rows, basis, pivots)

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.zeros(field, ambient_dim, 0), [])

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim), list(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)

    def coords_of(self, vecs: Matrix) -> Matrix:
        """Express columns of vecs in this basis; NoSolution if not members."""
        if self.dim == 0:
            if not vecs.is_zero():
                raise NoSolution("nonzero vector in zero subspace")
            return Matrix.zeros(self.field, 0, vecs.cols)
        return solve(self.basis, vecs)

    def contains_matrix(self, vecs: Matrix) -> bool:
        try:
            self.coords_of(vecs)
            return True
        except NoSolution:
            return False

    def contains(self, other: "Subspace") -> bool:
        return self.contains_matrix(other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.from_columns(hstack([self.basis, other.basis]))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        ker = kernel_basis(hstack([self.basis, -other.basis]))
        u = ker.basis.rows_slice(range(self.dim))
        return Subspace.from_columns(self.basis * u)

    def complement(self) -> "Subspace":
        """Complementary subspace spanned by non-pivot standard vectors."""
        nonpiv = [i for i in range(self.ambient_dim) if i not in set(self.pivots)]
        return Subspace.from_columns(Matrix.identity(self.field, self.ambient_dim).cols_slice(nonpiv))


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the kernel of m."""
    field = m.field
    red, pivots, _ = rref(m)
    pset = set(pivots)
    free = [j for j in range(m.cols) if j not in pset]
    zero, one = field.zero(), field.one()
    cols = []
    for j in free:
        v = [zero] * m.cols
        v[j] = one
        for i, pc in enumerate(pivots):
            v[pc] = -red.data[i][j]
        cols.append(v)
    basis = Matrix(field, m.cols, len(cols), [[c[i] for c in cols] for i in range(m.cols)])
    return Subspace.from_columns(basis)


def image_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column span of m."""
    return Subspace.from_columns(m)


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{x : m x in s} as a subspace of the domain."""
    if s.ambient_dim != m.rows:
        raise ValueError("preimage ambient mismatch")
    _, qproj = quotient_basis(Subspace.full(m.field, m.rows), s)
    return kernel_basis(qproj * m)


def quotient_basis(s: Subspace, t: Subspace):
    """Representatives and projection for the quotient s / t, t a subspace of s.

    Returns (reps, proj): reps is n x k whose columns complete t inside s by
    the pivot rule; proj is k x n with proj*t = 0 and proj*reps = identity.
    """
    if not s.contains(t):
        raise ContainmentViolation("quotient_basis: T not contained in S")
    field = s.field
    n = s.ambient_dim
    # representatives: the s-columns that become pivots after t's (t.basis has
    # full column rank, so its columns claim the first t.dim pivots)
    _, pivots, _ = rref(hstack([t.basis, s.basis]))
    sel = [p - t.dim for p in pivots if p >= t.dim]
    reps = s.basis.cols_slice(sel)
    k = reps.cols
    # projection: kill t and a complement of s, identity on reps
    comp = s.complement()
    mfull = hstack([t.basis, reps, comp.basis])
    if mfull.cols != n:
        raise ContainmentViolation("quotient_basis: degenerate frame")
    inv = solve(mfull, Matrix.identity(field, n))
    proj = inv.rows_slice(range(t.dim, t.dim + k))
    return reps, proj
