"""Exact linear algebra over the rationals or a prime field.

This is the substrate for every morphism in the engine.  All arithmetic is
exact.  Matrices are stored dense, as row-major lists of field elements, but
the kernels skip zeros: a product multiplies only pairs of nonzero entries,
and an elimination step updates a row only where the pivot row is nonzero.
No other module reads that storage or computes with field elements: they
build matrices through the constructors, slices, block builders and
operators here.
Subspaces are kept in a canonical column-reduced form so that every
basis-dependent choice made downstream is deterministic.
"""

from __future__ import annotations

import re

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


_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_scalar(s):
    """(numerator, denominator) of a scalar string "n" or "n/d", d nonzero."""
    m = _SCALAR.fullmatch(str(s))
    if m is None:
        raise ValueError("scalar %r is not of the form n or n/d" % (s,))
    den = int(m.group(2) or 1)
    if den == 0:
        raise ValueError("scalar %r has a zero denominator" % (s,))
    return int(m.group(1)), den


class RationalField:
    """Arbitrary-precision rationals (gmpy2.mpq, Fraction as fallback)."""

    name = "q"
    _zero, _one = _mpq(0), _mpq(1)   # elements are immutable, so shared

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return _mpq(n)

    def parse(self, s):
        return _mpq(*_parse_scalar(s))

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
        self._zero, self._one = FpElement(0, p), FpElement(1, p)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return FpElement(n, self.p)

    def parse(self, s):
        num, den = _parse_scalar(s)
        return FpElement(num, self.p) / FpElement(den, self.p)

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


def _nonzeros(row, start=0):
    """The (column, entry) pairs of row's nonzero entries from column start on."""
    return [(j, x) for j, x in enumerate(row[start:], start) if x]


class Matrix:
    """Matrix over an exact field; represents a map k^cols -> k^rows.

    Storage is dense (`data` is a list of row lists); the kernels skip zeros.
    """

    __slots__ = ("field", "rows", "cols", "data", "_rank")

    def __init__(self, field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data  # list of row lists; treated as immutable
        self._rank = None

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        """The matrix with the given rows of field elements; cols sizes an empty one."""
        ncols = len(rows[0]) if rows else (cols or 0)
        if cols is not None and rows and cols != ncols:
            raise ValueError("cols does not match row length")
        return cls(field, len(rows), ncols, [list(r) for r in rows])

    @classmethod
    def from_int_rows(cls, field, rows, cols=None):
        return cls.from_rows(field, [[field.from_int(x) for x in r] for r in rows], cols)

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
        return not any(any(row) for row in self.data)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(_nonzeros(r1) == _nonzeros(r2) for r1, r2 in zip(self.data, other.data))
        )

    def __neg__(self):
        return Matrix(self.field, self.rows, self.cols, [[-x for x in row] for row in self.data])

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add: %dx%d vs %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        return Matrix(
            self.field, self.rows, self.cols,
            [[(a + b if a else b) if b else a for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.data, other.data)],
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
        bnz = [_nonzeros(brow) for brow in other.data]
        out = []
        for arow in self.data:
            acc = {}
            for a, brow in zip(arow, bnz):
                if brow and a:
                    for j, b in brow:
                        if j in acc:
                            acc[j] = acc[j] + a * b
                        else:
                            acc[j] = a * b
            row = [zero] * other.cols
            for j, c in acc.items():
                row[j] = c
            out.append(row)
        return Matrix(self.field, self.rows, other.cols, out)

    def transpose(self):
        if not self.rows:
            return Matrix(self.field, self.cols, 0, [[] for _ in range(self.cols)])
        return Matrix(self.field, self.cols, self.rows, [list(c) for c in zip(*self.data)])

    def cols_slice(self, idx) -> "Matrix":
        return Matrix(self.field, self.rows, len(idx), [[row[j] for j in idx] for row in self.data])

    def rows_slice(self, idx) -> "Matrix":
        return Matrix(self.field, len(idx), self.cols, [list(self.data[i]) for i in idx])

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The rows x cols matrix of this one's entries in row-major order."""
        if rows * cols != self.rows * self.cols:
            raise ValueError("cannot reshape %dx%d to %dx%d" % (self.rows, self.cols, rows, cols))
        flat = [x for row in self.data for x in row]
        return Matrix(self.field, rows, cols, [flat[i * cols:(i + 1) * cols] for i in range(rows)])

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


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: the block at block position (i, j) is a[i, j] * b."""
    data = [[x * y for x in arow for y in brow] for arow in a.data for brow in b.data]
    return Matrix(a.field, a.rows * b.rows, a.cols * b.cols, data)


def block_diag(field, mats) -> Matrix:
    blocks, r0, c0 = [], 0, 0
    for m in mats:
        blocks.append((r0, c0, m))
        r0 += m.rows
        c0 += m.cols
    return place_blocks(field, r0, c0, blocks)


def _eliminate(field, a, limit):
    """Gauss-Jordan elimination of the dense rows `a`, in place.

    Pivots are taken only in the first `limit` columns, and are returned.  A
    row update touches only the nonzero entries of the pivot row.
    """
    zero, one = field.zero(), field.one()
    nrows = len(a)
    pivots = []
    prow = 0
    for pcol in range(limit):
        if prow == nrows:
            break
        # find a pivot at or below prow
        sel = None
        for i in range(prow, nrows):
            if a[i][pcol]:
                sel = i
                break
        if sel is None:
            continue
        if sel != prow:
            a[prow], a[sel] = a[sel], a[prow]
        row_p = a[prow]
        nz = _nonzeros(row_p, pcol + 1)
        pv = row_p[pcol]
        if pv != one:
            inv = one / pv
            nz = [(j, inv * x) for j, x in nz]
            for j, x in nz:
                row_p[j] = x
            row_p[pcol] = one
        for i in range(nrows):
            row_i = a[i]
            f = row_i[pcol]
            if f and i != prow:
                row_i[pcol] = zero
                for j, y in nz:
                    row_i[j] = row_i[j] - f * y
        pivots.append(pcol)
        prow += 1
    return pivots


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns (reduced, pivots).  The reduced form is canonical: row-equivalent
    matrices produce identical output.
    """
    a = [list(r) for r in m.data]
    pivots = _eliminate(m.field, a, m.cols)
    return Matrix(m.field, m.rows, m.cols, a), pivots


def rank(m: Matrix) -> int:
    if m._rank is None:
        m._rank = len(rref(m)[1])
    return m._rank


def solve(m: Matrix, rhs: Matrix) -> Matrix:
    """Solve m @ x = rhs columnwise, zeroing the non-pivot coordinates.

    Raises NoSolution naming the first right-hand-side column with no
    preimage.  [m | rhs] is reduced with pivots only in m's columns; a
    column is solvable exactly when its entries vanish in the rows with no
    pivot, and then its solution is read off the pivot rows.  It is the
    only one supported on the (independent) pivot columns.
    """
    if m.rows != rhs.rows:
        raise ValueError("solve shape mismatch")
    field = m.field
    a = [mrow + rrow for mrow, rrow in zip(m.data, rhs.data)]
    pivots = _eliminate(field, a, m.cols)
    nr = len(pivots)
    for j in range(m.cols, m.cols + rhs.cols):
        if any(a[i][j] for i in range(nr, m.rows)):
            raise NoSolution("no preimage for column %d" % (j - m.cols))
    zero = field.zero()
    xdata = [[zero] * rhs.cols for _ in range(m.cols)]
    for i, pc in enumerate(pivots):
        xdata[pc] = a[i][m.cols:]
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
        red, pivots = rref(cols.transpose())
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
        """Express columns of vecs in this basis; NoSolution if not members.

        The basis is the identity on its pivot rows, so the coordinates of
        a member are its pivot entries; one product checks membership.
        """
        coords = vecs.rows_slice(self.pivots)
        back = self.basis * coords
        if back != vecs:
            if self.dim == 0:
                raise NoSolution("nonzero vector in zero subspace")
            bad = min(j for brow, vrow in zip(back.data, vecs.data)
                      for j, (x, y) in enumerate(zip(brow, vrow)) if x != y)
            raise NoSolution("no preimage for column %d" % bad)
        return coords

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

    def complement(self) -> "Subspace":
        """Complementary subspace spanned by non-pivot standard vectors."""
        pset = set(self.pivots)
        nonpiv = [i for i in range(self.ambient_dim) if i not in pset]
        # standard vectors in increasing order are already column-reduced
        basis = Matrix.identity(self.field, self.ambient_dim).cols_slice(nonpiv)
        return Subspace(self.field, self.ambient_dim, basis, nonpiv)


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the kernel of m."""
    field = m.field
    red, pivots = rref(m)
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


def quotient_basis(s: Subspace, t: Subspace):
    """Representatives and projection for the quotient s / t, t a subspace of s.

    Returns (reps, proj): reps is n x k whose columns complete t inside s by
    the pivot rule; proj is k x n with proj*t = 0 and proj*reps = identity,
    and proj is zero on the standard vectors off s's pivots.
    """
    try:
        ts = s.coords_of(t.basis)   # t in s-coordinates: d x t.dim, full column rank
    except NoSolution:
        raise ContainmentViolation("quotient_basis: T not contained in S") from None
    field, d = s.field, s.dim
    # representatives: the s-columns that become pivots after t's, i.e. the
    # e_j outside span(ts, e_0..e_{j-1}).  The other j are the positions of
    # the last nonzero entries of vectors of t: the pivots of ts^T read with
    # its columns reversed.
    _, last = rref(ts.transpose().cols_slice(range(d - 1, -1, -1)))
    rest = sorted(d - 1 - p for p in last)
    rset = set(rest)
    sel = [j for j in range(d) if j not in rset]
    reps = s.basis.cols_slice(sel)
    # projection, in s-coordinates: the identity on sel, and -y^T on rest,
    # where ts[rest]^T y = ts[sel]^T so that it kills ts (ts[rest] is invertible)
    y = solve(ts.rows_slice(rest).transpose(), ts.rows_slice(sel).transpose()).data
    one = field.one()
    proj = Matrix.zeros(field, len(sel), s.ambient_dim).data
    for r, j in enumerate(sel):
        row = proj[r]
        row[s.pivots[j]] = one
        for c, i in enumerate(rest):
            row[s.pivots[i]] = -y[c][r]
    return reps, Matrix(field, len(sel), s.ambient_dim, proj)
