"""Exact linear algebra over the rationals or a prime field.

This is the substrate for every morphism in the engine.  All arithmetic is
exact.  Matrices are stored as sparse rows: row i is a dict {column: entry}
of its nonzero entries, and no zero is ever stored, not even a sum that
cancels.  So a product multiplies only pairs of nonzero entries, an
elimination step updates a row only where the pivot row is nonzero, and no
kernel tests an entry for zero twice.  Over the rationals the field hands
out an integral value as a bare int and any other value as a `Fraction`.
An int and a rational of equal value compare, hash and print alike, so the
kernels mix them freely, and a product such as 1/2 * 2 may stay a
`Fraction` of denominator 1.  A prime field's elements are bare ints in
[0, p), and the kernels reduce them mod the field's p.  So most entries are
plain ints; the one true division, in `RationalField.inv`, divides by a
rational, never by an int, which would give a float.
No other module reads that storage or computes with field elements: they
build matrices through the constructors, slices, block builders and
operators here.
Subspaces are kept in a canonical column-reduced form so that every
basis-dependent choice made downstream is deterministic.

`rank`, `kernel_basis`, `image_basis` and `cokernel_basis` keep each result
in a memo on the field object, keyed by the operand's value, so equal
operands are reduced once.  Only a field made by `field_from_name` keeps a
memo, and each command computes over a new one, so the memo lasts one
command.  A field made directly, `QQ` among them, keeps none, so no field
that lives as long as the process holds results.
A result is shared safely because no code changes a matrix once made, and
each call hands out a `Subspace` with a pivot list of the caller's own.
"""

from __future__ import annotations

import re
from itertools import accumulate

# The rational type keeps this name because perfbench/run.py's header()
# reports `exactla._mpq` as the rational backend of every benchmark run.
from fractions import Fraction as _mpq


class NoSolution(Exception):
    """Raised by solve() when the right hand side is not in the image.

    `column` is the first right-hand-side column with no preimage, when
    one is named.
    """

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


def _no_preimage(column):
    return NoSolution("no preimage for column %d" % column, column)


class ContainmentViolation(Exception):
    """Raised by subspace operations when a stated containment fails."""


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


def _integral(x):
    """The rational x as an int when its denominator is 1, else x itself."""
    return int(x.numerator) if x.denominator == 1 else x


class RationalField:
    """Arbitrary-precision rationals: ints when integral, else Fraction."""

    name = "q"
    p = 0    # characteristic: the kernels reduce mod p only when p

    def __init__(self):
        self._empties = {}   # (rows, cols) -> the shared empty Matrix; see _empty
        self._memo = None    # (kernel name, Matrix) -> its result; see field_from_name

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        """n, an int or a rational, as a field element."""
        if type(n) is int:
            return n
        return _integral(_mpq(n))

    def inv(self, x):
        # 1 / x of two ints would be a float, so x is made a rational first
        return _integral(1 / _mpq(x))

    def parse(self, s):
        num, den = _parse_scalar(s)
        return num if den == 1 else _integral(_mpq(num, den))

    def fmt(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers mod p for a prime p < 2**31; elements are bare ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or p >= 2**31 or any(p % d == 0 for d in range(2, min(p, 1 + int(p**0.5) + 1))):
            raise ValueError("modulus must be a prime < 2**31, got %r" % p)
        self.p = p
        self.name = "fp:%d" % p
        self._empties = {}
        self._memo = None

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def inv(self, x):
        return pow(x, -1, self.p)

    def parse(self, s):
        num, den = _parse_scalar(s)
        return num * pow(den, -1, self.p) % self.p

    def fmt(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def field_from_name(name: str):
    """A new field object, with an empty memo, for a CLI field spec ("q" or "fp:<prime>")."""
    if name == "q":
        field = RationalField()
    elif isinstance(name, str) and name.startswith("fp:"):
        field = PrimeField(int(name[3:]))
    else:
        raise ValueError("unknown field %r" % (name,))
    field._memo = {}
    return field


def _reduced(row, p):
    """The dict row with its entries reduced mod p (when p) and its zeros dropped."""
    if p:
        return {j: v for j, x in row.items() if (v := x % p)}
    return {j: x for j, x in row.items() if x}


class Matrix:
    """Matrix over an exact field; represents a map k^cols -> k^rows.

    Storage is sparse: `_nz[i]` is a dict {column: entry} of row i's
    nonzero entries, with every column below `cols`.  Rows are never
    changed once a matrix holds them, so matrices share them.  `data` is a
    dense copy for observers outside the engine.

    A matrix with no rows or no columns holds no entry, so the operations
    here hand out one shared empty matrix per field and shape (`_empty`)
    instead of building one.  That is safe only because no code changes a
    row, or the row list, that a matrix holds.
    """

    __slots__ = ("field", "rows", "cols", "_nz", "_rank", "_hash")

    def __init__(self, field, rows: int, cols: int, nz):
        self.field = field
        self.rows = rows
        self.cols = cols
        self._nz = nz  # list of {column: nonzero entry} dicts, one per row
        self._rank = None
        self._hash = None

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        """The matrix with the given dense rows; cols sizes an empty one.

        Every entry goes through `field.from_int` (an int or, over q, a
        rational), so it is reduced into the field and zeros are dropped.
        """
        ncols = len(rows[0]) if rows else (cols or 0)
        if cols is not None and rows and cols != ncols:
            raise ValueError("cols does not match row length")
        conv = field.from_int
        nz = []
        for i, r in enumerate(rows):
            if len(r) != ncols:
                raise ValueError("row %d has %d entries, not %d" % (i, len(r), ncols))
            nz.append({j: v for j, x in enumerate(r) if (v := conv(x))})
        return cls(field, len(rows), ncols, nz)

    @classmethod
    def identity(cls, field, n: int):
        """The n x n identity; for n = 0 the shared empty matrix."""
        if not n:
            return _empty(field, 0, 0)
        one = field.one()
        return cls(field, n, n, [{i: one} for i in range(n)])

    @classmethod
    def zeros(cls, field, rows: int, cols: int):
        """The rows x cols zero matrix; the shared one when rows or cols is 0."""
        if not (rows and cols):
            return _empty(field, rows, cols)
        return cls(field, rows, cols, [{} for _ in range(rows)])

    @property
    def data(self):
        """The entries as dense row lists, built on each read; writes to it are lost."""
        zero = self.field.zero()
        out = []
        for r in self._nz:
            row = [zero] * self.cols
            for j, x in r.items():
                row[j] = x
            out.append(row)
        return out

    def is_zero(self) -> bool:
        return not any(self._nz)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._nz == other._nz
        )

    def __hash__(self):
        """The shape and the number of entries in each row, kept once made.

        Equal matrices hash equal, so matrices of one field can key a dict.
        The hash is cheap and coarse: a lookup settles a clash with ==.
        """
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, *map(len, self._nz)))
        return self._hash

    def __neg__(self):
        return self.scale(self.field.from_int(-1))

    def __add__(self, other):
        """The sum; an empty self is the sum itself."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add: %dx%d vs %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        if not (self.rows and self.cols):
            return self
        p = self.field.p
        out = []
        for r1, r2 in zip(self._nz, other._nz):
            if r1 and r2:
                acc = dict(r1)
                for j, b in r2.items():
                    acc[j] = acc[j] + b if j in acc else b
                out.append(_reduced(acc, p))
            else:
                out.append(r1 or r2)
        return Matrix(self.field, self.rows, self.cols, out)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """c times self; an empty self is its own multiple."""
        if not (self.rows and self.cols):
            return self
        p = self.field.p
        return Matrix(self.field, self.rows, self.cols,
                      [_reduced({j: c * x for j, x in r.items()}, p) for r in self._nz])

    def __mul__(self, other):
        """Matrix product self @ other (composition: self after other).

        A row of self that is e_k (one entry, a one, at column k) gives
        other's row k itself, shared as rows are never changed, and an
        empty row gives an empty row: both with no arithmetic.  So a
        structural 0/1 factor, such as a direct sum's injection or
        projection, only selects and places rows.  A product with no rows
        or no columns is the shared empty matrix of its shape.
        """
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul: %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        if not (self.rows and other.cols):
            return _empty(self.field, self.rows, other.cols)
        p, one = self.field.p, self.field.one()
        bnz = other._nz
        out = []
        for arow in self._nz:
            if len(arow) < 2:
                if not arow:
                    out.append(arow)
                    continue
                [(k, a)] = arow.items()
                if a == one:
                    out.append(bnz[k])
                    continue
            acc = {}
            for k, a in arow.items():
                for j, b in bnz[k].items():
                    if j in acc:
                        acc[j] += a * b
                    else:
                        acc[j] = a * b
            out.append(_reduced(acc, p))
        return Matrix(self.field, self.rows, other.cols, out)

    def transpose(self):
        """The transpose; an empty one is the shared one."""
        if not (self.rows and self.cols):
            return _empty(self.field, self.cols, self.rows)
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._nz):
            for j, x in r.items():
                out[j][i] = x
        return Matrix(self.field, self.cols, self.rows, out)

    def cols_slice(self, idx) -> "Matrix":
        """The columns at idx, in that order; an empty result is the shared one."""
        idx = list(idx)
        if not (self.rows and idx):
            return _empty(self.field, self.rows, len(idx))
        at = {}     # column -> its places in idx, so a row reads only its own entries
        for c, j in enumerate(idx):
            at.setdefault(j, []).append(c)
        return Matrix(self.field, self.rows, len(idx),
                      [{c: x for j, x in r.items() if j in at for c in at[j]} for r in self._nz])

    def rows_slice(self, idx) -> "Matrix":
        """The rows at idx, in that order; an empty result is the shared one."""
        rows = [self._nz[i] for i in idx]
        if not (rows and self.cols):
            return _empty(self.field, len(rows), self.cols)
        return Matrix(self.field, len(rows), self.cols, rows)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The rows x cols matrix of this one's entries in row-major order."""
        if rows * cols != self.rows * self.cols:
            raise ValueError("cannot reshape %dx%d to %dx%d" % (self.rows, self.cols, rows, cols))
        out = [{} for _ in range(rows)]
        for i, r in enumerate(self._nz):
            for j, x in r.items():
                k = i * self.cols + j
                out[k // cols][k % cols] = x
        return Matrix(self.field, rows, cols, out)

    def to_str_rows(self):
        fmt = self.field.fmt
        zero = fmt(self.field.zero())
        out = []
        for r in self._nz:
            row = [zero] * self.cols
            for j, x in r.items():
                row[j] = fmt(x)
            out.append(row)
        return out

    def __repr__(self):
        return "Matrix(%dx%d %s)" % (self.rows, self.cols, self.to_str_rows())


def _empty(field, rows: int, cols: int) -> Matrix:
    """The one rows x cols matrix over field with no entries, rows or cols 0.

    It is kept on the field object, so a lookup hashes only the shape.
    """
    m = field._empties.get((rows, cols))
    if m is None:
        m = field._empties[rows, cols] = Matrix(field, rows, cols, [{}] * rows)
    return m


def _matrix(field, rows: int, cols: int, nz) -> Matrix:
    """The matrix of the sparse rows nz; the shared empty one when rows or cols is 0."""
    return Matrix(field, rows, cols, nz) if rows and cols else _empty(field, rows, cols)


def hstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    rows, field = mats[0].rows, mats[0].field
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack row mismatch")
    offs = list(accumulate((m.cols for m in mats), initial=0))
    return place_blocks(field, rows, offs[-1], [(0, off, m) for off, m in zip(offs, mats)])


def vstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    cols, field = mats[0].cols, mats[0].field
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack col mismatch")
    return Matrix(field, sum(m.rows for m in mats), cols, [r for m in mats for r in m._nz])


def place_blocks(field, rows: int, cols: int, blocks) -> Matrix:
    """The rows x cols matrix that is zero outside the given blocks.

    Each block is (row offset, column offset, B) and is copied in at that
    offset; blocks must not overlap.  B is a Matrix, or an int n for the
    n x n identity, whose ones are written in directly, so no identity
    matrix is built.  A block that does not fit in rows x cols is a
    ValueError.  With no rows or no columns, a block that fits holds no
    entry, so the result is the shared empty matrix.
    """
    empty = not (rows and cols)
    out = None if empty else [{} for _ in range(rows)]
    one = field.one()
    for r0, c0, m in blocks:
        h, w = (m, m) if type(m) is int else (m.rows, m.cols)
        if r0 < 0 or c0 < 0 or r0 + h > rows or c0 + w > cols:
            raise ValueError("a %dx%d block at (%d, %d) does not fit in %dx%d" % (h, w, r0, c0, rows, cols))
        if empty:
            continue
        if type(m) is int:
            for i in range(m):
                out[r0 + i][c0 + i] = one
            continue
        for i, r in enumerate(m._nz, r0):
            row = out[i]
            for j, x in r.items():
                row[c0 + j] = x
    return _empty(field, rows, cols) if empty else Matrix(field, rows, cols, out)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: the block at block position (i, j) is a[i, j] * b."""
    p, bc = a.field.p, b.cols
    out = [_reduced({j * bc + k: x * y for j, x in arow.items() for k, y in brow.items()}, p)
           for arow in a._nz for brow in b._nz]
    return Matrix(a.field, a.rows * b.rows, a.cols * bc, out)


def block_diag(field, mats) -> Matrix:
    blocks, r0, c0 = [], 0, 0
    for m in mats:
        blocks.append((r0, c0, m))
        r0 += m.rows
        c0 += m.cols
    return place_blocks(field, r0, c0, blocks)


def _eliminate(field, a, limit):
    """Gauss-Jordan elimination of the sparse rows `a`, in place.

    Pivots are taken only in the first `limit` columns, and are returned.  A
    row update touches only the nonzero entries of the pivot row, and drops
    the entries it cancels.  `a` holds rows of its own: they are changed.
    """
    p, one = field.p, field.one()
    nrows = len(a)
    pivots = []
    prow = 0
    for pcol in range(limit):
        if prow == nrows:
            break
        # find a pivot at or below prow
        sel = None
        for i in range(prow, nrows):
            if pcol in a[i]:
                sel = i
                break
        if sel is None:
            continue
        if sel != prow:
            a[prow], a[sel] = a[sel], a[prow]
        # columns before pcol are zero in row prow, so its other entries lie after it
        row_p = a[prow]
        pv = row_p.pop(pcol)
        if pv != one:
            inv = field.inv(pv)
            row_p = _reduced({j: inv * x for j, x in row_p.items()}, p)
        nz = list(row_p.items())
        row_p[pcol] = one
        a[prow] = row_p
        for i in range(nrows):
            row_i = a[i]
            if i != prow and pcol in row_i:
                g = -row_i.pop(pcol)
                for j, y in nz:
                    if j in row_i:
                        v = row_i[j] + g * y
                        if p:
                            v %= p
                        if v:
                            row_i[j] = v
                        else:
                            del row_i[j]
                    else:
                        row_i[j] = g * y % p if p else g * y
        pivots.append(pcol)
        prow += 1
    return pivots


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns (reduced, pivots), pivots a list of the caller's own.  The
    reduced form is canonical: row-equivalent matrices produce identical
    output.  Two kinds of operand state it already, with no elimination:
    - a matrix with no rows or no columns is its own reduced form, and has
      no pivots;
    - when every row holds at most one nonzero, in distinct columns, the
      pivots are those columns in increasing order, and the reduced form is
      e_c for each pivot c, in that order, then the empty rows.  That is
      what the elimination reaches: each pivot row is scaled to e_c, and no
      other row has an entry to clear in its column.
    """
    field = m.field
    if not (m.rows and m.cols):
        return _empty(field, m.rows, m.cols), []
    pivots = []
    for r in m._nz:
        if len(r) > 1:
            break
        pivots.extend(r)
    else:
        if len(set(pivots)) == len(pivots):
            pivots.sort()
            one = field.one()
            red = [{c: one} for c in pivots] + [{}] * (m.rows - len(pivots))
            return Matrix(field, m.rows, m.cols, red), pivots
    a = [dict(r) for r in m._nz]
    pivots = _eliminate(field, a, m.cols)
    return Matrix(field, m.rows, m.cols, a), pivots


def _recall(kind, m: Matrix, make):
    """make(m), kept in m's field's memo under (kind, m), so by m's value;
    over a field that keeps no memo, make(m) itself."""
    memo = m.field._memo
    if memo is None:
        return make(m)
    key = (kind, m)
    out = memo.get(key)
    if out is None:
        out = memo[key] = make(m)
    return out


def rank(m: Matrix) -> int:
    """The rank of m, kept on m and in its field's memo."""
    if m._rank is None:
        m._rank = _recall("rank", m, lambda m: len(rref(m)[1]))
    return m._rank


def _first_unequal_column(a: Matrix, b: Matrix) -> int:
    """The first column in which the equal-shaped a and b differ (they do)."""
    return min(j for arow, brow in zip(a._nz, b._nz)
               for j in arow.keys() | brow.keys() if arow.get(j) != brow.get(j))


def _identity_rows(m: Matrix):
    """For each column c of m, a row of m equal to e_c; None if some c has none."""
    one = m.field.one()
    at = {c: i for i, r in enumerate(m._nz) if len(r) == 1 for c, x in r.items() if x == one}
    return [at[c] for c in range(m.cols)] if len(at) == m.cols else None


def solve(m: Matrix, rhs: Matrix) -> Matrix:
    """Solve m @ x = rhs columnwise, zeroing the non-pivot coordinates.

    Raises NoSolution naming the first right-hand-side column with no
    preimage.  [m | rhs] is reduced with pivots only in m's columns; a
    column is solvable exactly when its entries vanish in the rows with no
    pivot, and then its solution is read off the pivot rows.  It is the
    only one supported on the (independent) pivot columns.

    When each column c of m has a row equal to e_c, as a canonical basis
    or a transposed cokernel projection has, no elimination is needed:
    m has full column rank, so the only candidate is x with row c equal
    to rhs's row at that place, and one product checks it.  A column
    where m*x and rhs differ is one with no preimage, and the first such
    column is the one the elimination would name.  An rhs with no columns
    has nothing to solve: x is the shared empty m.cols x 0 matrix.
    """
    if m.rows != rhs.rows:
        raise ValueError("solve shape mismatch")
    if not rhs.cols:
        return _empty(m.field, m.cols, 0)
    at = _identity_rows(m)
    if at is not None:
        x = rhs.rows_slice(at)
        back = m * x
        if back != rhs:
            raise _no_preimage(_first_unequal_column(back, rhs))
        return x
    field, n = m.field, m.cols
    a = hstack([m, rhs])._nz
    pivots = _eliminate(field, a, n)
    nr = len(pivots)
    # rows without a pivot are zero in m's columns
    bad = [min(a[i]) for i in range(nr, m.rows) if a[i]]
    if bad:
        raise _no_preimage(min(bad) - n)
    xdata = [{} for _ in range(n)]
    for i, pc in enumerate(pivots):
        xdata[pc] = {j - n: x for j, x in a[i].items() if j >= n}
    return Matrix(field, n, rhs.cols, xdata)


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
        """The span of the columns of cols; of no columns, or in k^0, the
        zero subspace, whose basis is the shared empty matrix."""
        if not (cols.rows and cols.cols):
            return cls(cols.field, cols.rows, _empty(cols.field, cols.rows, 0), [])
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
            raise _no_preimage(_first_unequal_column(back, vecs))
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


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the kernel of m, kept in the field's memo."""
    basis, free = _recall("kernel", m, _kernel)
    return Subspace(m.field, m.cols, basis, list(free))


def _kernel(m: Matrix):
    """kernel_basis's (basis, pivots), from one elimination.

    m is reduced with its columns read in reverse.  The kernel vector of
    each free column f is then e_f minus the pivot rows' entries in
    column f, and those lie only at pivot columns after f in the original
    order.  So each vector's first nonzero is a one at its own free
    column, where every other vector is zero: the vectors, in the order
    of their free columns, already are the canonical (column-reduced)
    basis, with the free columns as its pivots.
    """
    field, n, p = m.field, m.cols, m.field.p
    red, pivots = rref(_matrix(field, m.rows, n, [{n - 1 - j: x for j, x in r.items()} for r in m._nz]))
    pset = {n - 1 - pc for pc in pivots}
    free = [j for j in range(n) if j not in pset]
    col_of = {j: a for a, j in enumerate(free)}
    one = field.one()
    basis = [{col_of[j]: one} if j in col_of else None for j in range(n)]
    for pc, row in zip(pivots, red._nz):
        basis[n - 1 - pc] = {col_of[n - 1 - c]: -x % p if p else -x for c, x in row.items() if c != pc}
    return _matrix(field, n, len(free), basis), free


def image_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column span of m, kept in the field's memo."""
    s = _recall("image", m, Subspace.from_columns)
    return Subspace(s.field, s.ambient_dim, s.basis, list(s.pivots))


def _quotient(m: Matrix, at, n: int):
    """quotient_basis's (sel, proj) for k^m.rows over the column span of m;
    proj is len(sel) x n, with coordinate j in column at[j]."""
    field, d, p = m.field, m.rows, m.field.p
    rev = [{} for _ in range(m.cols)]   # m^T with its columns reversed
    for i, r in enumerate(m._nz):
        for j, x in r.items():
            rev[j][d - 1 - i] = x
    red, pivots = rref(_matrix(field, m.cols, d, rev))
    rset = {d - 1 - pc for pc in pivots}
    sel = [j for j in range(d) if j not in rset]
    row_of = {j: a for a, j in enumerate(sel)}
    proj = [{at[j]: field.one()} for j in sel]
    for pc, row in zip(pivots, red._nz):
        for c, x in row.items():
            if c != pc:
                proj[row_of[d - 1 - c]][at[d - 1 - pc]] = -x % p if p else -x
    return sel, _matrix(field, len(sel), n, proj)


def quotient_basis(s: Subspace, t: Subspace):
    """Representatives and projection for the quotient s / t, t a subspace of s.

    Returns (reps, proj): reps is n x k whose columns complete t inside s by
    the pivot rule; proj is k x n with proj*t = 0 and proj*reps = identity,
    and proj is zero on the standard vectors off s's pivots.

    One elimination gives both: t is reduced in s-coordinates read in
    reverse, so each basis vector is e_r + sum_j c_j e_j, r its last nonzero
    position and each j a representative (a coordinate that is no such r).
    The only proj that is the identity on the representatives and kills t
    sends e_r to -sum_j c_j e_j.
    """
    try:
        ts = s.coords_of(t.basis)   # t in s-coordinates: d x t.dim, full column rank
    except NoSolution:
        raise ContainmentViolation("quotient_basis: T not contained in S") from None
    sel, proj = _quotient(ts, s.pivots, s.ambient_dim)
    return s.basis.cols_slice(sel), proj


def cokernel_basis(m: Matrix):
    """quotient_basis of the full space k^m.rows by the column span of m,
    kept in the field's memo."""
    return _recall("cokernel", m, _cokernel)


def _cokernel(m: Matrix):
    sel, proj = _quotient(m, range(m.rows), m.rows)
    one = m.field.one()
    return _matrix(m.field, len(sel), m.rows, [{j: one} for j in sel]).transpose(), proj
