"""The dense exact kernel as it was before zero-skipping, frozen as an oracle.

These are the former `exactla` bodies of `Matrix.__mul__`, `rref` (which
also returned its transform), `solve`, `Subspace.from_columns`,
`Subspace.coords_of`, `kernel_basis` and `quotient_basis`.  They touch every
entry, zero or not.  The only edits are that they call each other instead of
the engine, and that a subspace is a (basis, pivots) pair, so the
differential tests in `test_exactla_oracle.py` compare two independent
implementations.  Do not optimise this file.

They run on the containers they were written for, kept here: a dense
`Matrix` of row lists (with the `hstack` they call), `Fraction`s over QQ
and, for GF(p), the `FpElement` wrapper the engine used before its prime
field moved to bare ints.  Over QQ the oracle computes only in
`Fraction`s, never in the engine's bare ints, so its `one() / pv` stays an
exact division.  The tests convert engine matrices in and the results back
out.
"""

from fractions import Fraction

from possheaf.exactla import ContainmentViolation, NoSolution


class RationalField:
    """QQ with Fraction entries, as the kernels below compute in it."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)


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


class PrimeField:
    """GF(p) with FpElement entries, as the kernels below compute in it."""

    def __init__(self, p):
        self.p = p

    def zero(self):
        return FpElement(0, self.p)

    def one(self):
        return FpElement(1, self.p)


class Matrix:
    """Dense matrix: `data` is a list of row lists of field elements."""

    def __init__(self, field, rows, cols, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, field, rows, cols):
        zero = field.zero()
        return cls(field, rows, cols, [[zero] * cols for _ in range(rows)])

    def is_zero(self):
        return not any(any(row) for row in self.data)

    def transpose(self):
        if not self.rows:
            return Matrix(self.field, self.cols, 0, [[] for _ in range(self.cols)])
        return Matrix(self.field, self.cols, self.rows, [list(c) for c in zip(*self.data)])

    def cols_slice(self, idx):
        return Matrix(self.field, self.rows, len(idx), [[row[j] for j in idx] for row in self.data])

    def rows_slice(self, idx):
        return Matrix(self.field, len(idx), self.cols, [list(self.data[i]) for i in idx])


def hstack(mats):
    mats = list(mats)
    rows, field = mats[0].rows, mats[0].field
    data = [sum((list(m.data[i]) for m in mats), []) for i in range(rows)]
    return Matrix(field, rows, sum(m.cols for m in mats), data)


def matmul(self, other):
    """Matrix product self @ other (composition: self after other)."""
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


def identity(field, n):
    one, zero = field.one(), field.zero()
    data = []
    for i in range(n):
        row = [zero] * n
        row[i] = one
        data.append(row)
    return Matrix(field, n, n, data)


def rref(m):
    """Reduced row echelon form: (reduced, pivots, transform), transform * m = reduced."""
    field = m.field
    a = [list(r) for r in m.data]
    t = identity(field, m.rows).data
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


def solve(m, rhs):
    """Solve m @ x = rhs columnwise, zeroing the non-pivot coordinates."""
    if m.rows != rhs.rows:
        raise ValueError("solve shape mismatch")
    field = m.field
    _, pivots, t = rref(m)
    nr = len(pivots)
    c = matmul(t, rhs)
    zero = field.zero()
    for j in range(rhs.cols):
        for i in range(nr, m.rows):
            if c.data[i][j]:
                raise NoSolution("no preimage for column %d" % j)
    xdata = [[zero] * rhs.cols for _ in range(m.cols)]
    for i, pc in enumerate(pivots):
        xdata[pc] = list(c.data[i])
    return Matrix(field, m.cols, rhs.cols, xdata)


def from_columns(cols):
    """Canonical (basis, pivots) of the column span of cols."""
    red, pivots, _ = rref(cols.transpose())
    basis = red.rows_slice(range(len(pivots))).transpose()
    return basis, pivots


def coords_of(basis, vecs):
    """Express columns of vecs in the basis; NoSolution if not members."""
    if basis.cols == 0:
        if not vecs.is_zero():
            raise NoSolution("nonzero vector in zero subspace")
        return Matrix.zeros(basis.field, 0, vecs.cols)
    return solve(basis, vecs)


def kernel_basis(m):
    """Canonical (basis, pivots) of the kernel of m."""
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
    return from_columns(basis)


def quotient_basis(s, t):
    """(reps, proj) for s / t, where s and t are (basis, pivots) pairs."""
    s_basis, s_pivots = s
    t_basis, _ = t
    try:
        coords_of(s_basis, t_basis)
    except NoSolution:
        raise ContainmentViolation("quotient_basis: T not contained in S")
    field = s_basis.field
    n = s_basis.rows
    _, pivots, _ = rref(hstack([t_basis, s_basis]))
    sel = [p - t_basis.cols for p in pivots if p >= t_basis.cols]
    reps = s_basis.cols_slice(sel)
    k = reps.cols
    pset = set(s_pivots)
    nonpiv = [i for i in range(n) if i not in pset]
    comp, _ = from_columns(identity(field, n).cols_slice(nonpiv))
    mfull = hstack([t_basis, reps, comp])
    if mfull.cols != n:
        raise ContainmentViolation("quotient_basis: degenerate frame")
    inv = solve(mfull, identity(field, n))
    proj = inv.rows_slice(range(t_basis.cols, t_basis.cols + k))
    return reps, proj
