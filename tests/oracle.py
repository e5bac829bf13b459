"""Independent brute-force oracles used to freeze expected values.

Deliberately avoids the engine's resolution machinery: cohomology of the
order complex is computed from raw simplicial boundary matrices.
"""

from possheaf.exactla import Matrix, rank


def order_complex_cohomology_dims(poset, field, top=None):
    """Cohomology dims of the order complex (chains as simplices) over field."""
    n = len(poset)
    simplices = {0: [(i,) for i in range(n)]}
    k = 0
    while simplices[k]:
        nxt = []
        for s in simplices[k]:
            last = s[-1]
            for j in range(n):
                if j != last and j in poset.up[last]:
                    nxt.append(s + (j,))
        k += 1
        simplices[k] = nxt
    maxdim = k - 1
    index = {d: {s: i for i, s in enumerate(simplices[d])} for d in simplices}
    bdry = {}
    for d in range(1, maxdim + 1):
        rows, cols = len(simplices[d - 1]), len(simplices[d])
        m = Matrix.zeros(field, rows, cols).data
        for ci, s in enumerate(simplices[d]):
            sign = field.one()
            for drop in range(d + 1):
                face = s[:drop] + s[drop + 1:]
                m[index[d - 1][face]][ci] = m[index[d - 1][face]][ci] + sign
                sign = -sign
        bdry[d] = Matrix.from_rows(field, m, cols)
    out = []
    upper = maxdim if top is None else max(maxdim, top)
    for d in range(upper + 1):
        nd = len(simplices.get(d, []))
        rk_in = rank(bdry[d]) if d in bdry else 0
        rk_out = rank(bdry[d + 1]) if d + 1 in bdry else 0
        # field coefficients: cohomology dims equal homology dims
        out.append(nd - rk_in - rk_out)
    return out
