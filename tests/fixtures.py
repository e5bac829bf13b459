"""Posets, maps, seeded generators and views that only tests build.

The command line reads its posets and maps from instance files, and
`forge` generates only what `forge` and `selftest` emit; the constructors
below serve the test suite.  The generators follow `possheaf.forge`: the
same `GenConfig` always reproduces the same objects.
"""

from possheaf.forge import GenConfig, gen_poset, gen_ses_sheaves, gen_sheaf
from possheaf.homalg import SESOfComplexes
from possheaf.poset import MonotoneMap, Poset
from possheaf.sheafcat import SheafContext
from possheaf.specseq import DoubleComplex

# -- posets and monotone maps -----------------------------------------------


def fence_x4() -> Poset:
    """The pseudocircle: minimal finite model of the circle."""
    return Poset(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def chain(n: int) -> Poset:
    """Chain 0 < 1 < ... < n-1."""
    return Poset([str(i) for i in range(n)], [(str(i), str(i + 1)) for i in range(n - 1)])


def product(p: Poset, q: Poset, sep: str = ".") -> Poset:
    """Product poset with componentwise order; identifiers joined by sep."""
    elements = ["%s%s%s" % (a, sep, b) for a in p.elements for b in q.elements]
    covers = []
    for a in p.elements:
        for b in q.elements:
            for (i, j) in p.covers:
                if p.elements[i] == a:
                    covers.append(("%s%s%s" % (a, sep, b), "%s%s%s" % (p.elements[j], sep, b)))
            for (i, j) in q.covers:
                if q.elements[i] == b:
                    covers.append(("%s%s%s" % (a, sep, b), "%s%s%s" % (a, sep, q.elements[j])))
    return Poset(elements, covers)


def leq(poset: Poset, x, y) -> bool:
    """x <= y in poset, for identifiers x and y."""
    return poset.idx(y) in poset.up[poset.idx(x)]


def up_set(poset: Poset, x):
    """Minimal open U_x = {y : y >= x}, as a set of identifiers."""
    return {poset.elements[j] for j in poset.up[poset.idx(x)]}


def preimage(f: MonotoneMap, names):
    """f^{-1}(names), as a set of source identifiers."""
    idxs = {f.target.idx(x) for x in names}
    return {f.source.elements[i] for i in range(len(f.source)) if f.values[i] in idxs}


def apply(f: MonotoneMap, x):
    """f(x), as a target identifier."""
    return f.target.elements[f.values[f.source.idx(x)]]


def identity_map(p: Poset) -> MonotoneMap:
    """The identity map of p."""
    return MonotoneMap(p, p, {e: e for e in p.elements})


def to_point(p: Poset, point: Poset | None = None) -> MonotoneMap:
    """The map collapsing p onto a one-element poset."""
    pt = point if point is not None else Poset(["pt"], [])
    return MonotoneMap(p, pt, {e: pt.elements[0] for e in p.elements})


def product_projection(p: Poset, q: Poset, axis: int, sep: str = ".") -> MonotoneMap:
    """The projection of product(p, q, sep) onto p (axis 0) or q (axis 1)."""
    prod = product(p, q, sep)
    tgt = p if axis == 0 else q
    values = {}
    for a in p.elements:
        for b in q.elements:
            values["%s%s%s" % (a, sep, b)] = a if axis == 0 else b
    return MonotoneMap(prod, tgt, values)


def torus_power(k: int):
    """(T^k, the projection T^k -> T^(k-1)) for k >= 2: T^k is the k-th power
    of the pseudocircle as nested products, fibered over T^(k-1) by dropping
    the last factor."""
    base = fence_x4()
    for _ in range(k - 2):
        base = product(base, fence_x4())
    proj = product_projection(base, fence_x4(), 0)
    return proj.source, proj


# -- seeded generators --------------------------------------------------------


def gen_monotone_map(cfg: GenConfig) -> MonotoneMap:
    """Random monotone map between two random posets."""
    src = gen_poset(cfg.child("src"))
    tgt = gen_poset(cfg.child("tgt"))
    rng = cfg.rng()
    order = src.linear_extension()
    for attempt in range(24):
        values = {}
        ok = True
        for i in order:
            below = [j for (j, k) in src.covers if k == i]
            allowed = set(range(len(tgt)))
            for j in below:
                allowed &= tgt.up[tgt.idx(values[src.elements[j]])]
            if not allowed:
                ok = False
                break
            pick = rng.choice(sorted(allowed))
            values[src.elements[i]] = tgt.elements[pick]
        if ok:
            return MonotoneMap(src, tgt, values)
    # constant maps are always monotone
    return MonotoneMap(src, tgt, {e: tgt.elements[0] for e in src.elements})


def gen_leray_instance(cfg: GenConfig):
    """(f, sheaf on the source) for Leray-pipeline property tests."""
    f = gen_monotone_map(cfg.child("map"))
    sheaf = gen_sheaf(cfg.child("sheaf"), f.source)
    return f, sheaf


def gen_injective_middle_ses(cfg: GenConfig, poset: Poset):
    """0 -> A -> I -> C -> 0 with I the canonical embedding of A.

    The connecting maps of such sequences are as nonzero as A's cohomology
    allows, which makes them the interesting inputs for coboundary tests.
    """
    ctx = SheafContext(poset, cfg.field)
    A = gen_sheaf(cfg.child("A"), poset)
    I, mono = ctx.injective_embed(A)
    C, epi = ctx.cokernel(mono)
    return ctx, mono, epi


def gen_ses_on_source(cfg: GenConfig, f: MonotoneMap):
    """A SES of sheaves on the source of f, for coboundary-family tests."""
    rng = cfg.rng()
    if rng.random() < 0.5:
        return gen_injective_middle_ses(cfg.child("inj"), f.source)
    return gen_ses_sheaves(cfg.child("ses"), f.source)


# -- views of engine objects --------------------------------------------------


def total_dim(cplx) -> int:
    """Sum of the dimensions of a complex's objects over its degrees."""
    return sum(cplx.ctx.obj_dim(cplx.obj(q)) for q in cplx.degrees())


def transpose(dc: DoubleComplex) -> DoubleComplex:
    """The double complex with p and q swapped."""
    D = dc.size
    dims = [[dc.dim(q, p) for q in range(D + 1)] for p in range(D + 1)]
    horiz = [[dc.v(q, p) for q in range(D + 1)] for p in range(D + 1)]
    vert = [[dc.h(q, p) for q in range(D + 1)] for p in range(D + 1)]
    return DoubleComplex(dc.field, D, dims, horiz, vert)


def triple_ses(triple) -> SESOfComplexes:
    """The row I -> J -> K of an injective triple as a short exact sequence."""
    return SESOfComplexes(triple.iota, triple.pi)
