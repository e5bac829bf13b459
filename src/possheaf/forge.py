"""Deterministic seeded generators for posets, sheaves and exact sequences.

Sheaves are generated as kernels of morphisms between coinduced sums, so
path-independence holds by construction; short exact sequences of complexes
come from the shapes the pipeline actually consumes (linked resolutions and
mapping cones).  The same config always reproduces the same objects.
"""

from __future__ import annotations

import random

from . import homalg
from .exactla import QQ, Matrix, place_blocks
from .poset import Poset
from .sheafcat import InjectiveSheaf, SheafContext, SheafMorphism, hom_basis


class GenConfig:
    """Bounds and seed for one generated instance."""

    def __init__(self, seed, max_elements=6, max_stalk_dim=3, max_degree_span=3, field=QQ):
        if max_elements < 1 or max_stalk_dim < 1 or max_degree_span < 1:
            raise ValueError("generator bounds must be positive")
        self.seed = seed
        self.max_elements = max_elements
        self.max_stalk_dim = max_stalk_dim
        self.max_degree_span = max_degree_span
        self.field = field

    def rng(self):
        # string seeding is stable across processes (tuple seeds are not)
        return random.Random("possheaf:%r" % (self.seed,))

    def child(self, tag):
        return GenConfig(("%s/%s" % (self.seed, tag)), self.max_elements,
                         self.max_stalk_dim, self.max_degree_span, self.field)


def _topology_pool(max_elements, max_chain):
    """Small posets with nonvanishing cohomology, to keep batches honest."""
    pool = []
    if max_elements >= 4 and (max_chain is None or max_chain >= 1):
        pool.append((["a", "b", "c", "d"],
                     [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]))  # circle
    if max_elements >= 5 and (max_chain is None or max_chain >= 1):
        pool.append((["a", "b", "c", "d", "e"],
                     [("a", "c"), ("a", "d"), ("a", "e"),
                      ("b", "c"), ("b", "d"), ("b", "e")]))              # theta graph
    if max_elements >= 6 and (max_chain is None or max_chain >= 2):
        pool.append((["a", "b", "c", "d", "e", "f"],
                     [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                      ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f")]))  # sphere
    return pool


def gen_poset(cfg: GenConfig, max_chain=None) -> Poset:
    """Random transitively-reduced DAG with at least one covering pair."""
    rng = cfg.rng()
    pool = _topology_pool(cfg.max_elements, max_chain)
    if pool and rng.random() < 0.35:
        elements, covers = pool[rng.randrange(len(pool))]
        return Poset(elements, covers)
    for attempt in range(64):
        n = rng.randint(2, cfg.max_elements)
        names = ["e%d" % i for i in range(n)]
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    edges.add((i, j))
        if not edges:
            edges.add((0, 1))
        # transitive closure, then reduction
        succ = {i: {j for (a, j) in edges if a == i} for i in range(n)}
        closure = {i: set() for i in range(n)}
        for i in range(n - 1, -1, -1):
            for j in succ[i]:
                closure[i] |= {j} | closure[j]
        covers = []
        for (i, j) in sorted(edges):
            if not any(j in closure[k] for k in closure[i] if k != j):
                covers.append((names[i], names[j]))
        p = Poset(names, covers)
        if max_chain is None or p.longest_chain_length() <= max_chain:
            return p
        rng = random.Random("possheaf:%r:retry%d" % (cfg.seed, attempt))
    # heavily constrained: fall back to a two-element chain
    return Poset(["e0", "e1"], [("e0", "e1")])


def _random_coinduced(rng, ctx: SheafContext, max_summands, max_mult):
    keys = []
    for x in range(len(ctx.poset)):
        if rng.random() < 0.6 and len(keys) < max_summands:
            keys.append((x, rng.randint(1, max_mult)))
    if not keys:
        keys = [(rng.randrange(len(ctx.poset)), 1)]
    return InjectiveSheaf(ctx.poset, ctx.field, keys)


def _random_coinduced_map(rng, ctx, src: InjectiveSheaf, tgt: InjectiveSheaf):
    """Random morphism of coinduced sums via the Hom correspondence."""
    field = ctx.field
    blocks = {}
    for jt, (yt, vt) in enumerate(tgt.summands):
        for js, (xs, vs) in enumerate(src.summands):
            if xs in ctx.poset.up[yt]:           # y <= x: Hom([x]_U, [y]_V) = Hom(U, V)
                blocks[(jt, js)] = Matrix.from_rows(
                    field, [[rng.randint(-2, 2) for _ in range(vs)] for _ in range(vt)],
                    cols=vs)
    comps = [place_blocks(field, tgt.dims[z], src.dims[z],
                          [(tgt.slot[z][jt], src.slot[z][js], blocks[(jt, js)])
                           for jt in tgt.present[z] for js in src.present[z] if (jt, js) in blocks])
             for z in range(len(ctx.poset))]
    return SheafMorphism(src, tgt, comps)


def gen_sheaf(cfg: GenConfig, poset: Poset):
    """Random sheaf as the kernel of a morphism of coinduced sums.

    Occasionally returns a constant sheaf: on the topology-pool posets those
    are the sheaves with nonvanishing higher cohomology.
    """
    ctx = SheafContext(poset, cfg.field)
    rng = cfg.rng()
    if rng.random() < 0.25:
        return ctx.constant_sheaf(rng.randint(1, max(1, cfg.max_stalk_dim - 1)))
    for attempt in range(8):
        src = _random_coinduced(rng, ctx, max_summands=3, max_mult=cfg.max_stalk_dim)
        tgt = _random_coinduced(rng, ctx, max_summands=2, max_mult=cfg.max_stalk_dim)
        phi = _random_coinduced_map(rng, ctx, src, tgt)
        K, _ = ctx.kernel(phi)
        if K.total_dim > 0:
            K.validate()
            return K
    return ctx.constant_sheaf()


def gen_ses_sheaves(cfg: GenConfig, poset: Poset):
    """0 -> A -> B -> C -> 0 with A the image of a random morphism into B."""
    ctx = SheafContext(poset, cfg.field)
    rng = cfg.rng()
    B = gen_sheaf(cfg.child("B"), poset)
    F0 = gen_sheaf(cfg.child("src"), poset)
    homs = hom_basis(F0, B)
    if homs:
        phi = homs[0]
        for h in homs[1:]:
            c = rng.randint(-2, 2)
            if c:
                phi = ctx.add(phi, SheafMorphism(h.source, h.target,
                                                 [m.scale(ctx.field.from_int(c))
                                                  for m in h.comps], validate=False))
    else:
        phi = ctx.zero_map(F0, B)
    A, mono, _ = ctx.image(phi)
    C, epi = ctx.cokernel(mono)
    return ctx, mono, epi


def gen_ses_complexes(cfg: GenConfig, poset: Poset = None) -> homalg.SESOfComplexes:
    """SES of complexes of sheaves: linked resolutions, or a mapping cone."""
    if poset is None:
        poset = gen_poset(cfg.child("poset"), max_chain=cfg.max_degree_span - 1)
    ctx, mono, epi = gen_ses_sheaves(cfg.child("ses"), poset)
    rng = cfg.rng()
    if rng.random() < 0.5:
        res_a = homalg.injective_resolution(ctx, mono.source)
        res_c = homalg.injective_resolution(ctx, epi.target)
        hs = homalg.horseshoe(ctx, mono, epi, res_a, res_c)
        return hs.as_ses()
    # mapping cone over a lifted random morphism between resolutions
    F = gen_sheaf(cfg.child("coneF"), poset)
    G = gen_sheaf(cfg.child("coneG"), poset)
    homs = hom_basis(F, G)
    phi = homs[rng.randrange(len(homs))] if homs else ctx.zero_map(F, G)
    res_f = homalg.injective_resolution(ctx, F)
    res_g = homalg.injective_resolution(ctx, G)
    lift = homalg.comparison_lift(ctx, phi, res_f, res_g)
    _, ses = homalg.mapping_cone(lift)
    return ses
