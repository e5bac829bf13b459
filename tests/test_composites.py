"""Differential tests of restrictions and direct-sum maps made on first read.

`Sheaf.restriction(i, j)` is the one reader of restrictions: it keeps one
table, seeded with the given covers, and composes any other pair when it is
first read; a plain sheaf checks that every cover k < j above i gives the
same composite, and `validate` reads every pair.  An `InjectiveSheaf` is
given no cover: it writes each restriction, a cover or not, as identity
blocks when it is first read.  The frozen references are the eager builder
`engine_oracle.composites`, which composes every pair of a sheaf along
every path, and `engine_oracle.injective_cover`, each injective cover
written from its definition.

The sheaves the engine builds (kernels, cokernels, images, direct sums and
pushforwards) are path-independent by construction, and on a run each is
checked only on the pairs it reads.  The all-pairs check of those sheaves
lives here: every sheaf the five constructors build during the fixture
commands and a few forged Cartan-Eilenberg triples is composed by the
oracle, which raises on any path dependence, and every pair read off the
engine, coldest first, must equal the oracle's.

A `homalg.DirectSum` places no injection or projection until one is read.
Every sum made on the same runs, by
each of the five functions that make one, is checked against
`engine_oracle.eager_direct_sum`, which builds every map at once: its
injections and projections, and `into` and `out_of` of a summand's
identity, must be the oracle's.  Maps placed by `into` and `out_of` from
drawn parts must equal the sums of products with injections and
projections that they replace, and a map placed by `into` from parts keyed
by other sums must equal `engine_oracle.into_by_structural_sums`, the sum
of products with structural maps that ceres once built its row maps by.
"""

import contextlib
import functools
import io
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from engine_oracle import (
    VectorSpaces,
    composites,
    eager_direct_sum,
    injective_cover,
    into_by_structural_sums,
)
from fixtures import chain, product
from possheaf.ceres import build_ce_triple, verify_ce
from possheaf.cli import main
from possheaf.exactla import Matrix
from possheaf.forge import GenConfig, gen_poset, gen_ses_complexes, gen_sheaf
from possheaf.homalg import DirectSum
from possheaf.sheafcat import (
    IllFormedMorphism,
    InjectiveSheaf,
    Pushforward,
    Sheaf,
    SheafContext,
    SheafMorphism,
    hom_basis,
)
from test_exactla_oracle import ENTRIES, FIELDS, same

HERE = os.path.dirname(os.path.abspath(__file__))
PSEUDOCIRCLE = os.path.join(HERE, "..", "instances", "pseudocircle.json")
TORUS = os.path.join(HERE, "..", "instances", "torus.json")

COMMANDS = [
    ["gss", PSEUDOCIRCLE, "--sheaf", "k"],
    ["verify-main", PSEUDOCIRCLE, "--map", "collapse", "--sequence", "S"],
    ["verify-cz", PSEUDOCIRCLE, "--map", "collapse", "--sequence", "S"],
    ["leray", TORUS, "--map", "pr1", "--sheaf", "k"],
    ["--field", "fp:32003", "verify-main", TORUS, "--map", "pr1", "--sequence", "S"],
]
CONSTRUCTORS = [(SheafContext, "kernel"), (SheafContext, "cokernel"), (SheafContext, "image"),
                (SheafContext, "direct_sum"), (Pushforward, "apply")]


@pytest.fixture(scope="module")
def recorded():
    """What the fixture commands and four forged CE triples build: under
    "sheaves", (constructor name, sheaf) of every sheaf the five constructors
    build and ("injective", I) of every `InjectiveSheaf` made; under "sums",
    (name of the function that made it, sum) of every `DirectSum`.  Seeds 0
    and 3 take `gen_ses_complexes`' mapping-cone branch, 1 and 2 its
    horseshoe branch."""
    built, sums = [], []
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in CONSTRUCTORS:
            def record(*args, _orig=getattr(owner, name), _name=name, **kwargs):
                out = _orig(*args, **kwargs)
                built.append((_name, out[0] if isinstance(out, tuple) else out))
                return out
            mp.setattr(owner, name, record)

        def record_injective(self, *args, _orig=InjectiveSheaf.__init__):
            _orig(self, *args)
            built.append(("injective", self))
        mp.setattr(InjectiveSheaf, "__init__", record_injective)

        def record_sum(self, *args, _orig=DirectSum.__init__, **kwargs):
            _orig(self, *args, **kwargs)
            assert not self._maps                 # nothing is placed until it is read
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):      # a comprehension's frame
                frame = frame.f_back
            sums.append((frame.f_code.co_name, self))
        mp.setattr(DirectSum, "__init__", record_sum)
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        for k in range(4):
            cfg = GenConfig("composites-%d" % k, max_elements=5, max_stalk_dim=2)
            ce = build_ce_triple(gen_ses_complexes(cfg))
            assert all(verify_ce(ce.doubles[n]).ok for n in ("A", "B", "C"))
    return {"sheaves": built, "sums": sums}


@pytest.fixture(scope="module")
def built_sheaves(recorded):
    return recorded["sheaves"]


def test_every_constructor_is_seen(built_sheaves):
    seen = {name for name, _ in built_sheaves}
    assert seen == {name for _, name in CONSTRUCTORS} | {"injective"}


def test_injective_covers_read_on_demand_match_the_eager_identity_blocks(built_sheaves):
    covers = 0
    for name, I in built_sheaves:
        if name != "injective":
            continue
        for (y, x) in I.poset.covers:
            assert same(I.restriction(y, x), injective_cover(I, y, x))
            covers += 1
    assert covers > 1000


def test_built_composites_are_path_independent_and_match_the_eager_builder(built_sheaves):
    pairs = 0
    for name, F in built_sheaves:
        if name == "injective":
            continue
        eager = composites(F)       # raises if two paths of F differ
        for (i, j) in sorted(eager, reverse=True):
            assert same(F.restriction(i, j), eager[(i, j)])
        pairs += len(eager)
    assert pairs > 1000


SQUARE = product(chain(2), chain(2))     # two paths from 0.0 to 1.1, through 0.1 and 1.0
POSETS = [SQUARE, product(chain(3), chain(2)), product(SQUARE, chain(2))] + [
    gen_poset(GenConfig("composite-poset-%d" % k, max_elements=6)) for k in range(6)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(POSETS), st.integers(0, 10**6), st.data())
def test_validate_fails_on_the_eager_builders_first_pair(field, p, seed, data):
    # a forged sheaf, with one cover's restriction replaced by a drawn matrix or not
    F = gen_sheaf(GenConfig("composite-%d" % seed, max_stalk_dim=2, field=field), p)
    rho = {c: F.restriction(*c) for c in p.covers}
    if p.covers and data.draw(st.booleans()):
        i, j = data.draw(st.sampled_from(p.covers))
        entries = st.sampled_from([0, 1, -1, 2])
        rho[(i, j)] = Matrix.from_rows(field, [[data.draw(entries) for _ in range(F.dims[i])]
                                               for _ in range(F.dims[j])], F.dims[i])
    try:
        eager = composites(Sheaf(p, field, F.dims, rho, validate=False))
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            Sheaf(p, field, F.dims, rho)
        assert str(caught.value) == str(exc)
        return
    lazy = Sheaf(p, field, F.dims, rho)
    assert set(lazy._composites) == set(eager)
    assert all(same(lazy.restriction(i, j), m) for (i, j), m in eager.items())


def test_a_pair_is_checked_when_first_read():
    p = SQUARE
    field = FIELDS[0]
    one, two = Matrix.identity(field, 1), Matrix.identity(field, 1).scale(2)
    rho = {c: one for c in p.covers}
    rho[(p.idx("0.1"), p.idx("1.1"))] = two
    F = Sheaf(p, field, [1] * 4, rho, validate=False)
    assert same(F.restriction(p.idx("0.0"), p.idx("0.1")), one)
    with pytest.raises(ValueError, match="path dependent from 0.0 to 1.1"):
        F.restriction(p.idx("0.0"), p.idx("1.1"))


def test_a_missing_nonzero_cover_is_named():
    p = SQUARE
    field = FIELDS[0]
    a, b = p.idx("0.0"), p.idx("0.1")
    rho = {c: Matrix.identity(field, 1) for c in p.covers if c != (a, b)}
    with pytest.raises(ValueError, match="^missing restriction for cover 0.0<0.1$"):
        Sheaf(p, field, [1] * 4, rho)
    F = Sheaf(p, field, [1] * 4, rho, validate=False)     # named no later than validate()
    with pytest.raises(ValueError, match="^missing restriction for cover 0.0<0.1$"):
        F.validate()
    with pytest.raises(ValueError, match="^missing restriction for cover 0.0<0.1$"):
        F.restriction(a, p.idx("1.1"))


def test_a_missing_cover_into_a_zero_stalk_is_zero():
    p = SQUARE
    field = FIELDS[0]
    top = p.idx("1.1")
    dims = [0 if x == top else 1 for x in range(len(p))]
    rho = {c: Matrix.identity(field, 1) for c in p.covers if top not in c}
    F = Sheaf(p, field, dims, rho)
    for (i, j) in p.covers:
        if j == top:
            assert same(F.restriction(i, j), Matrix.zeros(field, 0, 1))
    assert same(F.restriction(p.idx("0.0"), top), Matrix.zeros(field, 0, 1))
    assert same(F.restriction(p.idx("0.0"), p.idx("1.0")), Matrix.identity(field, 1))


def _same_map(f, g):
    if hasattr(f, "comps"):
        return len(f.comps) == len(g.comps) and all(map(same, f.comps, g.comps))
    return same(f, g)


def test_direct_sum_maps_read_on_demand_match_the_eager_builder(recorded):
    makers = {name for name, _ in recorded["sums"]}
    assert makers == {"horseshoe", "mapping_cone", "_add_parts", "_x_middle", "_augment_middle"}
    maps = 0
    for _, S in recorded["sums"]:
        obj, injs, projs = eager_direct_sum(S.ctx, S.objs)
        assert S.ctx.obj_dim(S.obj) == S.ctx.obj_dim(obj)
        for key, inj, proj in zip(S.keys, injs, projs):
            assert _same_map(S.inj(key), inj) and _same_map(S.proj(key), proj)
            maps += 2
    assert maps > 1000


def test_into_and_out_of_place_the_eager_builders_maps(recorded):
    for _, S in recorded["sums"]:
        ctx = S.ctx
        _, injs, projs = eager_direct_sum(ctx, S.objs)
        for key, X, inj, proj in zip(S.keys, S.objs, injs, projs):
            assert _same_map(S.into({key: ctx.identity(X)}), inj)
            assert _same_map(S.out_of({key: ctx.identity(X)}), proj)
        assert _same_map(S.into({k: S.proj(k) for k in S.keys}), ctx.identity(S.obj))


def _drawn_map(ctx, X, Y, draw):
    """A map X -> Y with drawn entries; over a poset, a drawn combination of
    a basis of the sheaf morphisms."""
    if isinstance(ctx, VectorSpaces):
        return Matrix.from_rows(ctx.field, [[draw(ENTRIES) for _ in range(X)] for _ in range(Y)], X)
    f = ctx.zero_map(X, Y)
    for h in hom_basis(X, Y):
        c = draw(ENTRIES)
        f = ctx.add(f, SheafMorphism(X, Y, [m.scale(c) for m in h.comps], validate=False))
    return f


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from([None, chain(2), SQUARE]), st.integers(1, 3),
       st.data())
def test_into_and_out_of_equal_the_sums_of_products(field, p, n, data):
    # over vector spaces when p is None, else over sheaves on p
    ctx = VectorSpaces(field) if p is None else SheafContext(p, field)

    def drawn_obj():
        if p is None:
            return data.draw(st.integers(0, 3))
        seed = data.draw(st.integers(0, 10**6))
        return gen_sheaf(GenConfig("sum-%d" % seed, max_stalk_dim=2, field=field), p)

    keys = ["k%d" % i for i in range(n)]
    S = DirectSum(ctx, [drawn_obj() for _ in keys], keys)
    E = drawn_obj()
    given_keys = data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    summand = {k: S.objs[S.index[k]] for k in keys}
    ins = {k: _drawn_map(ctx, E, summand[k], data.draw) for k in given_keys}
    outs = {k: _drawn_map(ctx, summand[k], E, data.draw) for k in given_keys}
    assert _same_map(S.into(ins), functools.reduce(
        ctx.add, [ctx.compose(S.inj(k), f) for k, f in ins.items()], ctx.zero_map(E, S.obj)))
    assert _same_map(S.out_of(outs), functools.reduce(
        ctx.add, [ctx.compose(f, S.proj(k)) for k, f in outs.items()], ctx.zero_map(S.obj, E)))
    # a part whose summand side is not its key's summand
    k = data.draw(st.sampled_from(given_keys))
    Z = summand[k] + 1 if p is None else ctx.direct_sum([summand[k], ctx.constant_sheaf()])
    with pytest.raises(IllFormedMorphism):
        S.into({**ins, k: ctx.zero_map(E, Z)})
    with pytest.raises(IllFormedMorphism):
        S.out_of({**outs, k: ctx.zero_map(Z, E)})


# T's keys are k0, k1, k2.  Each case lists its sub-sums, each by its keys in
# its own order (a k-key is one T shares, an x-key one T drops), and the keys
# of T given parts of their own.
SUB_SUM_CASES = {
    "shares-all": ([("k0", "k1", "k2")], ()),
    "shares-some": ([("x0", "k0", "k2")], ()),
    "shares-none": ([("x0", "x1")], ()),
    "reordered": ([("k2", "k0", "k1")], ()),
    "mixed": ([("k2", "x0"), ("k0",)], ("k1",)),
    "mixed-none-shared": ([("x0",)], ("k0", "k2")),
}


@settings(max_examples=15, deadline=None)
@pytest.mark.parametrize("case", sorted(SUB_SUM_CASES))
@pytest.mark.parametrize("field", FIELDS[:2], ids=["q", "fp32003"])
@given(st.sampled_from([None, chain(2), SQUARE]), st.data())
def test_into_places_sub_sum_parts_as_the_structural_sum(case, field, p, data):
    # over vector spaces when p is None, else over sheaves on p
    ctx = VectorSpaces(field) if p is None else SheafContext(p, field)

    def drawn_obj():
        if p is None:
            return data.draw(st.integers(0, 3))
        seed = data.draw(st.integers(0, 10**6))
        return gen_sheaf(GenConfig("sub-%d" % seed, max_stalk_dim=2, field=field), p)

    subs_keys, direct = SUB_SUM_CASES[case]
    obj = {k: drawn_obj() for k in ("k0", "k1", "k2", "x0", "x1")}
    T = DirectSum(ctx, [obj[k] for k in ("k0", "k1", "k2")], ["k0", "k1", "k2"])
    E = drawn_obj()
    subs = {}
    for keys in subs_keys:
        S = DirectSum(ctx, [obj[k] for k in keys], list(keys))
        subs[S] = S.into({k: _drawn_map(ctx, E, obj[k], data.draw) for k in keys})
    rest = {k: _drawn_map(ctx, E, obj[k], data.draw) for k in direct}
    assert _same_map(T.into({**subs, **rest}), into_by_structural_sums(ctx, T, subs, rest))
    # a sub-sum part of the wrong shape, and a second part at a key a sub-sum fills
    S, f = next(iter(subs.items()))
    Z = S.obj + 1 if p is None else ctx.direct_sum([S.obj, ctx.constant_sheaf()])
    with pytest.raises(IllFormedMorphism):
        T.into({S: ctx.zero_map(E, Z)})
    shared = [k for k in S.keys if k in T.index]
    if shared:
        with pytest.raises(ValueError):
            T.into({S: f, shared[0]: _drawn_map(ctx, E, obj[shared[0]], data.draw)})
