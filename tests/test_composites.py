"""Differential tests of composite restrictions made on first read.

`Sheaf.restriction(i, j)` composes a pair when it is first read and keeps
it; a plain sheaf checks that every cover k < j above i gives the same
composite, and `validate` reads every pair.  The frozen reference is the
eager builder `engine_oracle.composites`, which composes every pair of a
sheaf along every path.

The sheaves the engine builds (kernels, cokernels, images, direct sums and
pushforwards) are path-independent by construction, and on a run each is
checked only on the pairs it reads.  The all-pairs check of those sheaves
lives here: every sheaf the five constructors build during the fixture
commands and a few forged Cartan-Eilenberg triples is composed by the
oracle, which raises on any path dependence, and every pair read off the
engine, coldest first, must equal the oracle's.
"""

import contextlib
import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from engine_oracle import composites
from fixtures import chain, product
from possheaf.ceres import build_ce_triple, verify_ce
from possheaf.cli import main
from possheaf.exactla import Matrix
from possheaf.forge import GenConfig, gen_poset, gen_ses_complexes, gen_sheaf
from possheaf.sheafcat import Pushforward, Sheaf, SheafContext
from test_exactla_oracle import FIELDS, same

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
def built_sheaves():
    """(constructor name, sheaf) of every sheaf the five constructors build
    during the fixture commands and four forged CE triples."""
    built = []
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in CONSTRUCTORS:
            def record(*args, _orig=getattr(owner, name), _name=name, **kwargs):
                out = _orig(*args, **kwargs)
                built.append((_name, out[0] if isinstance(out, tuple) else out))
                return out
            mp.setattr(owner, name, record)
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        for k in range(4):
            cfg = GenConfig("composites-%d" % k, max_elements=5, max_stalk_dim=2)
            ce = build_ce_triple(gen_ses_complexes(cfg))
            assert all(verify_ce(ce.doubles[n]).ok for n in ("A", "B", "C"))
    return built


def test_every_constructor_is_seen(built_sheaves):
    seen = {name for name, _ in built_sheaves}
    assert seen == {name for _, name in CONSTRUCTORS}


def test_built_composites_are_path_independent_and_match_the_eager_builder(built_sheaves):
    pairs = 0
    for _, F in built_sheaves:
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
    rho = dict(F.rho)
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
