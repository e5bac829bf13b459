import random

import pytest
from hypothesis import given, settings, strategies as st

from engine_oracle import random_coinduced_map_by_slots
from fixtures import chain, gen_injective_middle_ses, gen_leray_instance, gen_monotone_map
from possheaf.ceres import compute_invariants
from possheaf.exactla import QQ, PrimeField
from possheaf.forge import (
    MAX_DEGREE_SPAN,
    GenConfig,
    _random_coinduced_map,
    gen_poset,
    gen_ses_complexes,
    gen_ses_sheaves,
    gen_sheaf,
)
from possheaf.poset import Poset
from possheaf.sheafcat import InjectiveSheaf, SheafContext


def test_determinism_poset():
    a, b = gen_poset(GenConfig(42)), gen_poset(GenConfig(42))
    assert a.elements == b.elements and a.covers == b.covers


def test_golden_poset_seed_zero():
    p = gen_poset(GenConfig(0))
    # frozen output of the committed generator
    assert p.elements == ["e0", "e1", "e2", "e3"]
    assert [(p.elements[i], p.elements[j]) for (i, j) in p.covers] == [
        ("e0", "e1"), ("e1", "e2"), ("e1", "e3")]
    assert p.longest_chain_length() == 2


def test_point_poset_bound():
    p = gen_poset(GenConfig(5, max_elements=2))
    assert len(p) == 2


def test_sheaf_valid_and_deterministic():
    p = gen_poset(GenConfig(1))
    s1 = gen_sheaf(GenConfig(9, max_stalk_dim=2), p)
    s2 = gen_sheaf(GenConfig(9, max_stalk_dim=2), p)
    assert s1.dims == s2.dims
    s1.validate()


def test_golden_sheaf_dims():
    p = gen_poset(GenConfig(0))
    s = gen_sheaf(GenConfig(0), p)
    assert s.dims == [0, 0, 1, 0]


def test_ses_sheaves_validator_clean():
    for seed in range(8):
        cfg = GenConfig(seed, max_elements=5, max_stalk_dim=2)
        p = gen_poset(cfg.child("p"))
        ctx, mono, epi = gen_ses_sheaves(cfg, p)
        assert ctx.is_mono(mono)
        assert ctx.is_epi(epi)
        assert ctx.is_exact_pair(mono, epi, mono.target)


def test_ses_complexes_validator_clean():
    for seed in range(6):
        ses = gen_ses_complexes(GenConfig(seed, max_elements=5, max_stalk_dim=2))
        ses.validate()
        compute_invariants(ses)  # raises on any exactness failure


def test_degree_span_respected():
    for seed in range(6):
        cfg = GenConfig(seed, max_elements=6, max_stalk_dim=2)
        ses = gen_ses_complexes(cfg)
        span = ses.B.hi - ses.B.lo + 1
        assert span <= MAX_DEGREE_SPAN + 1


def test_monotone_map_is_monotone():
    for seed in range(8):
        f = gen_monotone_map(GenConfig(seed))
        assert f.violations() == []


def test_leray_instance_shape():
    f, sheaf = gen_leray_instance(GenConfig(4))
    assert sheaf.poset is f.source
    sheaf.validate()


def test_injective_middle_is_ses():
    p = gen_poset(GenConfig(11))
    ctx, mono, epi = gen_injective_middle_ses(GenConfig(11), p)
    assert ctx.is_mono(mono) and ctx.is_epi(epi)
    assert ctx.is_exact_pair(mono, epi, mono.target)


def _both_builders(field, poset, src, tgt, seed):
    """The forge's random map between the coinduced sums src and tgt (lists of
    (element index, multiplicity)), and the frozen slot-by-slot builder's, each
    from its own generator seeded alike."""
    ctx = SheafContext(poset, field)
    S, T = InjectiveSheaf(poset, field, src), InjectiveSheaf(poset, field, tgt)
    return (_random_coinduced_map(random.Random(seed), ctx, S, T),
            random_coinduced_map_by_slots(random.Random(seed), ctx, S, T))


FORGE_FIELDS = [QQ, PrimeField(32003)]


# on the chain 0 < 1: empty sums, and a target summand peaked at 1 with the
# only source summand peaked below it, beside one peaked at 0 that has one
@pytest.mark.parametrize("field", FORGE_FIELDS, ids=["q", "fp32003"])
@pytest.mark.parametrize("src,tgt", [([], []), ([(0, 2)], []), ([], [(1, 2)]),
                                     ([(0, 2)], [(1, 2), (0, 1)])])
def test_random_coinduced_map_matches_the_frozen_builder_on_edge_sums(field, src, tgt):
    new, old = _both_builders(field, chain(2), src, tgt, "edge")
    assert new.comps == old.comps


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FORGE_FIELDS), st.integers(0, 40),
       st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), max_size=4),
       st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), max_size=4),
       st.integers(0, 10**6))
def test_random_coinduced_map_matches_the_frozen_builder(field, pseed, src, tgt, seed):
    p = gen_poset(GenConfig(pseed))
    new, old = _both_builders(field, p, [(x % len(p), v) for x, v in src],
                              [(x % len(p), v) for x, v in tgt], seed)
    assert new.comps == old.comps
