import itertools

import pytest

from fixtures import apply, chain, fence_x4, leq, preimage, product, product_projection, up_set
from possheaf.poset import MonotoneMap, NotMonotone, Poset, UnknownElement


def test_up_sets_on_fence():
    x4 = fence_x4()
    assert up_set(x4, "a") == {"a", "c", "d"}
    assert up_set(x4, "c") == {"c"}
    c2 = chain(2)
    assert up_set(c2, "0") == {"0", "1"}


def test_is_open():
    x4 = fence_x4()
    assert x4.is_open({"c"})
    assert not x4.is_open({"a"})
    assert x4.is_open(set())
    assert x4.is_open({"a", "b", "c", "d"})


def test_unknown_element():
    x4 = fence_x4()
    with pytest.raises(UnknownElement):
        up_set(x4, "z")


def test_cycle_rejected():
    with pytest.raises(ValueError):
        Poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_transitive_reduction_enforced():
    with pytest.raises(ValueError):
        Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def test_longest_chain():
    assert fence_x4().longest_chain_length() == 1
    assert chain(3).longest_chain_length() == 2
    assert Poset(["x"], []).longest_chain_length() == 0


def test_product_is_grid():
    g = product(chain(2), chain(2))
    assert len(g) == 4
    assert leq(g, "0.0", "1.1")
    assert not leq(g, "1.0", "0.1")
    assert len(product(fence_x4(), fence_x4())) == 16


def test_projection_monotone():
    x4 = fence_x4()
    pr1 = product_projection(x4, x4, 0)
    assert apply(pr1, "a.c") == "a"
    assert pr1.violations() == []


def test_monotone_violation_reported():
    c2 = chain(2)
    anti = Poset(["u", "v"], [("v", "u")])
    with pytest.raises(NotMonotone):
        MonotoneMap(c2, anti, {"0": "u", "1": "v"})


def test_opens_closed_under_union_and_intersection():
    x4 = fence_x4()
    opens = [set(s) for s in x4.open_sets()]
    names = [{x4.elements[i] for i in s} for s in opens]
    for a, b in itertools.combinations(names, 2):
        assert x4.is_open(a | b)
        assert x4.is_open(a & b)


def test_all_subsets_checked_small():
    # for |P| <= 5, up-set enumeration matches brute force over all subsets
    p = Poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    brute = {
        frozenset(p.idx(x) for x in s)
        for r in range(4)
        for s in itertools.combinations(p.elements, r)
        if p.is_open(set(s))
    }
    assert brute == set(p.open_sets())


def test_preimage_of_open_is_open():
    x4 = fence_x4()
    pr1 = product_projection(x4, x4, 0)
    for q in x4.elements:
        pre = preimage(pr1, up_set(x4, q))
        assert pr1.source.is_open(pre)


def test_linear_extension_monotone():
    x4 = fence_x4()
    order = x4.linear_extension()
    pos = {i: k for k, i in enumerate(order)}
    for i, j in x4.covers:
        assert pos[i] < pos[j]
