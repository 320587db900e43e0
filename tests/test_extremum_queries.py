"""The mask-level order queries of Poset, against the scans they replaced.

greatest_of (least_of) tests the highest (lowest) bit of its mask first and,
on a miss, answers None at once when the labeling is a linear extension;
other labelings scan the rest.  maximal_of, minimal_of and lower_bounds_of
walk the mask inline.  The oracles below are the earlier scans, lowest bit
first through `bits`.  They are compared on every mask of every class with
up to 5 elements, on the same classes relabeled by a seeded permutation that
is not a linear extension (so the scan after a miss runs), on seeded masks
of the 16-element chain, antichain and Boolean lattice 2^4, each also
relabeled, and on the empty mask.  The labeling flag is a derived table that
building a poset never computes.
"""

import random

from conftest import corpus_posets, linear, nonlinear_relabeling, relabeled, sixteen
from spposet import build_poset
from spposet.enumeration import enumerate_posets
from spposet.poset import bits

FLAG = "_linear_labels"


def oracle_greatest_of(p, mask):
    for u in bits(mask):
        if mask & ~p.downs[u] == 0:
            return u
    return None


def oracle_least_of(p, mask):
    for u in bits(mask):
        if mask & ~p.ups[u] == 0:
            return u
    return None


def oracle_maximal_of(p, mask):
    out = 0
    for u in bits(mask):
        if p.ups[u] & mask == 1 << u:
            out |= 1 << u
    return out


def oracle_minimal_of(p, mask):
    out = 0
    for u in bits(mask):
        if p.downs[u] & mask == 1 << u:
            out |= 1 << u
    return out


def oracle_lower_bounds_of(p, mask):
    m = p.full
    for z in bits(mask):
        m &= p.downs[z]
    return m


QUERIES = {
    "greatest_of": oracle_greatest_of,
    "least_of": oracle_least_of,
    "maximal_of": oracle_maximal_of,
    "minimal_of": oracle_minimal_of,
    "lower_bounds_of": oracle_lower_bounds_of,
}


def assert_queries_agree(p, masks):
    for mask in masks:
        for name, oracle in QUERIES.items():
            assert getattr(p, name)(mask) == oracle(p, mask), (p.name, p.ups, name, mask)


def classes():
    return [p for n in range(1, 6) for p in enumerate_posets(n, "up-to-iso")]


def test_every_mask_of_every_class_up_to_5():
    posets = classes()
    assert len(posets) == 1 + 2 + 5 + 16 + 63
    for p in posets:
        assert_queries_agree(p, range(p.full + 1))
        assert p._linear_labels is linear(p) is True


def test_every_mask_under_a_labeling_that_is_not_a_linear_extension():
    rng = random.Random(27)
    seen = 0
    for p in classes():
        q = nonlinear_relabeling(rng, p)
        if q is None:
            continue
        seen += 1
        assert q._linear_labels is False
        assert_queries_agree(q, range(q.full + 1))
    assert seen == 1 + 2 + 5 + 16 + 63 - 5  # all but the five antichains


def test_seeded_masks_on_sixteen_elements():
    rng = random.Random(2027)
    for p in sixteen():
        assert p._linear_labels is linear(p) is True
        q = nonlinear_relabeling(rng, p) or relabeled(p, rng.sample(range(16), 16))
        assert q._linear_labels is linear(q)
        for r in (p, q):
            masks = [rng.getrandbits(16) for _ in range(400)]
            # sparse and dense masks, where extrema exist more often
            masks += [rng.getrandbits(16) & rng.getrandbits(16) & rng.getrandbits(16) for _ in range(200)]
            masks += [r.full, *r.ups, *r.downs, *(1 << i for i in range(16))]
            assert_queries_agree(r, masks)


def test_empty_mask():
    rng = random.Random(5)
    posets = [*sixteen(), *classes()]
    posets += [q for q in (nonlinear_relabeling(rng, p) for p in classes()) if q is not None]
    for p in posets:
        assert p.greatest_of(0) is None and p.least_of(0) is None
        assert p.maximal_of(0) == 0 and p.minimal_of(0) == 0
        assert p.lower_bounds_of(0) == p.full
        assert_queries_agree(p, [0])


def test_building_posets_computes_no_labeling_flag():
    built = list(enumerate_posets(7, "up-to-iso"))
    assert len(built) == 2045
    for p in built:
        assert FLAG not in p._tables, p.name
    for parsed in corpus_posets():
        assert FLAG not in parsed._tables, parsed.name
        p = build_poset(parsed.name, parsed.elements, parsed.covers())
        assert p == parsed and FLAG not in p._tables, p.name
