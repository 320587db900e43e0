"""is_normal's bound-witness cross-check, against the loop it replaced.

The oracle is the earlier form of the check: for every v, x and y, a search
for u >= v and z >= x with [y,u] n [y,z] = {y}, compared with v <= x -> y.
Poset.bound_witness_masks must hold exactly the v that search finds, on
every labeled poset with at most 5 elements, and is_normal must agree with
the loop on every total normal extension there and on one-cell changes of it.
"""

import random

import pytest

from spposet import MissingWitness, TotalTable, build_poset, is_normal, normal_extension, star_table
from spposet.enumeration import enumerate_posets
from spposet.errors import InternalDisagreement
from spposet.poset import bits


def _found(p, v, x, y):
    """Whether some u >= v and z >= x have [y,u] n [y,z] = {y}."""
    by = 1 << y
    for u in bits(p.ups[v]):
        du = p.downs[u] & p.ups[y]
        for z in bits(p.ups[x]):
            if du & p.downs[z] == by:
                return True
    return False


def _loop_masks(p):
    """Per (x, y), the v for which the loop finds u and z, as a bitmask."""
    r = range(p.n)
    return [[sum(1 << v for v in r if _found(p, v, x, y)) for y in r] for x in r]


def _bound_witness_holds(p, t, found):
    """v <= x -> y iff the loop finds u and z for v, x and y, for every v, x
    and y; `found` is _loop_masks(p), which does not depend on t."""
    for v in range(p.n):
        for x in range(p.n):
            for y in range(p.n):
                if p.leq_ix(v, t.cells[x][y]) != bool(found[x][y] >> v & 1):
                    return False
    return True


def _labeled(max_n):
    return (p for n in range(1, max_n + 1) for p in enumerate_posets(n))


def test_masks_hold_what_the_loop_finds():
    count = 0
    for p in _labeled(5):
        assert p.bound_witness_masks == tuple(map(tuple, _loop_masks(p))), p.name
        count += 1
    assert count == 4473


def test_is_normal_agrees_with_the_loop():
    # every cell of every total normal extension is changed once, to another
    # value drawn at random; the loop and is_normal must both reject the change
    rng = random.Random(17)
    extensions = changes = 0
    for p in _labeled(5):
        st = star_table(p)
        if isinstance(st, MissingWitness):
            continue
        ext = normal_extension(st)
        if not ext.is_total:
            continue
        t, found = ext.table, _loop_masks(p)
        assert is_normal(p, t) and _bound_witness_holds(p, t, found), p.name
        extensions += 1
        for x in range(p.n):
            for y in range(p.n):
                if p.n == 1:
                    continue
                cells = [list(row) for row in t.cells]
                cells[x][y] = rng.choice([v for v in range(p.n) if v != cells[x][y]])
                changed = TotalTable(p, cells)
                assert not is_normal(p, changed), (p.name, x, y)
                assert not _bound_witness_holds(p, changed, found), (p.name, x, y)
                changes += 1
    assert (extensions, changes) == (1133, 27430)


def _diamond():
    return build_poset("2x2", ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def test_a_planted_disagreement_is_an_internal_disagreement():
    p = _diamond()
    st = star_table(p)
    t = normal_extension(st).table
    masks = [list(row) for row in p.bound_witness_masks]
    # the masks of a table that differs from t in cell (a, b) only
    x, y = p.index("a"), p.index("b")
    other = next(v for v in range(p.n) if v != t.cells[x][y])
    masks[x][y] = p.downs[other]
    p._tables["bound_witness_masks"] = tuple(map(tuple, masks))
    # the normal extension fails the planted condition, on every call
    for _ in range(2):
        with pytest.raises(InternalDisagreement, match="bound-witness"):
            is_normal(p, t)
    # and the changed table meets it, though it is not the normal extension
    cells = [list(row) for row in t.cells]
    cells[x][y] = other
    with pytest.raises(InternalDisagreement, match="bound-witness"):
        is_normal(p, TotalTable(p, cells))
