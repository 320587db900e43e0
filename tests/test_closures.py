"""The sets read off the order by one up- or down-closure, against the loops they replaced.

Every defining set of pseudo ({u in W : (u] n A = B}, with B in (u] for
every u in W) is W minus the up-closure of A minus B, or empty when B is not
in A; the local disjointness and meet masks remove the up-closure of a
strict segment (b,u]; nat3's range reads the disjointness masks; upper covers
are the minimal elements strictly above; and sectional boundedness reads the
section tops.  The oracles below are the earlier element-by-element loops.
They are compared on every class with up to 7 elements, on the same classes
relabeled by a seeded permutation that is not a linear extension, on the
corpus, and on the 16-element chain, antichain and Boolean lattice 2^4, each
also relabeled.  The defining sets are compared for all five callers (sp, rp,
wrp, clp, and the i-natural rule under the union, Frink and a custom
selection) on every pair, y <= x or not.
"""

import functools
import random

import pytest

from conftest import corpus_posets, nonlinear_relabeling, relabeled, sixteen
from spposet import (
    LocalSelection,
    PartialTable,
    TotalTable,
    implicativity,
    pure_extension,
    selection_frink,
    selection_union,
)
from spposet.axioms import _disjoint_bases
from spposet.enumeration import enumerate_posets
from spposet.errors import NotSectionallyBounded
from spposet.extensions import i_natural_defining_mask
from spposet.poset import bits, closure
from spposet.pseudo import _KINDS, _total_table


@functools.lru_cache(maxsize=None)
def posets():
    rng = random.Random(28)
    classes = [p for n in range(1, 8) for p in enumerate_posets(n, "up-to-iso")]
    out = classes + [q for q in (nonlinear_relabeling(rng, p) for p in classes) if q is not None]
    out += corpus_posets()
    for p in sixteen():
        out += [p, nonlinear_relabeling(rng, p) or relabeled(p, rng.sample(range(16), 16))]
    return tuple(out)


def test_the_poset_set():
    ps = posets()
    # 2450 classes, relabeled but for the 7 antichains, 8 corpus posets and 3 x 2 on 16 elements
    assert len(ps) == 2 * 2450 - 7 + 8 + 6
    # a relabeled antichain is still a linear extension
    assert sum(not p._linear_labels for p in ps) == 2450 - 7 + 2


# -- the replaced loops -------------------------------------------------------------


def loop_defining_mask(p, a, b, within):
    """The u in `within` with (u] n A = B, one candidate at a time."""
    m = 0
    for u in bits(within):
        if p.downs[u] & a == b:
            m |= 1 << u
    return m


# kind -> its (A, B, W) per pair, as pseudo's docstring defines the kind
DEFINING = {
    "sp": lambda p, x, y: (p.ups[y] & p.downs[x], 1 << y, p.ups[y]),
    "rp": lambda p, x, y: (p.downs[x] & ~p.downs[y], 0, p.full),
    "wrp": lambda p, x, y: (p.downs[x], p.downs[y], p.ups[y]),
    "clp": lambda p, x, y: (p.frink_mask(x, y), p.downs[y], p.ups[y]),
}


def loop_disjoint_over_masks(p):
    out = []
    for u in range(p.n):
        row = []
        for b in range(p.n):
            between = p.ups[b] & p.downs[u] & ~(1 << b)
            m = p.full
            if between:
                for z in range(p.n):
                    if p.downs[z] & between:
                        m ^= 1 << z
            row.append(m)
        out.append(tuple(row))
    return tuple(out)


def loop_meet_over_masks(p):
    out = []
    for u in range(p.n):
        row = []
        for b in range(p.n):
            between, only = p.ups[b] & p.downs[u], 1 << b
            m = 0
            if between & only:
                for z in range(p.n):
                    if p.downs[z] & between == only:
                        m |= 1 << z
            row.append(m)
        out.append(tuple(row))
    return tuple(out)


def loop_disjoint_bases(p, x, y):
    """nat3's range: the z <= x with [z,x] n [z,y] inside {z}."""
    both = p.downs[x] & p.downs[y]
    return sum([1 << z for z in bits(p.downs[x]) if p.ups[z] & both & ~(1 << z) == 0])


def loop_upper_covers(p):
    out = []
    for i, up in enumerate(p.ups):
        strict, higher = up & ~(1 << i), 0
        for j in bits(strict):
            higher |= p.ups[j] & ~(1 << j)
        out.append(strict & ~higher)
    return tuple(out)


def loop_sectionally_bounded(p):
    """The flag and its witness: the first two maximal elements of the first section with two."""
    for i in range(p.n):
        tops = list(bits(p.maximal_of(p.ups[i])))
        if len(tops) > 1:
            return False, (p.elements[tops[0]], p.elements[tops[1]]), i
    return True, None, None


def custom_selection(p, rng):
    """A legal selection between the union and the Frink one:
    I(x, y) = (x] u (y] u the down-set of T n L(U({x, y})) for a seeded T."""
    chosen = sum(1 << v for v in range(p.n) if rng.random() < 0.5)

    def down(mask):
        return sum(1 << z for z in range(p.n) if any(p.leq_ix(z, v) for v in bits(mask)))

    return LocalSelection(p, "custom", {(i, j): p.downs[i] | p.downs[j] | down(chosen & p.frink_mask(i, j))
                                       for i in range(p.n) for j in range(i, p.n)})


# -- the comparisons ----------------------------------------------------------------


def test_closure_is_the_union_of_rows():
    rng = random.Random(2801)
    for p in posets()[::7] + posets()[-6:]:
        for rows in (p.ups, p.downs):
            for mask in [0, p.full, *(rng.getrandbits(p.n) for _ in range(20))]:
                want = 0
                for u in bits(mask):
                    want |= rows[u]
                assert closure(rows, mask) == want, (p.name, mask)


def test_defining_sets_match_the_candidate_loop():
    rng = random.Random(2802)
    outside = 0  # wrp pairs with y not below x whose unguarded closure is not empty
    for p in posets():
        r = range(p.n)
        for kind, mask in _KINDS.items():
            for x in r:
                for y in r:
                    assert mask[0](p, x, y) == loop_defining_mask(p, *DEFINING[kind](p, x, y)), (
                        p.name, kind, x, y)
        for x in r:
            for y in r:
                if not p.leq_ix(y, x) and p.ups[y] & ~closure(p.ups, p.downs[x] & ~p.downs[y]):
                    outside += 1
        for sel in (selection_union(p), selection_frink(p), custom_selection(p, rng)):
            for x in r:
                for y in r:
                    want = loop_defining_mask(p, sel.rows[x][y] & p.ups[y], 1 << y, p.ups[y])
                    assert i_natural_defining_mask(p, sel, x, y) == want, (p.name, sel.kind, x, y)
    assert outside > 0


def test_local_tables_match_the_per_z_loops():
    for p in posets():
        assert p.disjoint_over_masks == loop_disjoint_over_masks(p), p.name
        assert p.meet_over_masks == loop_meet_over_masks(p), p.name


def test_meet_over_masks_is_built_without_the_disjointness_masks():
    # T-GLB and is_normal read only meet_over_masks
    for p in (p for n in range(1, 7) for p in enumerate_posets(n, "up-to-iso")):
        assert p.meet_over_masks == loop_meet_over_masks(p)
        assert "disjoint_over_masks" not in p._tables, p.name


def test_nat3_range_matches_the_walk():
    for p in posets():
        e = p.laws
        for x in range(p.n):
            for y in range(p.n):
                assert _disjoint_bases(e, x, y) == loop_disjoint_bases(p, x, y), (p.name, x, y)


def test_upper_covers_match_the_higher_loop():
    for p in posets():
        assert p.upper_covers == loop_upper_covers(p), p.name


def test_sectional_boundedness_matches_the_section_loop():
    unbounded = 0
    for p in posets():
        flag, witness, i = loop_sectionally_bounded(p)
        rep = p.classify()
        assert rep.is_sectionally_bounded is flag, p.name
        assert rep.witnesses.get("is_sectionally_bounded") == witness, p.name
        if not flag:
            unbounded += 1
            r = range(p.n)
            partial = PartialTable(p, [[y if p.leq_ix(y, x) else None for y in r] for x in r])
            total = TotalTable(p, [list(r)] * p.n)
            # a rule and a table decider refuse with the same message
            for refuse in (lambda: pure_extension(partial), lambda: implicativity(p, total)):
                with pytest.raises(NotSectionallyBounded) as err:
                    refuse()
                assert str(err.value) == (f"section [{p.elements[i]}) of {p.name!r} has maximal elements "
                                          f"{witness[0]} and {witness[1]}")
    assert unbounded > 0


def test_rp_table_is_missing_without_a_greatest_element():
    # rp(0, 0) is the greatest element of P, so the first pair of the rp fill fails without one
    seen = 0
    for p in (p for n in range(1, 7) for p in enumerate_posets(n, "up-to-iso")):
        if p.greatest() is None:
            seen += 1
            assert _total_table(p, "rp") is None, p.name
    assert seen == 1 + 3 + 11 + 47 + 255  # the classes of n minus those of n - 1, which gain a top
