import pytest

from spposet import build_poset
from spposet.errors import (
    AntisymmetryViolation,
    DuplicateElement,
    SizeCap,
    UnknownElement,
)


def test_build_hexagon_closure(hexagon):
    assert hexagon.leq("0", "1")
    assert hexagon.leq("a", "1")
    assert not hexagon.leq("c", "d")
    assert not hexagon.leq("a", "b")
    assert hexagon.leq("a", "a")


def test_build_singleton():
    p = build_poset("one", ["x"], [])
    assert p.leq("x", "x")
    assert p.upper_section("x").members == ("x",)
    assert p.lower_section("x").members == ("x",)


def test_build_rejects_cycle():
    with pytest.raises(AntisymmetryViolation) as exc:
        build_poset("bad", ["p", "q"], [("p", "q"), ("q", "p")])
    assert set(exc.value.cycle) == {"p", "q"}


def test_build_rejects_duplicates_and_unknowns():
    with pytest.raises(DuplicateElement):
        build_poset("bad", ["x", "x"], [])
    with pytest.raises(UnknownElement):
        build_poset("bad", ["x"], [("x", "y")])


def test_build_rejects_empty_and_oversize():
    with pytest.raises(SizeCap):
        build_poset("bad", [], [])
    with pytest.raises(SizeCap):
        build_poset("bad", [str(i) for i in range(17)], [])


def test_sections_and_segments(hexagon):
    assert hexagon.upper_section("a").members == ("a", "c", "d", "1")
    assert hexagon.segment("c", "d").members == ()
    assert hexagon.segment("a", "1").members == ("a", "c", "d", "1")
    assert hexagon.lower_section("c").members == ("0", "a", "b", "c")
    with pytest.raises(UnknownElement):
        hexagon.upper_section("zz")


def test_bounds(hexagon):
    assert hexagon.bounds(["c", "d", "1"], "lower").members == ("0", "a", "b")
    assert hexagon.bounds(["a", "b"], "upper").members == ("c", "d", "1")
    assert hexagon.bounds([], "upper").members == hexagon.elements
    assert hexagon.bounds([], "lower").members == hexagon.elements
    with pytest.raises(ValueError):
        hexagon.bounds(["a"], "sideways")


def test_disjoint_over(hexagon):
    # [a,c] n [a,d] = {a}
    assert hexagon.disjoint_over("c", "d", "a")
    # [0,c] n [0,d] contains a
    assert not hexagon.disjoint_over("c", "d", "0")
    # vacuous when the base is below neither argument
    assert hexagon.disjoint_over("0", "a", "c")


def test_meet_over(hexagon):
    assert hexagon.meet_over("c", "d", "b") == "b"
    assert hexagon.meet_over("c", "d", "0") is None
    assert hexagon.meet_over("c", "c", "c") == "c"


def test_meet_join_mlb(hexagon):
    assert hexagon.maximal_lower_bounds("c", "d").members == ("a", "b")
    assert hexagon.join("a", "b") is None
    assert hexagon.meet("c", "d") is None
    assert hexagon.meet("a", "c") == "a"
    assert hexagon.join("c", "d") == "1"
    chain = build_poset("c2", ["0", "1"], [("0", "1")])
    assert chain.meet("0", "1") == "0"
    assert chain.join("0", "1") == "1"


def test_mlb_meets_meet_over(hexagon):
    # z is a maximal lower bound of (x, y) exactly when the meet of x and y over z is z
    for x in hexagon.elements:
        for y in hexagon.elements:
            mlbs = set(hexagon.maximal_lower_bounds(x, y))
            for z in hexagon.elements:
                assert (z in mlbs) == (hexagon.meet_over(x, y, z) == z)


def test_classify_hexagon(hexagon):
    rep = hexagon.classify()
    assert not rep.is_lattice
    assert not rep.is_upper_semilattice
    assert rep.witnesses["is_upper_semilattice"] == ("a", "b")
    assert rep.is_up_directed
    assert rep.has_greatest
    assert rep.has_least
    assert rep.is_sectionally_bounded
    assert not rep.all_lower_sections_chains


def test_classify_two_disjoint_chains(twochains):
    rep = twochains.classify()
    assert not rep.is_up_directed
    assert rep.is_sectionally_bounded
    assert not rep.has_greatest
    assert rep.all_lower_sections_chains
    assert not rep.is_chain


def test_classify_chain(chain4):
    rep = chain4.classify()
    assert rep.is_chain
    assert rep.is_upper_semilattice
    assert rep.is_lower_semilattice
    assert rep.is_lattice
    assert rep.is_nearlattice
    assert rep.all_lower_sections_chains


def test_classify_invariants(hexagon, twochains, vee, chain4, diamond):
    for p in (hexagon, twochains, vee, chain4, diamond):
        rep = p.classify()
        assert rep.is_lattice == (rep.is_upper_semilattice and rep.is_lower_semilattice)
        if rep.is_upper_semilattice:
            assert rep.is_nearlattice


def test_frink_ideal(hexagon):
    assert hexagon.frink_ideal("c", "a").members == ("0", "a", "b", "c")
    assert hexagon.frink_ideal("a", "b").members == ("0", "a", "b")
    # sectioned pair reduces to the lower section of the larger element
    assert hexagon.frink_ideal("c", "0").members == hexagon.lower_section("c").members


def test_frink_no_upper_bound(twochains):
    assert twochains.frink_ideal("a", "c").members == twochains.elements


def test_frink_sandwich(hexagon):
    for x in hexagon.elements:
        for y in hexagon.elements:
            f = set(hexagon.frink_ideal(x, y))
            union = set(hexagon.lower_section(x)) | set(hexagon.lower_section(y))
            assert union <= f
            for z in hexagon.elements:
                if hexagon.leq(x, z) and hexagon.leq(y, z):
                    assert f <= set(hexagon.lower_section(z))


def test_round_trip_from_relation(hexagon):
    pairs = [(x, y) for x in hexagon.elements for y in hexagon.elements if hexagon.leq(x, y)]
    again = build_poset(hexagon.name, hexagon.elements, pairs)
    assert again == hexagon


def test_covers(hexagon):
    assert set(hexagon.covers()) == set(
        [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
         ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")])


def test_restrict(hexagon, diamond):
    sub = hexagon.restrict(["0", "c", "d", "1"], name="q")
    assert sub.elements == ("0", "c", "d", "1")
    assert sub == diamond


def test_restrict_to_nothing_is_refused(hexagon):
    # build_poset's range and wording: a 0-element poset has no classify() or emit()
    with pytest.raises(SizeCap, match=r"^poset 'hex\|sub' must have between 1 and 16 elements, got 0$"):
        hexagon.restrict([])
