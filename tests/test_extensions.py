import pytest

import tables_data as td
from conftest import rows_in_order
from spposet import (
    MissingWitness,
    PartialTable,
    TotalTable,
    build_poset,
    dual_j_extension,
    i_min_extension,
    i_natural_extension,
    lb_min_extension,
    m_extension,
    mlb_extension,
    natural_extension,
    natural_min_form,
    normal_extension,
    pure_extension,
    selection_custom,
    selection_frink,
    selection_union,
    star_table,
)
from spposet.enumeration import enumerate_posets
from spposet.errors import (
    InternalDisagreement,
    NotMeetSemilattice,
    NotSectionallyBounded,
    SelectionAxiomViolation,
)


def total_from(p, d):
    return TotalTable.from_ids(p, rows_in_order(d, p.elements))


def all_sp_posets(max_n):
    for n in range(1, max_n + 1):
        for p in enumerate_posets(n):
            st = star_table(p)
            if not isinstance(st, MissingWitness):
                yield p, st


def test_pure_extension_hexagon(hexagon, hexagon_star):
    assert pure_extension(hexagon_star) == total_from(hexagon, td.HEXAGON_PURE)


def test_pure_extension_twochains(twochains):
    t = pure_extension(star_table(twochains))
    assert t.value("a", "c") == "c"
    assert t.value("c", "a") == "a"
    assert t.value("a", "b") == "b"  # a < b gives the section top of a


def test_pure_requires_sectionally_bounded(vee):
    st = PartialTable.from_ids(vee, [["0", None, None], ["a", "a", None], ["b", None, "b"]])
    with pytest.raises(NotSectionallyBounded):
        pure_extension(st)


def test_natural_extension_hexagon(hexagon, hexagon_star):
    nat = natural_extension(hexagon_star)
    assert nat.value("c", "d") == "1"
    assert nat.value("d", "c") == "1"
    assert nat.value("a", "b") == "1"
    for x in hexagon.elements:
        for y in hexagon.elements:
            if hexagon.leq(y, x):
                assert nat.value(x, y) == hexagon_star.value(x, y)


def test_natural_extension_is_arrow1(twochains):
    nat = natural_extension(star_table(twochains))
    assert nat == total_from(twochains, td.TWOCHAINS_ARROW1)


def test_natural_min_form_agrees(hexagon, twochains, chains5, diamond, hexagon_star):
    for p in (hexagon, twochains, chains5, diamond):
        st = star_table(p)
        assert natural_min_form(st) == natural_extension(st)


def test_natural_min_form_rejects_corrupt_table():
    # a diagonal cell that is not the section top makes the min and max forms split
    chain = build_poset("c2", ["0", "1"], [("0", "1")])
    bad = PartialTable.from_ids(chain, [["1", None], ["0", "0"]])
    with pytest.raises(InternalDisagreement):
        natural_min_form(bad)


def test_normal_extension_hexagon(hexagon, hexagon_star):
    res = normal_extension(hexagon_star)
    assert not res.is_total
    assert [(u.x, u.y, u.candidates) for u in res.undefined] == [
        ("a", "b", ("c", "d")),
        ("b", "a", ("c", "d")),
    ]
    assert all(u.reason == "no-greatest-value" for u in res.undefined)


def test_normal_extension_chain(chain4):
    res = normal_extension(star_table(chain4))
    assert res.is_total
    t = res.table
    for x in chain4.elements:
        for y in chain4.elements:
            if chain4.leq(y, x) and x != y:
                assert t.value(x, y) == y
            else:
                assert t.value(x, y) == "1"


def test_normal_extension_not_up_directed(twochains):
    res = normal_extension(star_table(twochains))
    reasons = {(u.x, u.y): u.reason for u in res.undefined}
    assert reasons[("a", "c")] == "no-common-upper-bound"


def test_normal_equals_join_form_on_upper_semilattices():
    for p, st in all_sp_posets(5):
        if not p.classify().is_upper_semilattice:
            continue
        t = normal_extension(st).table
        assert t is not None
        for x in p.elements:
            for y in p.elements:
                assert t.value(x, y) == st.value(p.join(x, y), y)


def test_selection_union_frink(hexagon):
    union = selection_union(hexagon)
    frink = selection_frink(hexagon)
    assert union.choose("a", "b").members == ("0", "a", "b")
    assert frink.choose("a", "b").members == ("0", "a", "b")
    assert frink.choose("c", "d").members == hexagon.elements  # L({1}) is everything
    assert union.choose("c", "0").members == hexagon.lower_section("c").members
    assert frink.choose("c", "0").members == hexagon.lower_section("c").members


def test_selection_custom_validation(hexagon):
    # a custom selection between union and Frink
    table = {("a", "b"): ["0", "a", "b"], ("c", "d"): ["0", "a", "b", "c", "d"],
             ("a", "d"): ["0", "a", "b", "d"], ("b", "c"): ["0", "a", "b", "c"],
             ("a", "c"): ["0", "a", "b", "c"], ("b", "d"): ["0", "a", "b", "d"]}
    sel = selection_custom(hexagon, table)
    assert sel.choose("d", "a").members == ("0", "a", "b", "d")

    with pytest.raises(SelectionAxiomViolation):
        selection_custom(hexagon, {**table, ("a", "b"): ["0", "a"]})  # violates I0
    with pytest.raises(SelectionAxiomViolation):
        selection_custom(hexagon, {**table, ("a", "b"): ["a", "b"]})  # not a down-set
    with pytest.raises(SelectionAxiomViolation):
        # missing incomparable pair
        selection_custom(hexagon, {("a", "b"): ["0", "a", "b"]})
    with pytest.raises(SelectionAxiomViolation):
        # grows under union but shrinks under a larger first argument: violates I3
        selection_custom(hexagon, {**table, ("c", "d"): ["0", "a", "c", "d"]})


def test_i_natural_frink_hexagon(hexagon):
    res = i_natural_extension(hexagon, selection_frink(hexagon))
    assert res.is_total
    assert res.table == total_from(hexagon, td.HEXAGON_FNAT)
    assert res.table.value("a", "b") == "1"
    assert res.table.value("c", "d") == "d"


def test_i_natural_union_is_natural(hexagon):
    for p, st in all_sp_posets(4):
        res = i_natural_extension(p, selection_union(p))
        assert res.is_total
        assert res.table == natural_extension(st)


def test_i_min_extension(hexagon, hexagon_star):
    frink = selection_frink(hexagon)
    res = i_min_extension(hexagon_star, frink)
    assert res.is_total
    assert res.table.value("a", "b") == "1"
    # the union selection reproduces the natural extension
    res_u = i_min_extension(hexagon_star, selection_union(hexagon))
    assert res_u.table == natural_extension(hexagon_star)


def test_i_min_union_is_natural_everywhere():
    for p, st in all_sp_posets(4):
        res = i_min_extension(st, selection_union(p))
        assert res.is_total
        assert res.table == natural_extension(st)


def test_dual_j_extension(hexagon, hexagon_star):
    res = dual_j_extension(hexagon_star)
    assert res == i_min_extension(hexagon_star, selection_frink(hexagon))
    assert res.table.value("a", "b") == "1"


def test_dual_j_reduces_to_join_form():
    for p, st in all_sp_posets(4):
        if not p.classify().is_upper_semilattice:
            continue
        res = dual_j_extension(st)
        assert res.is_total
        for x in p.elements:
            for y in p.elements:
                assert res.table.value(x, y) == st.value(p.join(x, y), y)


def test_m_extension_chain(chain4):
    t = m_extension(star_table(chain4))
    assert t.value("b", "a") == "a"
    assert t.value("a", "b") == "1"  # x <= y gives x * x
    assert t.value("0", "1") == "1"


def test_m_extension_requires_meets(hexagon, hexagon_star, twochains):
    with pytest.raises(NotMeetSemilattice, match=r"no meet for \(c, d\)"):
        m_extension(hexagon_star)
    # the first pair without a meet in row-major order, where row a lacks two
    with pytest.raises(NotMeetSemilattice, match=r"no meet for \(a, c\)"):
        m_extension(star_table(twochains))


def test_m_extension_agrees_with_greatest_form():
    # the cross-check inside m_extension already compares both forms; run it
    # over every meet semilattice that is sectionally pseudocomplemented
    for p, st in all_sp_posets(5):
        if p.classify().is_lower_semilattice:
            m_extension(st)


def test_mlb_extension_hexagon(hexagon, hexagon_star):
    res = mlb_extension(hexagon)
    assert res.is_total
    assert res.table.value("a", "b") == "b"
    # the literal same-bound-set rule does not extend the star table here:
    # at (c, a) the sectional pseudocomplement d has bound set {a, b}, not {a}
    assert res.table.value("c", "a") == "a"
    assert hexagon_star.value("c", "a") == "d"


def test_mlb_extension_extends_star_on_semilattices():
    for p, st in all_sp_posets(5):
        if not p.classify().is_lower_semilattice:
            continue
        res = mlb_extension(p)
        if not res.is_total:
            continue
        for x in p.elements:
            for y in p.elements:
                if p.leq(y, x):
                    assert res.table.value(x, y) == st.value(x, y)


def test_mlb_matches_m_extension_on_chains(chain4):
    assert mlb_extension(chain4).table == m_extension(star_table(chain4))


def test_lb_min_extension_chain(chain4):
    res = lb_min_extension(star_table(chain4))
    assert res.is_total
    # the star operation is not antitone in its second argument even on a
    # chain (b*0 = 0 < a = b*a), so this rule need not extend the star table
    assert res.table.value("0", "1") == "1"
    assert res.table.value("b", "a") == "0"
    assert res.table.value("1", "1") == "0"
    assert star_table(chain4).value("1", "1") == "1"


def test_lb_min_extension_reports_missing_bounds(twochains):
    res = lb_min_extension(star_table(twochains))
    assert not res.is_total
    assert ("a", "c") in {(u.x, u.y) for u in res.undefined}


def test_extension_property_all_rules():
    # every constructed total table restricts to the star table
    for p, st in all_sp_posets(4):
        tables = [pure_extension(st), natural_extension(st), natural_min_form(st)]
        for res in (normal_extension(st),
                    i_natural_extension(p, selection_union(p)),
                    i_natural_extension(p, selection_frink(p)),
                    i_min_extension(st, selection_union(p)),
                    i_min_extension(st, selection_frink(p)),
                    dual_j_extension(st)):
            if res.is_total:
                tables.append(res.table)
        if p.classify().is_lower_semilattice:
            tables.append(m_extension(st))
        for t in tables:
            for x in p.elements:
                for y in p.elements:
                    if p.leq(y, x):
                        assert t.value(x, y) == st.value(x, y)


def test_selection_monotonicity_pointwise():
    from spposet.extensions import i_natural_cell

    for p, st in all_sp_posets(4):
        union = selection_union(p)
        frink = selection_frink(p)
        for x in range(p.n):
            for y in range(p.n):
                vu = i_natural_cell(p, union, x, y)
                vf = i_natural_cell(p, frink, x, y)
                if vu is not None and vf is not None:
                    assert p.leq_ix(vf, vu)
