import random

import pytest

import tables_data as td
from conftest import corpus_posets, rows_in_order
from spposet import (
    ExtensionResult,
    MissingWitness,
    PartialTable,
    TotalTable,
    build_poset,
    check_system,
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
from spposet.axioms import verify_lemma_suite
from spposet.enumeration import enumerate_extensions, enumerate_posets, system_column_solutions
from spposet.errors import (
    InternalDisagreement,
    NotMeetSemilattice,
    NotSectionallyBounded,
    SelectionAxiomViolation,
    StructureMismatch,
)
from spposet.extensions import (
    UndefinedPair,
    _extremum_table,
    i_natural_cell,
    i_natural_defining_mask,
    natural_min_cells,
)
from spposet.poset import bits
from spposet.pseudo import clp_value_ix, complement_table, rp_value_ix, sp_value_ix, wrp_value_ix


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


def _chain(n):
    els = [str(i) for i in range(n)]
    return build_poset(f"chain{n}", els, list(zip(els, els[1:])))


# every public entry that takes a local selection, called on the 3-chain
SELECTION_ENTRIES = {
    "check_system": lambda p, st, t, sel: check_system(p, t, "NATI", sel=sel),
    "system_column_solutions": lambda p, st, t, sel: system_column_solutions(p, "NATI", sel=sel),
    "system_column_solutions NRMW": lambda p, st, t, sel: system_column_solutions(p, "NRMW", sel=sel),
    "enumerate_extensions": lambda p, st, t, sel: next(enumerate_extensions(st, "NATI", sel=sel)),
    "i_natural_extension": lambda p, st, t, sel: i_natural_extension(p, sel),
    "i_min_extension": lambda p, st, t, sel: i_min_extension(st, sel),
    "verify_lemma_suite Inat-prop": lambda p, st, t, sel: verify_lemma_suite(p, t, "Inat-prop", sel=sel),
    "verify_lemma_suite simplI": lambda p, st, t, sel: verify_lemma_suite(p, t, "simplI", sel=sel),
}


@pytest.mark.parametrize("entry", SELECTION_ENTRIES)
@pytest.mark.parametrize("other", ["smaller", "same size"])
def test_selection_over_another_poset_is_rejected(entry, other):
    # unchecked, a smaller poset's selection indexes past its rows, and a
    # same-size one answers for the wrong order (a total i-natural table here)
    p = _chain(3)
    st = star_table(p)
    foreign = _chain(2) if other == "smaller" else build_poset("antichain3", ["0", "1", "2"], [])
    call = SELECTION_ENTRIES[entry]
    call(p, st, natural_extension(st), selection_union(p))  # the poset's own selection is fine
    with pytest.raises(StructureMismatch, match="selection is over poset"):
        call(p, st, natural_extension(st), selection_union(foreign))


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
    for p, st in all_sp_posets(4):
        union = selection_union(p)
        frink = selection_frink(p)
        for x in range(p.n):
            for y in range(p.n):
                vu = i_natural_cell(p, union, x, y)
                vf = i_natural_cell(p, frink, x, y)
                if vu is not None and vf is not None:
                    assert p.leq_ix(vf, vu)


# -- each rule against its per-cell oracle ---------------------------------------
#
# The oracles are the rules' own per-cell loops from before every rule became a
# table of candidate masks read by one builder: per pair, the candidates, their
# greatest or least element, or an UndefinedPair with the maximal or minimal
# candidates and the rule's reason.  A rule must return exactly the oracle's
# cells, undefined pairs, candidates, reasons and order.


def _oracle_result(p, cells, undef):
    if undef:
        return ExtensionResult(None, tuple(undef))
    return ExtensionResult(TotalTable(p, cells), ())


def _oracle_normal(s):
    p = s.owner
    n = p.n
    els = p.elements
    cells = [[0] * n for _ in range(n)]
    undef = []
    for x in range(n):
        for y in range(n):
            zmask = p.ups[x] & p.ups[y]
            if zmask == 0:
                undef.append(UndefinedPair(els[x], els[y], (), "no-common-upper-bound"))
                continue
            vals = 0
            for z in bits(zmask):
                vals |= 1 << s.cells[z][y]
            g = p.greatest_of(vals)
            if g is None:
                anti = tuple(els[u] for u in bits(p.maximal_of(vals)))
                undef.append(UndefinedPair(els[x], els[y], anti, "no-greatest-value"))
            else:
                cells[x][y] = g
    return _oracle_result(p, cells, undef)


def _oracle_i_natural_mask(p, sel, x, y):
    im = sel.mask_ix(x, y) & p.ups[y]
    by = 1 << y
    m = 0
    for u in range(p.n):
        if p.downs[u] & im == by:
            m |= 1 << u
    return m


def _oracle_i_natural(p, sel):
    n = p.n
    els = p.elements
    cells = [[0] * n for _ in range(n)]
    undef = []
    for x in range(n):
        for y in range(n):
            m = _oracle_i_natural_mask(p, sel, x, y)
            g = p.greatest_of(m)
            if g is None:
                assert m, "a defining set always holds y"
                anti = tuple(els[u] for u in bits(p.maximal_of(m)))
                undef.append(UndefinedPair(els[x], els[y], anti, "no-greatest-value"))
            else:
                cells[x][y] = g
    return _oracle_result(p, cells, undef)


def _oracle_i_min(s, sel):
    p = s.owner
    n = p.n
    els = p.elements
    cells = [[0] * n for _ in range(n)]
    undef = []
    for x in range(n):
        for y in range(n):
            zmask = sel.mask_ix(x, y) & p.ups[y]
            vals = 0
            for z in bits(zmask):
                vals |= 1 << s.cells[z][y]
            v = p.least_of(vals)
            if v is None:
                anti = tuple(els[u] for u in bits(p.minimal_of(vals)))
                undef.append(UndefinedPair(els[x], els[y], anti, "no-least-value"))
            else:
                cells[x][y] = v
    return _oracle_result(p, cells, undef)


def _oracle_dual_j(s):
    p = s.owner
    n = p.n
    els = p.elements
    cells = [[0] * n for _ in range(n)]
    undef = []
    for x in range(n):
        for y in range(n):
            ub = p.ups[x] & p.ups[y]
            vals = 0
            for z in range(n):
                if ub & ~p.ups[z] == 0 and p.ups[z] & ~p.ups[y] == 0:
                    vals |= 1 << s.cells[z][y]
            v = p.least_of(vals)
            if v is None:
                anti = tuple(els[u] for u in bits(p.minimal_of(vals)))
                undef.append(UndefinedPair(els[x], els[y], anti, "no-least-value"))
            else:
                cells[x][y] = v
    return _oracle_result(p, cells, undef)


def _oracle_mlb(p):
    n = p.n
    els = p.elements
    mlbs = p.mlbs
    cells = [[0] * n for _ in range(n)]
    undef = []
    for x in range(n):
        for y in range(n):
            target = mlbs[x][y]
            m = 0
            for u in range(n):
                if mlbs[u][x] == target:
                    m |= 1 << u
            g = p.greatest_of(m)
            if g is None:
                assert m, "a defining set always holds y"
                anti = tuple(els[u] for u in bits(p.maximal_of(m)))
                undef.append(UndefinedPair(els[x], els[y], anti, "no-greatest-value"))
            else:
                cells[x][y] = g
    return _oracle_result(p, cells, undef)


def _oracle_lb_min(s):
    p = s.owner
    n = p.n
    els = p.elements
    cells = [[0] * n for _ in range(n)]
    undef = []
    for x in range(n):
        for y in range(n):
            zmask = p.downs[x] & p.downs[y]
            if zmask == 0:
                undef.append(UndefinedPair(els[x], els[y], (), "no-common-lower-bound"))
                continue
            vals = 0
            for z in bits(zmask):
                vals |= 1 << s.cells[x][z]
            v = p.least_of(vals)
            if v is None:
                anti = tuple(els[u] for u in bits(p.minimal_of(vals)))
                undef.append(UndefinedPair(els[x], els[y], anti, "no-least-value"))
            else:
                cells[x][y] = v
    return _oracle_result(p, cells, undef)


def _oracle_min_of_values(p, s, zmask, y):
    vals = 0
    for z in bits(zmask):
        vals |= 1 << s.cells[z][y]
    return p.least_of(vals)


def _oracle_natural_min_cells(s):
    p = s.owner
    n = p.n
    first, second = [[None] * n for _ in range(n)], [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            first[x][y] = _oracle_min_of_values(p, s, (p.ups[y] & p.downs[x]) | (1 << y), y)
            second[x][y] = _oracle_min_of_values(p, s, (p.downs[x] | p.downs[y]) & p.ups[y], y)
    return first, second


def _random_poset(rng, n, density):
    """The transitive closure of a random DAG on 0 < 1 < ... < n-1."""
    up = [0] * n
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < density:
                up[i] |= 1 << j | up[j]
    els = [str(i) for i in range(n)]
    return build_poset(f"R{n}", els, [(els[i], els[j]) for i in range(n) for j in bits(up[i])])


def _frink_min_gap():
    """The one 7-element class, and none smaller, where the Frink-selection min
    rule (and so the dual rule) has no least value: at (1, 0), between 2 and 3."""
    covers = [("0", "2"), ("0", "3"), ("1", "4"), ("1", "5"), ("2", "4"), ("2", "5"),
              ("3", "4"), ("3", "5"), ("4", "6"), ("5", "6")]
    return build_poset("frink-gap", [str(i) for i in range(7)], covers)


@pytest.fixture(scope="module")
def oracle_posets():
    """All labeled posets with n <= 4, the corpus, the Frink min gap, and 60
    seeded random posets with 8 to 16 elements (about a third of them
    sectionally pseudocomplemented)."""
    rng = random.Random(1010)
    return ([p for n in range(1, 5) for p in enumerate_posets(n)] + list(corpus_posets())
            + [_frink_min_gap()]
            + [_random_poset(rng, rng.randrange(8, 17), rng.choice((0.1, 0.3, 0.7))) for _ in range(60)])


def test_rules_equal_their_per_cell_oracles(oracle_posets):
    reasons = set()
    for p in oracle_posets:
        sels = {"union": selection_union(p), "frink": selection_frink(p)}
        pairs = {"mlb": (mlb_extension(p), _oracle_mlb(p))}
        for name, sel in sels.items():
            pairs[f"i-natural {name}"] = (i_natural_extension(p, sel), _oracle_i_natural(p, sel))
            assert [[i_natural_cell(p, sel, x, y) for y in range(p.n)] for x in range(p.n)] == [
                [p.greatest_of(_oracle_i_natural_mask(p, sel, x, y)) for y in range(p.n)]
                for x in range(p.n)], (p.name, name)
        st = star_table(p)
        if isinstance(st, PartialTable):
            pairs["normal"] = (normal_extension(st), _oracle_normal(st))
            pairs["dual-j"] = (dual_j_extension(st), _oracle_dual_j(st))
            pairs["lb-min"] = (lb_min_extension(st), _oracle_lb_min(st))
            for name, sel in sels.items():
                pairs[f"i-min {name}"] = (i_min_extension(st, sel), _oracle_i_min(st, sel))
            assert natural_min_cells(st) == _oracle_natural_min_cells(st), p.name
        for rule, (got, want) in pairs.items():
            assert got == want, (p.name, rule)
            reasons.update((rule.split()[0], u.reason) for u in got.undefined)
    # the pairs exercise every reason a nonempty or empty candidate set can give
    assert reasons >= {("normal", "no-common-upper-bound"), ("normal", "no-greatest-value"),
                       ("lb-min", "no-common-lower-bound"), ("lb-min", "no-least-value"),
                       ("i-min", "no-least-value"), ("dual-j", "no-least-value"),
                       ("i-natural", "no-greatest-value"), ("mlb", "no-greatest-value")}


def _complement_oracles(p):
    """kind -> the defining set of a pair, from the definitions in the pseudo
    module read through leq alone."""
    r = range(p.n)
    le = [[p.leq_ix(i, j) for j in r] for i in r]
    below = [frozenset(v for v in r if le[v][u]) for u in r]

    def clp(x, y):
        upper = [z for z in r if le[x][z] and le[y][z]]
        lower = {v for v in r if all(le[v][z] for z in upper)}
        return [u for u in r if lower & below[u] == below[y]]

    return le, {
        "sp": lambda x, y: [u for u in r if {w for w in below[u] if le[y][w] and le[w][x]} == {y}],
        "rp": lambda x, y: [u for u in r if below[u] & below[x] <= below[y]],
        "wrp": lambda x, y: [u for u in r if below[u] & below[x] == below[y]],
        "clp": clp,
    }


def _expected_complement_table(p, kind, value_ix, defining, le):
    els, r = p.elements, range(p.n)
    sectional = kind in ("sp", "wrp")
    cells = [[None] * p.n for _ in r]
    for x in r:
        for y in r:
            if sectional and not le[y][x]:
                continue
            members = defining(x, y)
            greatest = next((u for u in members if all(le[v][u] for v in members)), None)
            assert value_ix(p, x, y) == greatest, (p.name, kind, x, y)
            if greatest is None:
                maximal = [u for u in members if not any(v != u and le[u][v] for v in members)]
                return MissingWitness(els[x], els[y], tuple(els[u] for u in maximal))
            cells[x][y] = greatest
    return PartialTable(p, cells) if sectional else TotalTable(p, cells)


def test_complement_tables_equal_their_value_functions(oracle_posets):
    value_ix = {"sp": sp_value_ix, "rp": rp_value_ix, "wrp": wrp_value_ix, "clp": clp_value_ix}
    missing = set()
    for p in oracle_posets:
        le, defining = _complement_oracles(p)
        for kind in value_ix:
            got = complement_table(p, kind)
            assert got == _expected_complement_table(p, kind, value_ix[kind], defining[kind], le), (
                p.name, kind)
            if isinstance(got, MissingWitness):
                missing.add(kind)
        assert star_table(p) == complement_table(p, "sp")
    assert missing == set(value_ix)


# -- rules without an empty-candidate reason ------------------------------------------


def test_i_natural_and_mlb_candidates_are_never_empty():
    # y is in the selection-natural defining set of (x, y), since I(x, y) holds
    # y, and u = y gives the pair (u, x) the bound set of (x, y): neither rule
    # has an empty candidate mask, so neither has an empty-candidate reason
    posets = [p for n in range(1, 6) for p in enumerate_posets(n)] + list(corpus_posets())
    for p in posets:
        mlbs = p.mlbs
        for sel in (selection_union(p), selection_frink(p)):
            for x in range(p.n):
                for y in range(p.n):
                    assert i_natural_defining_mask(p, sel, x, y) >> y & 1, (p.name, sel.kind, x, y)
            i_natural_extension(p, sel)
        for x in range(p.n):
            for y in range(p.n):
                assert mlbs[y][x] == mlbs[x][y], (p.name, x, y)
        mlb_extension(p)


def test_empty_candidates_without_a_reason_are_an_internal_disagreement():
    chain = build_poset("c2", ["0", "1"], [("0", "1")])
    with pytest.raises(InternalDisagreement, match=r"no candidate at \(0, 1\)"):
        _extremum_table(chain, [[1, 0], [3, 3]], True)
    result = _extremum_table(chain, [[1, 0], [3, 3]], True, "no-common-upper-bound")
    assert result.undefined == (UndefinedPair("0", "1", (), "no-common-upper-bound"),)
