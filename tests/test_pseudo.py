import pytest

import tables_data as td
from conftest import corpus_posets, rows_in_order
from spposet import (
    MissingWitness,
    PartialTable,
    TotalTable,
    build_poset,
    clp_complement,
    restrict,
    rp_complement,
    section_top,
    sp_complement,
    star_table,
    verify_sp_properties,
    wrp_complement,
)
from spposet.axioms import lemma_items, verify_lemma_suite
from spposet.enumeration import enumerate_posets
from spposet.errors import NotInSection
from spposet.poset import bits
from spposet.pseudo import PropertyReport, _total_table, complement_table


def test_sp_complement_hexagon(hexagon):
    assert sp_complement(hexagon, "c", "a") == "d"
    assert sp_complement(hexagon, "a", "0") == "b"
    assert sp_complement(hexagon, "a", "a") == "1"
    with pytest.raises(NotInSection):
        sp_complement(hexagon, "a", "b")


def test_sp_complement_diamond(diamond):
    # four-element diamond: the complement of one atom over the bottom is the other
    assert sp_complement(diamond, "c", "0") == "d"
    assert isinstance(star_table(diamond), PartialTable)


def test_star_table_hexagon(hexagon, hexagon_star):
    st = star_table(hexagon)
    assert isinstance(st, PartialTable)
    assert st == hexagon_star


def test_star_table_diamond(diamond):
    st = star_table(diamond)
    expect = PartialTable.from_ids(diamond, rows_in_order(td.Q_STAR, diamond.elements))
    assert st == expect


def test_star_table_missing_witness(vee):
    # [0) has two maximal elements, so 0*0 has no greatest candidate
    mw = star_table(vee)
    assert isinstance(mw, MissingWitness)
    assert (mw.x, mw.y) == ("0", "0")
    assert mw.candidates == ("a", "b")


def escaping_values(t):
    """The sectioned pairs (x, y) of the partial table t whose value leaves the section [y)."""
    p = t.owner
    return [(x, y) for x in range(p.n) for y in bits(p.downs[x]) if not p.leq_ix(y, t.cells[x][y])]


def test_star_tables_are_sectional(hexagon, diamond, twochains, chains5):
    for p in (hexagon, diamond, twochains, chains5):
        assert escaping_values(star_table(p)) == []
    chain = build_poset("c2", ["0", "1"], [("0", "1")])
    # 1 -> 1 = 0 leaves the section [1)
    assert escaping_values(PartialTable.from_ids(chain, [["0", None], ["0", "0"]])) == [(1, 1)]


def test_section_top(hexagon, twochains):
    assert section_top(hexagon, "a") == "1"
    assert section_top(twochains, "a") == "b"
    assert section_top(twochains, "b") == "b"
    assert section_top(hexagon, "1") == "1"


def test_section_top_missing(vee):
    assert section_top(vee, "0") is None


def test_rp_complement_hexagon(hexagon):
    assert rp_complement(hexagon, "c", "a") == "a"
    for x in hexagon.elements:
        for y in hexagon.elements:
            assert rp_complement(hexagon, x, y) == td.HEXAGON_RP[x][hexagon.index(y)]


def test_rp_complement_absent(vee):
    # x -> x needs a greatest element
    assert rp_complement(vee, "0", "0") is None


def test_wrp_complement_hexagon(hexagon):
    assert wrp_complement(hexagon, "c", "a") == "a"
    assert sp_complement(hexagon, "c", "a") == "d"
    # the rp restriction is a wrp-complementation on every sectioned pair
    for x in hexagon.elements:
        for y in hexagon.elements:
            if hexagon.leq(y, x):
                assert wrp_complement(hexagon, x, y) == td.HEXAGON_RP[x][hexagon.index(y)]


def test_clp_equals_rp_on_hexagon(hexagon):
    for x in hexagon.elements:
        for y in hexagon.elements:
            assert clp_complement(hexagon, x, y) == rp_complement(hexagon, x, y)


def test_restrict_total_table(hexagon, hexagon_star):
    pure = TotalTable.from_ids(hexagon, rows_in_order(td.HEXAGON_PURE, hexagon.elements))
    assert restrict(pure) == hexagon_star
    rp = TotalTable.from_ids(hexagon, rows_in_order(td.HEXAGON_RP, hexagon.elements))
    rp_star = PartialTable.from_ids(hexagon, rows_in_order(td.HEXAGON_RP_STAR, hexagon.elements))
    assert restrict(rp) == rp_star
    assert restrict(rp) != hexagon_star


def test_restrict_identity_on_chain(chain4):
    st = star_table(chain4)
    total = TotalTable(chain4, [
        [st.cells[x][y] if chain4.leq_ix(y, x) else 0 for y in range(4)] for x in range(4)])
    assert restrict(total).cells == st.cells


def test_partial_table_domain_validation(hexagon):
    rows = rows_in_order(td.HEXAGON_STAR, hexagon.elements)
    bad = [list(r) for r in rows]
    bad[0][1] = "1"  # (0, a) is outside the domain
    with pytest.raises(ValueError):
        PartialTable.from_ids(hexagon, bad)
    bad = [list(r) for r in rows]
    bad[5][0] = None
    with pytest.raises(ValueError):
        PartialTable.from_ids(hexagon, bad)


def test_sp_properties_pass_on_hexagon(hexagon, hexagon_star):
    report = verify_sp_properties(hexagon, hexagon_star)
    assert report.passed
    assert [r.item for r in report.items] == list("abcdefghijklm")


def test_sp_properties_fail_on_rp_restriction(hexagon, hexagon_rp):
    report = verify_sp_properties(hexagon, restrict(hexagon_rp))
    assert not report.passed
    failed = {r.item: r.witness for r in report.failed_items()}
    assert "m" in failed
    assert failed["m"] == ("c", "d", "a")


def test_sp_properties_vacuous_on_singleton():
    p = build_poset("one", ["x"], [])
    report = verify_sp_properties(p, star_table(p))
    assert report.passed


def test_sp_prop_suite_reports_the_law_items():
    # the star table of every class with n <= 6 and of every corpus poset,
    # and the restriction of each of their total rp tables
    posets = [*(p for n in range(1, 7) for p in enumerate_posets(n, "up-to-iso")), *corpus_posets()]
    tables = [star_table(p) for p in posets]
    tables += [restrict(t) for t in (complement_table(p, "rp") for p in posets) if isinstance(t, TotalTable)]
    tables = [t for t in tables if isinstance(t, PartialTable)]
    failing = 0
    for t in tables:
        want = PropertyReport("sp-prop", lemma_items(t.owner, t, "sp-prop"))
        assert verify_lemma_suite(t.owner, t, "sp-prop") == want, t.owner.name
        assert verify_sp_properties(t.owner, t) == want, t.owner.name
        failing += not want.passed
    assert failing > 0


def _sp_clauses(p, xi, yi, v):
    # the three published characterizations of the value v at a sectioned pair
    by = 1 << yi

    def meets_at_base(u):
        return p.ups[yi] & p.downs[u] & p.downs[xi] == by

    eq_form = meets_at_base(v) and all(
        p.leq_ix(u, v) for u in range(p.n) if meets_at_base(u))
    lt_form = p.leq_ix(yi, xi) and all(
        p.leq_ix(u, v) == p.disjoint_over_ix(u, xi, yi)
        for u in range(p.n) if p.leq_ix(yi, u))
    in_form = p.leq_ix(yi, xi) and all(
        (p.leq_ix(yi, u) and p.leq_ix(u, v)) == meets_at_base(u)
        for u in range(p.n))
    return eq_form, lt_form, in_form


@pytest.mark.parametrize("n", range(1, 6))
def test_characterization_equivalence(n):
    # the defining equation, its section-wise order form, and its interval form
    # agree on every candidate value of every sectioned pair
    for p in enumerate_posets(n):
        for xi in range(p.n):
            for yi in bits(p.downs[xi]):
                for v in range(p.n):
                    a, b, c = _sp_clauses(p, xi, yi, v)
                    assert a == b == c


@pytest.mark.parametrize("n", range(1, 6))
def test_sp_agrees_with_set_form(n):
    # x*y = max{u : (u] n (x] n [y) = {y}}
    for p in enumerate_posets(n):
        st = star_table(p)
        if isinstance(st, MissingWitness):
            continue
        for xi in range(p.n):
            for yi in bits(p.downs[xi]):
                by = 1 << yi
                m = 0
                for u in range(p.n):
                    if p.downs[u] & p.downs[xi] & p.ups[yi] == by:
                        m |= 1 << u
                assert p.greatest_of(m) == st.cells[xi][yi]


@pytest.mark.parametrize("n", range(1, 6))
def test_sp_poset_structure_consequences(n):
    # in a sectionally pseudocomplemented poset, distinct maximal elements have
    # no common lower bound, and a greatest element exists iff it is up-directed
    for p in enumerate_posets(n):
        if isinstance(star_table(p), MissingWitness):
            continue
        rep = p.classify()
        maxima = [i for i in range(p.n) if p.ups[i] == 1 << i]
        for i in maxima:
            for j in maxima:
                if i != j:
                    assert p.downs[i] & p.downs[j] == 0
        assert rep.has_greatest == rep.is_up_directed


def test_sp_equals_wrp_on_meet_semilattices():
    # on lower semilattices the two sectional notions coincide where defined
    for n in range(1, 6):
        for p in enumerate_posets(n):
            if not p.classify().is_lower_semilattice:
                continue
            st = star_table(p)
            if isinstance(st, MissingWitness):
                continue
            for x in p.elements:
                for y in p.elements:
                    if p.leq(y, x):
                        assert wrp_complement(p, x, y) == st.value(x, y)


def test_the_hunts_total_table_is_complement_table_without_the_witness():
    # the rp and clp hunts read _total_table, which builds no MissingWitness:
    # it is complement_table where that is total and None where it is not
    seen = set()
    for n in range(1, 5):
        for p in enumerate_posets(n):
            for kind in ("rp", "clp"):
                full = complement_table(p, kind)
                fast = _total_table(p, kind)
                if isinstance(full, MissingWitness):
                    assert fast is None, (p.name, kind)
                else:
                    assert isinstance(full, TotalTable) and fast == full, (p.name, kind)
                    assert type(fast.cells) is tuple and all(type(row) is tuple for row in fast.cells)
                seen.add((kind, fast is None))
    assert seen == {("rp", True), ("rp", False), ("clp", True), ("clp", False)}
