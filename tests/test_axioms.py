import importlib.resources
import itertools

import pytest

import tables_data as td
from conftest import rows_in_order
from spposet import (
    MissingWitness,
    TotalTable,
    build_poset,
    check_system,
    i_natural_extension,
    implicativity,
    is_esp,
    is_normal,
    is_strong,
    natural_extension,
    normal_extension,
    parse_path,
    pure_extension,
    restrict,
    selection_frink,
    selection_union,
    star_table,
    subalgebra_closed,
    verify_lemma_suite,
    verify_sp_properties,
)
from spposet.enumeration import enumerate_posets, probe_sinat_variants, system_column_solutions
from spposet.errors import MissingSelection, SpposetError, StructureMismatch, UnknownOption


def total_from(p, d):
    return TotalTable.from_ids(p, rows_in_order(d, p.elements))


def sp_posets(max_n):
    for n in range(1, max_n + 1):
        for p in enumerate_posets(n):
            st = star_table(p)
            if not isinstance(st, MissingWitness):
                yield p, st


# -- check_system ----------------------------------------------------------------


def test_rp_table_fails_esp_holds_j(hexagon, hexagon_rp):
    assert not check_system(hexagon, hexagon_rp, "ESP").holds
    assert check_system(hexagon, hexagon_rp, "J").holds


def test_rp_star_fails_sp(hexagon, hexagon_rp):
    rep = check_system(hexagon, restrict(hexagon_rp), "SP")
    assert not rep.holds
    violated = dict(rep.violations)
    assert "sp3" in violated
    assert violated["sp3"] == ("c", "d", "a")


def test_star_table_satisfies_sp(hexagon, hexagon_star):
    assert check_system(hexagon, hexagon_star, "SP").holds


def test_natural_satisfies_nat(hexagon, hexagon_star):
    nat = natural_extension(hexagon_star)
    assert check_system(hexagon, nat, "NAT").holds
    # the pure extension is not natural: c -> d is d rather than the section top
    assert not check_system(hexagon, pure_extension(hexagon_star), "NAT").holds


def test_nati_requires_selection(hexagon, hexagon_star):
    nat = natural_extension(hexagon_star)
    with pytest.raises(MissingSelection):
        check_system(hexagon, nat, "NATI")
    assert check_system(hexagon, nat, "NATI", sel=selection_union(hexagon)).holds
    fnat = i_natural_extension(hexagon, selection_frink(hexagon)).table
    assert check_system(hexagon, fnat, "NATI", sel=selection_frink(hexagon)).holds
    assert not check_system(hexagon, fnat, "NATI", sel=selection_union(hexagon)).holds


def test_kind_and_structure_mismatches(hexagon, hexagon_star, hexagon_rp):
    with pytest.raises(StructureMismatch):
        check_system(hexagon, hexagon_rp, "SP")
    with pytest.raises(StructureMismatch):
        check_system(hexagon, hexagon_star, "ESP")
    with pytest.raises(StructureMismatch):
        check_system(hexagon, hexagon_rp, "ESPW")  # hexagon is not a meet semilattice
    with pytest.raises(StructureMismatch):
        check_system(hexagon, hexagon_rp, "JWV2")


def test_espw_on_chain(chain4):
    st = star_table(chain4)
    nat = natural_extension(st)
    assert check_system(chain4, nat, "ESPW").holds
    rep = check_system(chain4, mangled(nat, chain4), "ESPW")
    assert not rep.holds


def mangled(t, p):
    cells = [list(r) for r in t.cells]
    cells[p.n - 1][0] = p.n - 1  # top -> bottom := top breaks the meet identity
    return TotalTable(p, cells)


def test_nrm_and_nrmw_on_chain(chain4):
    st = star_table(chain4)
    nrm = normal_extension(st).table
    assert check_system(chain4, nrm, "NRM").holds
    assert check_system(chain4, nrm, "NRMW").holds
    assert check_system(chain4, nrm, "J").holds
    nat = natural_extension(st)
    assert nrm == nat  # chains: both rules produce the same table


def test_nrmw_separates_natural_from_normal_on_diamond(diamond):
    # on the diamond the natural extension is an extended sectional
    # pseudocomplementation but not the normal one (c -> d is the top, not d)
    st = star_table(diamond)
    nat = natural_extension(st)
    nrm = normal_extension(st).table
    assert nat != nrm
    assert check_system(diamond, nat, "ESPW").holds
    assert check_system(diamond, nrm, "ESPW").holds
    assert check_system(diamond, nrm, "NRMW").holds
    rep = check_system(diamond, nat, "NRMW")
    assert not rep.holds
    assert "nrm^1" in dict(rep.violations)  # x <= (x -> y) -> y fails


def test_jwv_readings(chain4):
    st = star_table(chain4)
    t = normal_extension(st).table
    for reading in ("existential", "both-defined", "one-defined"):
        assert check_system(chain4, t, "JWV", reading=reading).holds
    assert check_system(chain4, t, "JWV2").holds


def test_jwv_reading_flag_changes_the_verdict():
    # an upper semilattice with one meet-free pair (a, b); corrupting one cell
    # makes the first identity's meet vanish, which only the existential
    # reading treats as a violation
    p = build_poset("m", ["a", "b", "c", "1"],
                    [("a", "c"), ("b", "c"), ("c", "1")])
    assert p.classify().is_upper_semilattice
    t = normal_extension(star_table(p)).table
    for reading in ("existential", "both-defined", "one-defined"):
        assert check_system(p, t, "JWV", reading=reading).holds
    cells = [list(r) for r in t.cells]
    cells[p.index("b")][p.index("b")] = p.index("a")
    bad = TotalTable(p, cells)
    rep_e = check_system(p, bad, "JWV", reading="existential")
    rep_b = check_system(p, bad, "JWV", reading="both-defined")
    assert dict(rep_e.violations)["jwv1"] == ("b", "b")
    assert "jwv1" not in dict(rep_b.violations)


def test_witnesses_replay(hexagon, hexagon_rp):
    rep = check_system(hexagon, hexagon_rp, "ESP")
    violated = dict(rep.violations)
    x, y, z = violated["esp3"]
    assert z in hexagon.maximal_lower_bounds(x, y)
    assert not hexagon.leq(x, hexagon_rp.value(y, z))


# -- equivalences against the construction rules ----------------------------------


def esp_expected_columns(p, st):
    # tables whose sectioned cells equal the star table, free cells arbitrary
    cols = []
    for c in range(p.n):
        options = []
        for r in range(p.n):
            if p.leq_ix(c, r):
                options.append((st.cells[r][c],))
            else:
                options.append(tuple(range(p.n)))
        cols.append(sorted(itertools.product(*options)))
    return cols


@pytest.mark.parametrize("n", range(1, 5))
def test_esp_axioms_equal_esp_tables(n):
    from spposet.enumeration import products_equal

    for p in enumerate_posets(n):
        sols = system_column_solutions(p, "ESP")
        st = star_table(p)
        if isinstance(st, MissingWitness):
            expected = [[]]
        else:
            expected = esp_expected_columns(p, st)
        assert products_equal([sorted(c) for c in sols], expected)


@pytest.mark.parametrize("n", range(1, 4))
def test_esp_axioms_equal_is_esp_bruteforce(n):
    # every total table on every small poset: axioms hold iff is_esp holds
    for p in enumerate_posets(n):
        for cells in itertools.product(range(p.n), repeat=p.n * p.n):
            t = TotalTable(p, [cells[i * p.n:(i + 1) * p.n] for i in range(p.n)])
            assert check_system(p, t, "ESP").holds == is_esp(p, t).holds


@pytest.mark.parametrize("n", range(1, 6))
def test_nat_axioms_equal_natural_table(n):
    from spposet.enumeration import products_equal, table_as_columns

    for p in enumerate_posets(n):
        sols = system_column_solutions(p, "NAT")
        st = star_table(p)
        if isinstance(st, MissingWitness):
            expected = [[]]
        else:
            expected = table_as_columns(natural_extension(st))
        assert products_equal(sols, expected)


def test_espw_equals_is_esp_on_meet_semilattices():
    # on meet semilattices the two identities characterize extended
    # sectional pseudocomplementations
    from spposet.enumeration import products_equal

    for n in range(1, 5):
        for p in enumerate_posets(n):
            if not p.classify().is_lower_semilattice:
                continue
            sols = system_column_solutions(p, "ESPW")
            st = star_table(p)
            if isinstance(st, MissingWitness):
                expected = [[]]
            else:
                expected = esp_expected_columns(p, st)
            assert products_equal([sorted(c) for c in sols], expected)


def test_jwv_equals_jwv2_on_lattices():
    from spposet.enumeration import products_equal

    for n in range(1, 6):
        for p in enumerate_posets(n):
            if not p.classify().is_lattice:
                continue
            assert products_equal(
                system_column_solutions(p, "JWV"),
                system_column_solutions(p, "JWV2"))


# -- classification checks ---------------------------------------------------------


def test_is_esp_arrows(twochains, hexagon, hexagon_rp):
    for d in (td.TWOCHAINS_ARROW1, td.TWOCHAINS_ARROW2, td.TWOCHAINS_ARROW3):
        assert is_esp(twochains, total_from(twochains, d)).holds
    v = is_esp(hexagon, hexagon_rp)
    assert not v.holds
    assert v.witness == ("c", "a")


def test_is_esp_of_pure(hexagon, hexagon_star):
    assert is_esp(hexagon, pure_extension(hexagon_star)).holds


def test_implicativity_arrows(twochains):
    rep = implicativity(twochains, total_from(twochains, td.TWOCHAINS_ARROW1))
    assert rep.left.holds and not rep.right.holds
    assert rep.right.witness == ("a", "c")  # a -> c = d = top of [c), yet a is not below c
    rep = implicativity(twochains, total_from(twochains, td.TWOCHAINS_ARROW2))
    assert rep.right.holds and not rep.left.holds
    rep = implicativity(twochains, total_from(twochains, td.TWOCHAINS_ARROW3))
    assert rep.left.holds and rep.right.holds


def test_is_strong(hexagon, hexagon_star):
    assert is_strong(hexagon, pure_extension(hexagon_star)).holds
    fnat = i_natural_extension(hexagon, selection_frink(hexagon)).table
    v = is_strong(hexagon, fnat)
    assert not v.holds
    assert v.witness == ("a", "b")
    one = build_poset("one", ["x"], [])
    t = TotalTable.from_ids(one, [["x"]])
    assert is_strong(one, t).holds


def test_is_normal(hexagon, chains5):
    fnat = i_natural_extension(hexagon, selection_frink(hexagon)).table
    assert not is_normal(hexagon, fnat)
    st5 = star_table(chains5)
    t5 = normal_extension(st5).table
    assert is_normal(chains5, t5)
    assert not is_normal(chains5, natural_extension(st5))


def test_normal_extension_of_upper_semilattice_is_normal():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            st = star_table(p)
            if isinstance(st, MissingWitness) or not p.classify().is_upper_semilattice:
                continue
            assert is_normal(p, normal_extension(st).table)


def _chain(name, n):
    els = [str(i) for i in range(n)]
    return build_poset(name, els, list(zip(els, els[1:])))


# name -> the decider, and the poset attribute holding a table it reads
TABLE_DECIDERS = {
    "check_system": (lambda p, t: check_system(p, t, "ESP"), "normal_table"),
    "is_esp": (is_esp, "normal_table"),
    "implicativity": (implicativity, "normal_table"),
    "is_strong": (is_strong, "normal_table"),
    "is_normal": (is_normal, "normal_table"),
    "verify_lemma_suite": (lambda p, t: verify_lemma_suite(p, t, "esp-prop"), "normal_table"),
    "verify_sp_properties": (verify_sp_properties, "star"),
    "subalgebra_closed": (lambda p, t: subalgebra_closed(p, t, p.elements), "normal_table"),
}


@pytest.mark.parametrize("decider", TABLE_DECIDERS)
def test_table_deciders_reject_a_table_over_another_poset(decider):
    (decide, table), p = TABLE_DECIDERS[decider], _chain("C3", 3)
    decide(p, getattr(p, table))
    # a shorter chain, and the same order under another name
    for other in (_chain("C2", 2), _chain("D3", 3)):
        with pytest.raises(StructureMismatch, match="^table does not belong to the given poset$"):
            decide(p, getattr(other, table))


# name -> a call with an option name that names no choice, and its message
BAD_OPTIONS = {
    "check_system reading": (lambda p: check_system(p, p.normal_table, "ESP", reading="bogus"),
                             "unknown reading 'bogus'"),
    "verify_lemma_suite suite": (lambda p: verify_lemma_suite(p, p.normal_table, "bogus"),
                                 "unknown suite 'bogus'; choose from"),
    "enumerate_posets dedup": (lambda p: next(enumerate_posets(3, "bogus")),
                               "dedup must be 'labeled' or 'up-to-iso', got 'bogus'"),
    "Poset.bounds direction": (lambda p: p.bounds(p.elements, "bogus"),
                               "direction must be 'upper' or 'lower', got 'bogus'"),
    "probe_sinat_variants selection": (lambda p: probe_sinat_variants(3, "bogus"),
                                       "selection must be 'frink' or 'union', got 'bogus'"),
}


@pytest.mark.parametrize("option", BAD_OPTIONS)
def test_a_bad_option_name_is_a_toolkit_error(option):
    call, message = BAD_OPTIONS[option]
    with pytest.raises(UnknownOption, match=f"^{message}") as err:
        call(_chain("C3", 3))
    # a SpposetError that callers who catch ValueError still catch
    assert isinstance(err.value, SpposetError) and isinstance(err.value, ValueError)


def test_sp_prop_needs_a_partial_table(hexagon, hexagon_rp):
    for run in (verify_sp_properties, lambda p, t: verify_lemma_suite(p, t, "sp-prop")):
        with pytest.raises(StructureMismatch, match="^suite sp-prop needs a partial table$"):
            run(hexagon, hexagon_rp)
    with pytest.raises(StructureMismatch, match="^suite esp-prop needs a total table$"):
        verify_lemma_suite(hexagon, restrict(hexagon_rp), "esp-prop")


# -- lemma suites -------------------------------------------------------------------


def test_esp_prop_suite(hexagon, hexagon_star):
    rep = verify_lemma_suite(hexagon, pure_extension(hexagon_star), "esp-prop")
    assert rep.passed
    assert [r.item for r in rep.items] == list("abcdefghi")


def test_jext_prop_suite(chains5):
    t = normal_extension(star_table(chains5)).table
    rep = verify_lemma_suite(chains5, t, "jext-prop")
    assert rep.passed
    assert all(r.status == "pass" for r in rep.items)


def test_jext_prop_guards(twochains):
    # the natural extension is not strong on two disjoint chains, so it fails
    # the exchange hypothesis and every item is skipped
    rep = verify_lemma_suite(
        twochains, total_from(twochains, td.TWOCHAINS_ARROW1), "jext-prop")
    assert all(r.status == "skipped" for r in rep.items)

    # x -> y := top of x's own chain does satisfy the exchange law, but the
    # poset has no greatest element: the first items run, the rest skip
    tops = {e: "b" if e in ("a", "b") else "d" for e in twochains.elements}
    t = TotalTable.from_ids(
        twochains, [[tops[x]] * 4 for x in twochains.elements])
    rep = verify_lemma_suite(twochains, t, "jext-prop")
    status = {r.item: r.status for r in rep.items}
    assert status["a"] == "pass"
    assert status["b"] == "pass"
    assert status["c"] == "pass"
    assert status["d"] == "skipped"  # y <= x -> y fails across the chains
    assert status["e"] == "skipped"
    assert status["j"] == "skipped"


def test_inat_prop_suite(hexagon):
    frink = selection_frink(hexagon)
    fnat = i_natural_extension(hexagon, frink).table
    rep = verify_lemma_suite(hexagon, fnat, "Inat-prop", sel=frink)
    assert rep.passed


def test_inat_prop_suite_reads_no_selection():
    # no Inat-prop item reads the selection, so none is needed
    doc = parse_path(importlib.resources.files("spposet.corpus") / "hexagon-fnat.sp")
    t = doc.table("i-natural-frink")
    p = t.owner
    rep = verify_lemma_suite(p, t, "Inat-prop")
    assert len(rep.items) == 7 and rep.passed
    for sel in (selection_union(p), selection_frink(p)):
        assert verify_lemma_suite(p, t, "Inat-prop", sel=sel) == rep


def test_simpl_i_suite(hexagon, hexagon_star):
    for sel in (selection_union(hexagon), selection_frink(hexagon)):
        rep = verify_lemma_suite(hexagon, None, "simplI", sel=sel)
        assert rep.passed
    with pytest.raises(MissingSelection):
        verify_lemma_suite(hexagon, None, "simplI")


def test_suite_vacuous_on_singleton():
    one = build_poset("one", ["x"], [])
    t = TotalTable.from_ids(one, [["x"]])
    for suite in ("esp-prop", "jext-prop", "Inat-prop"):
        rep = verify_lemma_suite(one, t, suite, sel=selection_union(one))
        assert rep.passed


# -- subalgebras ---------------------------------------------------------------------


def test_hexagon_q_not_closed_kind(hexagon, hexagon_star):
    rep = subalgebra_closed(hexagon, hexagon_star, ["0", "c", "d", "1"])
    assert rep.closed
    assert not rep.induced_is_same_kind
    rep = subalgebra_closed(hexagon, pure_extension(hexagon_star), ["0", "c", "d", "1"])
    assert rep.closed
    assert not rep.induced_is_same_kind


def test_chains5_q_not_esp(chains5):
    t = normal_extension(star_table(chains5)).table
    rep = subalgebra_closed(chains5, t, ["0", "b", "c", "1"])
    assert rep.closed
    assert not rep.induced_is_same_kind
    # the sub-poset's own star table disagrees: the complement of b over 0 is c
    sub = chains5.restrict(["0", "b", "c", "1"])
    assert star_table(sub).value("b", "0") == "c"
    assert t.value("b", "0") == "0"


def test_full_carrier_is_subalgebra(hexagon, hexagon_star):
    rep = subalgebra_closed(hexagon, hexagon_star, hexagon.elements)
    assert rep.closed and rep.induced_is_same_kind
    rep = subalgebra_closed(hexagon, pure_extension(hexagon_star), hexagon.elements)
    assert rep.closed and rep.induced_is_same_kind


def test_not_closed_witness(twochains):
    t = total_from(twochains, td.TWOCHAINS_ARROW1)
    rep = subalgebra_closed(twochains, t, ["a", "c"])
    assert not rep.closed
    assert rep.witness == ("a", "a")  # a -> a = b leaves the subset
    with pytest.raises(ValueError):
        subalgebra_closed(twochains, t, [])


def test_star_closure_matches_natural_closure():
    # a subset is closed under the star table iff it is closed under the
    # natural extension (the extension only adds section tops)
    for n in range(1, 5):
        for p in enumerate_posets(n):
            st = star_table(p)
            if isinstance(st, MissingWitness):
                continue
            nat = natural_extension(st)
            members = list(p.elements)
            for r in range(1, 2 ** p.n):
                subset = [members[i] for i in range(p.n) if r >> i & 1]
                a = subalgebra_closed(p, st, subset).closed
                b = subalgebra_closed(p, nat, subset).closed
                assert a == b
