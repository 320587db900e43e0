import dataclasses
import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tables_data as td
from conftest import rows_in_order
from spposet import (
    MissingWitness,
    TotalTable,
    build_poset,
    check_system,
    is_esp,
    natural_extension,
    restrict,
    star_table,
    wrp_complement,
)
from spposet import enumeration
from spposet.enumeration import (
    LABELED_CAP,
    are_isomorphic,
    automorphism_count,
    canonical_key,
    count_posets_naive,
    enumerate_extensions,
    enumerate_posets,
    find_counterexample,
    normalize_predicate,
    predicate_ids,
    probe_sinat_variants,
    products_equal,
    system_column_solutions,
    theorem_ids,
    verify_theorem,
)
from spposet.errors import (
    InternalDisagreement,
    MissingSelection,
    SizeCap,
    StructureMismatch,
    UnknownPredicate,
    UnknownTheorem,
)
from spposet.fileformat import parse

LABELED_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231, 6: 130023}
ISO_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


@pytest.mark.parametrize("n", range(1, 6))
def test_labeled_counts_match_naive_oracle(n):
    assert count_posets_naive(n) == LABELED_COUNTS[n]
    assert sum(1 for _ in enumerate_posets(n)) == LABELED_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 8))
def test_iso_counts(n):
    assert sum(1 for _ in enumerate_posets(n, "up-to-iso")) == ISO_COUNTS[n]


def test_iso_dedup_consistent_with_labeled():
    for n in range(1, 5):
        labeled_keys = {canonical_key(p.ups) for p in enumerate_posets(n)}
        iso_keys = [canonical_key(p.ups) for p in enumerate_posets(n, "up-to-iso")]
        assert len(iso_keys) == len(set(iso_keys))
        assert set(iso_keys) == labeled_keys


def test_enumeration_caps():
    with pytest.raises(SizeCap):
        next(enumerate_posets(LABELED_CAP + 1))
    with pytest.raises(SizeCap):
        next(enumerate_posets(9, "up-to-iso"))
    with pytest.raises(SizeCap):
        count_posets_naive(6)
    with pytest.raises(ValueError):
        next(enumerate_posets(3, "nonsense"))


def test_enumeration_is_deterministic():
    a = [p.ups for p in enumerate_posets(4)]
    b = [p.ups for p in enumerate_posets(4)]
    assert a == b


def test_emitted_posets_are_valid():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            pairs = [(x, y) for x in p.elements for y in p.elements if p.leq(x, y)]
            assert build_poset(p.name, p.elements, pairs) == p


def test_are_isomorphic(hexagon):
    relabeled = build_poset("other", ["p", "q", "r", "s", "t", "u"],
                            [("u", "t"), ("u", "s"), ("t", "r"), ("t", "q"),
                             ("s", "r"), ("s", "q"), ("r", "p"), ("q", "p")])
    assert are_isomorphic(hexagon, relabeled)
    chain = build_poset("c6", [str(i) for i in range(6)],
                        [(str(i), str(i + 1)) for i in range(5)])
    assert not are_isomorphic(hexagon, chain)


def test_enumerate_extensions_two_chains(twochains):
    st = star_table(twochains)
    tables = list(enumerate_extensions(st, "ESP", max_free_cells=10))
    # ten free cells, each of the four values allowed
    assert len(tables) == 4 ** 10
    wanted = [TotalTable.from_ids(twochains, rows_in_order(d, twochains.elements))
              for d in (td.TWOCHAINS_ARROW1, td.TWOCHAINS_ARROW2, td.TWOCHAINS_ARROW3)]
    seen = set(tables)
    for t in wanted:
        assert t in seen


def test_enumerate_extensions_chain2():
    chain = build_poset("c2", ["0", "1"], [("0", "1")])
    tables = list(enumerate_extensions(star_table(chain), "ESP"))
    assert len(tables) == 2  # one free cell
    assert len(list(enumerate_extensions(star_table(chain), "NRM"))) == 1


def test_enumerate_extensions_nrm_hexagon_empty(hexagon, hexagon_star):
    assert list(enumerate_extensions(hexagon_star, "NRM")) == []


def test_enumerate_extensions_budget(hexagon, hexagon_star):
    with pytest.raises(SizeCap):
        list(enumerate_extensions(hexagon_star, "ESP", max_free_cells=5))


@pytest.mark.parametrize("system", ["ESPW", "JWV", "JWV2"])
@pytest.mark.parametrize("poset", ["hexagon", "twochains"])
def test_enumerate_extensions_needs_structure(poset, system, request):
    # neither poset is a lower or an upper semilattice
    p = request.getfixturevalue(poset)
    with pytest.raises(StructureMismatch, match=f"system {system} needs a"):
        next(enumerate_extensions(star_table(p), system, max_free_cells=40))


def test_enumerate_extensions_needs_selection(hexagon_star):
    with pytest.raises(MissingSelection):
        next(enumerate_extensions(hexagon_star, "NATI"))


def test_enumerate_extensions_all_satisfy_system(twochains):
    st = star_table(twochains)
    for t in list(enumerate_extensions(st, "NAT")):
        assert check_system(twochains, t, "NAT").holds
        assert restrict(t) == st
    assert list(enumerate_extensions(st, "NAT")) == [natural_extension(st)]


def test_unknown_ids():
    with pytest.raises(UnknownTheorem):
        verify_theorem("T-NOPE", 3)
    with pytest.raises(UnknownPredicate):
        find_counterexample("nonsense", 3)
    assert normalize_predicate("J => ESP") == "J⇒ESP"
    assert normalize_predicate("j⇒esp") == "J⇒ESP"


def test_theorem_registry_complete():
    assert set(theorem_ids()) == {
        "T-SPCHAR", "T-GLB", "T-NAT-EQ", "T-JEXT-FIN", "T-NRM-IMPL", "T-NRM-AX",
        "T-STR-NRM", "T-NAT-IMPLIC", "T-J-EQ-NRM", "T-LAT-F-EQ-J", "T-ISO",
        "T-MONO", "T-RIGHT-IMPL"}


@pytest.mark.parametrize("theorem", sorted(set(theorem_ids()) - {"T-ISO"}))
def test_theorems_verify_at_small_n(theorem):
    report = verify_theorem(theorem, 4)
    assert report.outcome == "verified"
    assert report.posets_per_n == {1: 1, 2: 3, 3: 19, 4: 219}
    assert all(report.instances_per_n[n] > 0 for n in range(1, 5))


def test_iso_theorem_reports_both_variants():
    report = verify_theorem("T-ISO", 4)
    assert report.outcome == "verified"
    assert report.details["up-directed"] == "counterexample"
    assert report.details["up-directed+strong"] == "verified"
    # smallest divergence: two incomparable elements under a top, where the
    # natural table sends each to the top but the Frink rule keeps the target
    assert "P3-" in report.details["up-directed-first"]


def test_counterexample_reports_are_replayable():
    report = find_counterexample("ESP⇒J", 3)
    assert report.outcome == "counterexample"
    doc = parse(report.counterexample.serialized)
    name = doc.sections[0].name
    p = doc.poset(name)
    t = doc.table("arrow")
    assert is_esp(p, t).holds
    assert not check_system(p, t, "J").holds


def test_hunt_j_esp_none_below_five():
    report = find_counterexample("J⇒ESP", 4)
    assert report.outcome == "verified"


def test_hunt_j_esp_finds_crown_at_five(hexagon):
    # the first total relative pseudocomplementation that is not an extended
    # sectional pseudocomplementation lives on the five-element crown (the
    # hexagon with its bottom removed), one size below the classical witness
    report = find_counterexample("J⇒ESP", 5)
    assert report.outcome == "counterexample"
    doc = parse(report.counterexample.serialized)
    p = doc.poset(doc.sections[0].name)
    t = doc.table("rp")
    crown = build_poset("crown", ["u", "v", "x", "y", "1"],
                        [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v"),
                         ("u", "1"), ("v", "1")])
    assert are_isomorphic(p, crown)
    assert not are_isomorphic(p, hexagon)
    assert check_system(p, t, "J").holds
    assert not is_esp(p, t).holds
    # its restriction is a weak relative pseudocomplementation throughout
    for x in p.elements:
        for y in p.elements:
            if p.leq(y, x):
                assert t.value(x, y) == wrp_complement(p, x, y)


def test_no_j_table_counterexample_below_five():
    # stronger than the relative-pseudocomplementation hunt: across all posets
    # with up to four elements, every table satisfying j1-j3 restricts to the
    # sectional pseudocomplementation on every sectioned pair
    for n in range(1, 5):
        for p in enumerate_posets(n):
            sols = system_column_solutions(p, "J")
            if any(not c for c in sols):
                continue
            st = star_table(p)
            assert isinstance(st, MissingWitness) is False
            for c in range(p.n):
                for vec in sols[c]:
                    for r in range(p.n):
                        if p.leq_ix(c, r):
                            assert vec[r] == st.cells[r][c]


def test_hunt_clp_esp(hexagon):
    report = find_counterexample("CLP⇒ESP", 5)
    assert report.outcome == "counterexample"
    doc = parse(report.counterexample.serialized)
    p = doc.poset(doc.sections[0].name)
    t = doc.table("clp")
    assert not is_esp(p, t).holds


def test_hunt_sanity_predicate():
    report = find_counterexample("sp⇒sp", 4)
    assert report.outcome == "verified"
    assert report.instances_per_n == {1: 1, 2: 3, 3: 16, 4: 137}


def test_hunt_esp_j_cap():
    with pytest.raises(SizeCap):
        find_counterexample("ESP⇒J", 6)


def test_probe_sinat_variants():
    out = probe_sinat_variants(4)
    assert out["plain"].startswith("counterexample at n=3")
    assert out["strong"] == "verified"


def test_products_equal_empty_care():
    assert products_equal([[(0,)], []], [[], [(1,)]])
    assert not products_equal([[(0,)]], [[(1,)]])
    assert products_equal([[(0,)], [(1,)]], [[(0,)], [(1,)]])


# -- the class sweep against the labeled oracle ------------------------------------


def _labeled_sweep(max_n, hypothesis, check, stop):
    """Every labeled poset in enumeration order, each counted once: the sweep
    the class sweep must reproduce."""
    posets_per_n, instances_per_n, found = {}, {}, {}
    for n in range(1, max_n + 1):
        labeled = ((p, 1) for p in enumerate_posets(n))
        (posets_per_n[n], instances_per_n[n]), first = enumeration._scan(
            labeled, hypothesis, check, stop)
        for variant, ce in first.items():
            found.setdefault(variant, ce)
        if stop and found:
            break
    return posets_per_n, instances_per_n, found


CLAIMS = [("verify", t) for t in theorem_ids()] + [("hunt", p) for p in predicate_ids()]


@pytest.mark.parametrize("max_n", [4, 5])
@pytest.mark.parametrize("kind, claim", CLAIMS)
def test_class_sweep_matches_labeled_sweep(kind, claim, max_n, monkeypatch):
    run = verify_theorem if kind == "verify" else find_counterexample
    by_class = run(claim, max_n)
    monkeypatch.setattr(enumeration, "_sweep", _labeled_sweep)
    labeled = run(claim, max_n)
    assert dataclasses.replace(by_class, elapsed=0.0) == dataclasses.replace(labeled, elapsed=0.0)


def test_orbit_sizes_sum_to_labeled_counts():
    for n, level in enumerate(enumeration._class_levels(6), 1):
        assert len(level) == ISO_COUNTS[n]
        assert sum(orbit for _, orbit in level) == LABELED_COUNTS[n]
        assert all(orbit * automorphism_count(masks) == math.factorial(n) for masks, orbit in level)


@st.composite
def relabeled_posets(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    perm = draw(st.permutations(range(n)))
    pairs = []
    for j in range(1, n):
        below = draw(st.sets(st.integers(min_value=0, max_value=j - 1), max_size=j))
        pairs.extend((str(perm[i]), str(perm[j])) for i in below)
    return build_poset("r", [str(i) for i in range(n)], pairs)


@given(relabeled_posets())
def test_automorphism_count_matches_brute_force(p):
    rel = {(i, j) for i in range(p.n) for j in range(p.n) if p.leq_ix(i, j)}
    brute = sum(1 for perm in itertools.permutations(range(p.n))
                if {(perm[i], perm[j]) for i, j in rel} == rel)
    assert automorphism_count(p.ups) == brute


def test_class_pass_disagreeing_with_labeled_rescan_is_an_internal_error():
    # a check that looks at the label, not the order, fails on every class
    # representative and on no labeled poset
    def by_name(ctx):
        return {"x": "bogus"} if ctx.p.name.startswith("Q") else {}

    with pytest.raises(InternalDisagreement, match="at n=1"):
        enumeration._sweep(3, lambda ctx: True, by_name, stop=True)
    with pytest.raises(InternalDisagreement, match="at n=1"):
        enumeration._sweep(3, lambda ctx: True, by_name, stop=False)
