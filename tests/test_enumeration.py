import dataclasses
import importlib.resources
import itertools
import math
import random
import re
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tables_data as td
from conftest import relabeled, rows_in_order
from spposet import (
    MissingWitness,
    TotalTable,
    build_poset,
    check_system,
    is_esp,
    natural_extension,
    restrict,
    selection_frink,
    selection_union,
    star_table,
    wrp_complement,
)
from spposet import enumeration
from spposet.axioms import SYSTEMS
from spposet.enumeration import (
    LABELED_CAP,
    Claim,
    Counterexample,
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
    SpposetError,
    StructureMismatch,
    UnknownPredicate,
    UnknownTheorem,
)
from spposet.fileformat import parse
from spposet.poset import Poset, bits, transpose

LABELED_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231, 6: 130023, 7: 6129859, 8: 431723379}
ISO_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045, 8: 16999}


@pytest.mark.parametrize("n", range(1, 6))
def test_labeled_counts_match_naive_oracle(n):
    assert count_posets_naive(n) == LABELED_COUNTS[n]
    assert sum(1 for _ in enumerate_posets(n)) == LABELED_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_iso_counts(n):
    # the orbit sizes n!/|Aut| of the classes add up to the labeled count only
    # when no class is missing and none appears twice
    classes = list(enumerate_posets(n, "up-to-iso"))
    assert len(classes) == ISO_COUNTS[n]
    orbits = sum(math.factorial(n) // automorphism_count(p.ups) for p in classes)
    assert orbits == LABELED_COUNTS[n]


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


@pytest.mark.parametrize("sweep", [lambda n: verify_theorem("T-GLB", n),
                                   lambda n: verify_theorem("T-ISO", n),
                                   lambda n: find_counterexample("J⇒ESP", n),
                                   probe_sinat_variants],
                         ids=["verify", "verify T-ISO", "hunt", "probe"])
@pytest.mark.parametrize("max_n", [0, -1])
def test_sweeps_reject_max_n_below_one(sweep, max_n):
    # an empty sweep would read "verified (n = 1..0, 0 posets)"
    with pytest.raises(SizeCap, match="1 <= n <= 8"):
        sweep(max_n)


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
    tables = list(enumerate_extensions(st, "ESP"))
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


@pytest.mark.parametrize("system", ["ESPW", "JWV", "JWV2"])
@pytest.mark.parametrize("poset", ["hexagon", "twochains"])
def test_enumerate_extensions_needs_structure(poset, system, request):
    # neither poset is a lower or an upper semilattice
    p = request.getfixturevalue(poset)
    with pytest.raises(StructureMismatch, match=f"system {system} needs a"):
        next(enumerate_extensions(star_table(p), system))


def test_enumerate_extensions_needs_selection(hexagon_star):
    with pytest.raises(MissingSelection):
        next(enumerate_extensions(hexagon_star, "NATI"))


def test_enumerate_extensions_all_satisfy_system(twochains):
    st = star_table(twochains)
    for t in list(enumerate_extensions(st, "NAT")):
        assert check_system(twochains, t, "NAT").holds
        assert restrict(t) == st
    assert list(enumerate_extensions(st, "NAT")) == [natural_extension(st)]


# -- the extension stream against the cell-by-cell reference ------------------------


def _reference_extensions(s, system, sel=None):
    """The extension stream as first written: each product pick transposed
    cell by cell into the public, validating TotalTable constructor."""
    p = s.owner
    n = p.n
    cols = system_column_solutions(p, system, sel=sel, forced=s)
    for pick in itertools.product(*cols):
        cells = [[0] * n for _ in range(n)]
        for c in range(n):
            for r in range(n):
                cells[r][c] = pick[c][r]
        yield TotalTable(p, cells)


def _assert_same_stream(s, system, sel, cap):
    """Equal tables in equal order, or the same SpposetError from both."""
    try:
        want = list(itertools.islice(_reference_extensions(s, system, sel), cap))
    except SpposetError as exc:
        with pytest.raises(type(exc)):
            next(enumerate_extensions(s, system, sel=sel))
        return 0
    got = list(itertools.islice(enumerate_extensions(s, system, sel=sel), cap))
    assert [t.cells for t in got] == [t.cells for t in want]
    assert all(t.owner is s.owner for t in got)
    return len(got)


def _corpus_posets():
    out = {}
    for res in sorted(importlib.resources.files("spposet.corpus").iterdir(), key=lambda r: r.name):
        if res.name.endswith(".sp"):
            for section in parse(res.read_text("utf-8")).sections:
                if section.kind == "poset":
                    out.setdefault(section.name, section.obj)
    return [out[name] for name in sorted(out)]


def _assert_same_streams(posets, cap):
    """_assert_same_stream for every total system on each poset, NATI under
    both built-in selections; the number of tables compared."""
    streamed = 0
    for p in posets:
        st = star_table(p)
        for system in sorted(set(SYSTEMS) - {"SP"}):
            sels = [selection_frink(p), selection_union(p)] if system == "NATI" else [None]
            for sel in sels:
                streamed += _assert_same_stream(st, system, sel, cap)
        # SP is the partial-table system, so it has no total extensions
        with pytest.raises(StructureMismatch, match="system SP needs a partial table"):
            next(enumerate_extensions(st, "SP"))
    return streamed


def test_enumerate_extensions_matches_reference_on_corpus():
    assert _assert_same_streams(_corpus_posets(), 3000) > 5 * 3000


def test_enumerate_extensions_matches_reference_on_the_reversed_corpus():
    # declared top-down, the last column belongs to a minimal element; it is
    # fully pinned, so every pass holds one table, on all but twochains
    reversed_posets = [relabeled(p, range(p.n - 1, -1, -1)) for p in _corpus_posets()]
    assert _assert_same_streams(reversed_posets, 3000) > 5 * 3000


@pytest.mark.parametrize("name", ["hex", "q"])
def test_a_reversed_stream_matches_reference_past_the_second_sweep_of_its_pass_column(name):
    # declared top-down, the last column holds one solution; the pass column,
    # the rightmost with more than one, holds more than n here, and a sweep of
    # the column before it runs one pass per solution of that column, all but
    # the first built as columns
    declared = next(q for q in _corpus_posets() if q.name == name)
    p = relabeled(declared, range(declared.n - 1, -1, -1))
    st = star_table(p)
    sizes = [len(col) for col in system_column_solutions(p, "ESP", forced=st)]
    c = max(k for k, size in enumerate(sizes) if size > 1)
    assert c < p.n - 1 and sizes[c] > p.n and sizes[c - 1] > 1
    sweep = sizes[c - 1] * sizes[c]
    assert _assert_same_stream(st, "ESP", None, 2 * sweep + 1) == 2 * sweep + 1


def test_the_hexagon_esp_stream_matches_reference_past_its_first_pass(hexagon_star):
    # the last column holds 7776 solutions: the second pass reads kept rows
    assert _assert_same_stream(hexagon_star, "ESP", None, 2 * 7776 + 1) == 2 * 7776 + 1


def test_enumerate_extensions_matches_reference_on_small_posets():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            st = star_table(p)
            if isinstance(st, MissingWitness):
                continue
            for system in ("ESP", "NAT", "NRM", "J"):
                _assert_same_stream(st, system, None, 1000)


def _patch_columns(monkeypatch, cols):
    # each solution as the block (sol, ()), as the column search hands out one reached row by row
    monkeypatch.setattr(enumeration._Columns, "blocks",
                        lambda self, c, forced=None: iter([(sol, ()) for sol in cols[c]]))


@pytest.mark.parametrize("bad", [(1, 2), (1, "1"), (1,)],
                         ids=["out-of-range", "not-an-int", "short"])
def test_enumerate_extensions_rejects_bad_column_solution(bad, monkeypatch):
    chain = build_poset("c2", ["0", "1"], [("0", "1")])
    message = "table must be 2x2" if len(bad) == 1 else "total table must map every pair to an element"
    # first in its column: raised before any table; later, in the last or in
    # an outer column: raised when the stream reaches it, after the tables
    # before it and in none of them
    for cols, good in [([[(0, 1)], [bad, (1, 1)]], 0),
                       ([[(0, 1)], [(1, 1), bad]], 1),
                       ([[(0, 1), bad], [(1, 1), (0, 1)]], 2)]:
        _patch_columns(monkeypatch, cols)
        yielded = []
        with pytest.raises(ValueError, match=message):
            for t in enumerate_extensions(star_table(chain), "ESP"):
                yielded.append(t)
        assert len(yielded) == good
        assert all(tuple(t.cells[r][c] for r in range(2)) != bad for t in yielded for c in range(2))


def test_enumerate_extensions_empty_column_checks_nothing(monkeypatch):
    chain = build_poset("c2", ["0", "1"], [("0", "1")])
    _patch_columns(monkeypatch, [[], [(1, 2)]])
    assert list(enumerate_extensions(star_table(chain), "ESP")) == []


def test_unknown_ids():
    with pytest.raises(UnknownTheorem, match="known: T-GLB, T-ISO, T-J-EQ-NRM, .*, T-STR-NRM$"):
        verify_theorem("T-NOPE", 3)
    with pytest.raises(UnknownPredicate):
        find_counterexample("nonsense", 3)
    with pytest.raises(ValueError, match="'frink' or 'union', got 'nope'"):
        probe_sinat_variants(4, "nope")
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


@pytest.mark.parametrize("strong_fails", [True, False], ids=["strong fails", "only weak fails"])
def test_report_follows_the_strongest_variant(monkeypatch, strong_fails):
    # "weak" fails on every chain of two or more elements, "strong" only on
    # the three-element chain, and only when planted; both are order-invariant
    def check(p):
        failed = {}
        if p.n > 1 and p.classify().is_chain:
            failed["weak"] = Counterexample(f"poset {p.name}\n", "weak")
            if strong_fails and p.n == 3:
                failed["strong"] = Counterexample(f"poset {p.name}\n", "strong")
        return failed

    claim = Claim("planted", lambda p: True, check, variants=("weak", "strong"))
    monkeypatch.setitem(enumeration.THEOREMS, "T-PLANTED", claim)
    report = verify_theorem("T-PLANTED", 4)
    assert report.posets_per_n == {1: 1, 2: 3, 3: 19, 4: 219}
    if strong_fails:
        assert report.outcome == "counterexample"
        assert report.counterexample.witness == "strong"
        assert report.counterexample.serialized.startswith("poset P3-")
        assert report.details == {"weak": "counterexample", "strong": "counterexample"}
    else:
        assert report.outcome == "verified"
        assert report.counterexample is None
        assert report.details == {"weak": "counterexample", "strong": "verified",
                                  "weak-first": "poset P2-1; "}


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
    # ESP⇒J has the sweep cap of every claim, and its hunt stops at P2-0 at any max_n
    first = find_counterexample("ESP⇒J", 3)
    assert first.counterexample.serialized.startswith("poset P2-0")
    for max_n in (6, 8):
        report = find_counterexample("ESP⇒J", max_n)
        assert report.max_n == max_n
        assert dataclasses.replace(report, max_n=3, elapsed=first.elapsed) == first
    with pytest.raises(SizeCap, match="supports 1 <= n <= 8"):
        find_counterexample("ESP⇒J", 9)


def test_probe_sinat_variants():
    out = probe_sinat_variants(4)
    assert out["plain"].startswith("counterexample at n=3")
    assert out["strong"] == "verified"


def test_probe_sinat_variants_union():
    assert probe_sinat_variants(4, "union") == {"plain": "verified", "strong": "verified"}


@pytest.mark.parametrize("selection, expected", [
    ("frink", {"plain": "counterexample at n=3: P3-6", "strong": "verified"}),
    ("union", {"plain": "verified", "strong": "verified"}),
])
def test_probe_sinat_variants_at_five(selection, expected):
    # the class sweep with its descent names the first labeled
    # counterexample, as the labeled loop it replaced did
    assert probe_sinat_variants(5, selection) == expected


def test_products_equal_empty_care():
    assert products_equal([[(0,)], []], [[], [(1,)]])
    assert not products_equal([[(0,)]], [[(1,)]])
    assert products_equal([[(0,)], [(1,)]], [[(0,)], [(1,)]])


# -- the class sweep against the labeled oracle ------------------------------------


def _labeled_sweep(max_n, claim):
    """Every labeled poset in enumeration order, each counted once: the sweep
    the class sweep must reproduce.  A claim of one variant stops at its
    first counterexample."""
    posets_per_n, instances_per_n, found = {}, {}, {}
    for n in range(1, max_n + 1):
        labeled = ((p, 1) for p in enumerate_posets(n))
        (posets_per_n[n], instances_per_n[n]), first = enumeration._scan(labeled, claim)
        for variant, ce in first.items():
            found.setdefault(variant, ce)
        if len(claim.variants) < 2 and found:
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


@pytest.fixture
def cold_store(monkeypatch):
    """An empty class store, kept from the test's first sweep on, and an
    empty class memo, for tests that count or read the work of class
    generation; the store and memo before it are back afterwards."""
    monkeypatch.setattr(enumeration, "_kept", [])
    monkeypatch.setattr(enumeration, "_levels", [])


def test_orbit_sizes_sum_to_labeled_counts():
    for n, level in enumerate(enumeration._class_levels(6, []), 1):
        assert len(level) == ISO_COUNTS[n]
        assert sum(orbit for _, orbit, _ in level) == LABELED_COUNTS[n]
        assert all(orbit * automorphism_count(p.ups) == math.factorial(n) for p, orbit, _ in level)


def test_class_generation_searches_each_input_once(cold_store, monkeypatch):
    # the 132 extensions of the classes below n = 5 by a new maximal element
    # that orbit pruning keeps are each searched once; the 87 representatives
    # take |Aut| from that search
    calls = []
    search = enumeration._search

    def counting(masks, downs=None):
        calls.append(masks)
        return search(masks, downs)

    monkeypatch.setattr(enumeration, "_search", counting)
    report = verify_theorem("T-GLB", 5)
    assert report.outcome == "verified"
    assert sum(report.posets_per_n.values()) == sum(LABELED_COUNTS[n] for n in range(1, 6))
    assert len(calls) == 132
    assert len(set(calls)) == 132


def _one_point_class_levels(max_n):
    """The class generator before the maximal-element one: every one-point
    extension of every representative, deduplicated by canonical key.  Per
    level, canonical key -> first representative, in order."""
    level = [()]
    for _ in range(max_n):
        classes = {}
        for base in level:
            for masks in enumeration._one_point_extensions(base):
                classes.setdefault(canonical_key(masks), masks)
        level = list(classes.values())
        yield classes


def test_maximal_element_classes_match_the_one_point_oracle(monkeypatch):
    calls = []
    search = enumeration._search

    def counting(masks, downs=None):
        calls.append(len(masks))
        return search(masks, downs)

    monkeypatch.setattr(enumeration, "_levels", [])
    monkeypatch.setattr(enumeration, "_search", counting)
    levels = [list(level) for level in enumeration._class_levels(7)]
    monkeypatch.undo()
    assert len(calls) == 4870  # 18710 for the oracle
    for n, (oracle, level) in enumerate(zip(_one_point_class_levels(7), levels), 1):
        assert len(level) == len(oracle) == ISO_COUNTS[n]
        assert {canonical_key(p.ups) for p, _, _ in level} == oracle.keys()
        assert sum(orbit for _, orbit, _ in level) == LABELED_COUNTS[n]


def _first_reached(extensions):
    """(canonical key, masks) of each extension that reaches a new class, in order."""
    firsts = {}
    for masks in extensions:
        firsts.setdefault(canonical_key(masks), masks)
    return list(firsts.items())


def test_orbit_pruning_reaches_the_same_classes_in_the_same_order():
    kept = every = 0
    for level in enumeration._class_levels(6):
        for p, _, gens in level:
            base = p.ups
            pruned = []
            for masks, downs in enumeration._maximal_extensions(base, gens):
                assert downs == transpose(masks)
                pruned.append(masks)
            # every extension whose new element has no strict upper bound
            unpruned = [masks for masks in enumeration._one_point_extensions(base)
                        if masks[-1] == 1 << len(base)]
            assert _first_reached(pruned) == _first_reached(unpruned)
            kept += len(pruned)
            every += len(unpruned)
    assert (kept, every) == (4869, 6377)


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
    def by_name(p):
        return {"x": "bogus"} if p.name.startswith("Q") else {}

    with pytest.raises(InternalDisagreement, match="at n=1"):
        enumeration._sweep(3, Claim("by name", lambda p: True, by_name, variants=("x",)))
    with pytest.raises(InternalDisagreement, match="at n=1"):
        enumeration._sweep(3, Claim("by name", lambda p: True, by_name, variants=("x", "y")))


def test_hunt_reaches_eight_and_stops_at_the_crown(capsys):
    # the sweep cap is the class generator's; the hunt still stops at n = 5
    from spposet.cli import main

    outputs = []
    for max_n in (5, 8):
        code = main(["hunt", "--predicate", "J=>ESP", "--max-n", str(max_n)])
        out = capsys.readouterr().out
        outputs.append((code, re.sub(r"n = 1\.\.\d+, (.*), \d+\.\d+s\)", r"\1", out)))
    assert outputs[0] == outputs[1]
    assert outputs[1][0] == 1
    assert "915 posets, 915 instances" in outputs[1][1]
    assert "poset P5-914" in outputs[1][1]


def test_sweep_counts_every_labeled_eight_poset(cold_store):
    # OEIS A001035, from class orbits alone: no hypothesis holds, nothing descends
    posets_per_n, instances_per_n, found = enumeration._sweep(
        8, Claim("nothing", lambda p: False, lambda p: None))
    assert posets_per_n == LABELED_COUNTS
    assert posets_per_n[8] == 431723379
    assert set(instances_per_n.values()) == {0}
    assert found == {}
    # level 8 is in the class memo, built from level 7, and not in the store
    assert [len(level) for level in enumeration._kept] == [ISO_COUNTS[n] for n in range(1, 8)]
    assert [len(level) for level in enumeration._levels] == [ISO_COUNTS[n] for n in range(1, 9)]


@pytest.fixture
def searches(monkeypatch):
    """The size of every _search call the test makes."""
    calls = []
    search = enumeration._search

    def counting(masks, downs=None):
        calls.append(len(masks))
        return search(masks, downs)

    monkeypatch.setattr(enumeration, "_search", counting)
    return calls


def test_a_second_enumeration_or_sweep_builds_no_class(cold_store, searches):
    nothing = Claim("nothing", lambda p: False, lambda p: None)
    first = [(p.name, p.ups) for p in enumerate_posets(7, "up-to-iso")]
    first_sweep = enumeration._sweep(8, nothing)
    assert len(searches) == 43150  # every class of n <= 8, one search per input
    searches.clear()
    assert [(p.name, p.ups) for p in enumerate_posets(7, "up-to-iso")] == first
    assert enumeration._sweep(8, nothing) == first_sweep
    assert searches == []
    assert first_sweep[0][8] == LABELED_COUNTS[8]


# -- the class store ------------------------------------------------------------------


def _run_claim(kind, claim, max_n):
    run = verify_theorem if kind == "verify" else find_counterexample
    return dataclasses.replace(run(claim, max_n), elapsed=0.0)


def test_reports_do_not_depend_on_what_the_store_holds(cold_store):
    # every claim at each max_n, from an empty store and then in reverse
    # order, where every derived table another claim built is already there
    runs = [(kind, claim, max_n) for max_n in (3, 5, 6) for kind, claim in CLAIMS]
    forward = [_run_claim(*run) for run in runs]
    backward = [_run_claim(*run) for run in reversed(runs)]
    assert forward == backward[::-1]


def test_a_second_sweep_reads_the_kept_classes(cold_store, monkeypatch):
    first = verify_theorem("T-GLB", 5)
    calls = []
    search, init = enumeration._search, Poset.__init__

    def counting_search(masks, downs=None):
        calls.append("search")
        return search(masks, downs)

    def counting_init(self, *args):
        calls.append("poset")
        init(self, *args)

    monkeypatch.setattr(enumeration, "_search", counting_search)
    monkeypatch.setattr(Poset, "__init__", counting_init)
    second = verify_theorem("T-GLB", 5)
    assert calls == []
    assert dataclasses.replace(second, elapsed=0.0) == dataclasses.replace(first, elapsed=0.0)


def test_the_first_sweep_of_a_process_keeps_nothing(monkeypatch):
    monkeypatch.setattr(enumeration, "_kept", None)
    first = verify_theorem("T-GLB", 5)
    assert enumeration._kept == []
    second = verify_theorem("T-GLB", 5)
    assert [len(level) for level in enumeration._kept] == [ISO_COUNTS[n] for n in range(1, 6)]
    assert dataclasses.replace(second, elapsed=0.0) == dataclasses.replace(first, elapsed=0.0)


def test_sweeps_in_threads_match_serial_ones(cold_store, monkeypatch):
    # the threads start on an empty store and fill it together; switching
    # threads every few microseconds interleaves their reads of each level
    runs = [(kind, claim, max_n) for max_n in (5, 6) for kind, claim in CLAIMS
            if claim in ("T-GLB", "T-NRM-AX", "J⇒ESP", "sp⇒sp")]
    serial = [_run_claim(*run) for run in runs]
    monkeypatch.setattr(enumeration, "_kept", [])
    names = "abc"  # more threads than the 2 cores of a small runner
    start, results = threading.Barrier(len(names), timeout=60), {}

    def worker(name):
        start.wait()
        try:
            results[name] = [_run_claim(*run) for run in runs]
        except BaseException as exc:
            results[name] = exc

    threads = [threading.Thread(target=worker, args=(name,), daemon=True) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == dict.fromkeys(names, serial)


def test_class_enumeration_stays_off_the_store(monkeypatch):
    # enumerate_posets gives the cold store's classes from a filled store,
    # none of them a kept poset, while another thread holds the store's lock
    monkeypatch.setattr(enumeration, "_kept", None)
    cold = {n: [(p.name, p.ups) for p in enumerate_posets(n, "up-to-iso")] for n in range(1, 7)}
    for _ in range(2):  # the first sweep of a process keeps nothing
        enumeration._sweep(6, Claim("nothing", lambda p: False, lambda p: None))
    kept = {id(p) for level in enumeration._kept for p, _, _ in level}
    assert len(kept) == sum(ISO_COUNTS[n] for n in range(1, 7))
    held, done, waited = threading.Event(), threading.Event(), []

    def hold():
        with enumeration._store_lock:
            held.set()
            waited.append(done.wait(timeout=30))

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert held.wait(timeout=30)
    try:
        for n in range(1, 7):
            posets = list(enumerate_posets(n, "up-to-iso"))
            assert [(p.name, p.ups) for p in posets] == cold[n]
            assert not any(id(p) in kept for p in posets)
    finally:
        done.set()
        holder.join(timeout=30)
    assert waited == [True]  # the lock was never released before the classes ended


def test_a_sweep_that_raised_keeps_only_whole_levels(cold_store, monkeypatch):
    # a fault at the 30th search of level 5 stops that level's build; neither
    # the memo nor the store keeps any of it, and the levels below stay whole
    search = enumeration._search
    at_five = []

    def failing(masks, downs=None):
        if len(masks) == 5:
            at_five.append(masks)
            if len(at_five) == 30:
                raise MemoryError("injected")
        return search(masks, downs)

    monkeypatch.setattr(enumeration, "_search", failing)
    with pytest.raises(MemoryError, match="injected"):
        verify_theorem("T-GLB", 5)
    assert [len(level) for level in enumeration._kept] == [ISO_COUNTS[n] for n in range(1, 5)]
    assert [len(level) for level in enumeration._levels] == [ISO_COUNTS[n] for n in range(1, 5)]
    monkeypatch.setattr(enumeration, "_search", search)
    report = verify_theorem("T-GLB", 5)
    assert report.posets_per_n == {n: LABELED_COUNTS[n] for n in range(1, 6)}
    assert report.outcome == "verified"


def test_a_class_build_that_raised_leaves_no_short_level(cold_store, monkeypatch):
    # a fault at the 30th search of level 6 stops that level's build; the memo
    # keeps only the whole levels below it, so a retry builds all of level 6
    search = enumeration._search
    at_six = []

    def failing(masks, downs=None):
        if len(masks) == 6:
            at_six.append(masks)
            if len(at_six) == 30:
                raise MemoryError("injected")
        return search(masks, downs)

    monkeypatch.setattr(enumeration, "_search", failing)
    with pytest.raises(MemoryError, match="injected"):
        list(enumerate_posets(6, "up-to-iso"))
    assert [len(level) for level in enumeration._levels] == [ISO_COUNTS[n] for n in range(1, 6)]
    monkeypatch.setattr(enumeration, "_search", search)
    classes = list(enumerate_posets(6, "up-to-iso"))
    assert len(classes) == ISO_COUNTS[6] == 318
    assert sum(math.factorial(6) // automorphism_count(p.ups) for p in classes) == 130023
    assert classes[-1].name == "Q6-317"


def test_class_enumeration_and_sweeps_in_threads_share_one_memo(cold_store, searches, monkeypatch):
    # three threads on an empty memo each drain the 7-classes and sweep
    # T-GLB to 6; switching threads every few microseconds interleaves their
    # reads of each level, and each level is still built once (4870 searches)
    serial = ([(p.name, p.ups) for p in enumerate_posets(7, "up-to-iso")],
              _run_claim("verify", "T-GLB", 6))
    monkeypatch.setattr(enumeration, "_levels", [])
    monkeypatch.setattr(enumeration, "_kept", [])
    searches.clear()
    names = "abc"  # more threads than the 2 cores of a small runner
    start, results = threading.Barrier(len(names), timeout=60), {}

    def worker(name):
        start.wait()
        try:
            results[name] = ([(p.name, p.ups) for p in enumerate_posets(7, "up-to-iso")],
                             _run_claim("verify", "T-GLB", 6))
        except BaseException as exc:
            results[name] = exc

    threads = [threading.Thread(target=worker, args=(name,), daemon=True) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == dict.fromkeys(names, serial)
    assert len(searches) == 4870


# -- kept descents ---------------------------------------------------------------------


@pytest.fixture
def descents(monkeypatch):
    """The n of every _descend call the test makes."""
    calls = []
    descend = enumeration._descend

    def counting(n, *args):
        calls.append(n)
        return descend(n, *args)

    monkeypatch.setattr(enumeration, "_descend", counting)
    return calls


def _fresh(monkeypatch, claims, name):
    """A copy of the claim registered in `claims`, with no kept descent, installed in its place."""
    fresh = dataclasses.replace(claims[name])
    monkeypatch.setitem(claims, name, fresh)
    return fresh


@pytest.mark.parametrize("kind, name, max_n, kept", [
    ("hunt", "CLP⇒ESP", 5, (5, "")),
    ("hunt", "CLP⇒ESP", 8, (5, "")),
    ("hunt", "J⇒ESP", 5, (5, "")),
    ("hunt", "J⇒ESP", 8, (5, "")),
    ("verify", "T-ISO", 5, (3, "up-directed")),
    ("hunt", "ESP⇒J", 3, (2, "")),
])
def test_a_second_sweep_reads_the_kept_descent(monkeypatch, descents, kind, name, max_n, kept):
    fresh = _fresh(monkeypatch, enumeration.THEOREMS if kind == "verify" else enumeration.PREDICATES, name)
    cold = _run_claim(kind, name, max_n)
    assert descents == [kept[0]]
    assert list(fresh.descents) == [kept]
    warm = _run_claim(kind, name, max_n)
    assert descents == [kept[0]]
    assert warm == cold


def test_one_descent_serves_every_max_n(monkeypatch, descents):
    fresh = _fresh(monkeypatch, enumeration.PREDICATES, "J⇒ESP")
    reports = [_run_claim("hunt", "J⇒ESP", max_n) for max_n in (5, 8, 6, 7)]
    assert descents == [5]
    assert list(fresh.descents) == [(5, "")]
    assert [dataclasses.replace(r, max_n=5) for r in reports] == [reports[0]] * 4
    assert reports[0].counterexample.serialized.startswith("poset P5-914\n")


def test_kept_descents_leave_claim_equality_and_hashing_alone(monkeypatch):
    fresh = _fresh(monkeypatch, enumeration.PREDICATES, "CLP⇒ESP")
    find_counterexample("CLP⇒ESP", 5)
    copy = dataclasses.replace(fresh)
    assert fresh.descents and copy.descents == {}
    assert fresh == copy and hash(fresh) == hash(copy)
    assert "descents" not in repr(fresh)


def test_a_second_probe_reads_the_kept_descent(monkeypatch, descents):
    fresh = _fresh(monkeypatch, enumeration.PROBES, "frink")
    first = probe_sinat_variants(5)
    assert descents == [3] and list(fresh.descents) == [(3, "plain")]
    descents.clear()
    assert probe_sinat_variants(5) == first
    assert descents == []


# -- rank and descent against the labeled oracle ------------------------------------


def test_descent_index_disagreeing_with_rank_is_an_internal_error(monkeypatch):
    # a fresh copy of the claim has kept no descent, so its sweep descends
    fresh = dataclasses.replace(enumeration.PREDICATES["J⇒ESP"])
    monkeypatch.setitem(enumeration.PREDICATES, "J⇒ESP", fresh)
    with monkeypatch.context() as broken:
        broken.setattr(enumeration._ExtensionTree, "rank", lambda tree, masks: -1)
        with pytest.raises(InternalDisagreement, match="at n=5 the descent passed 914 labeled posets"):
            find_counterexample("J⇒ESP", 5)
    # the descent that raised kept nothing, so the next sweep descends again
    assert fresh.descents == {}
    report = find_counterexample("J⇒ESP", 5)
    assert report.counterexample.serialized.startswith("poset P5-914\n")
    assert list(fresh.descents) == [(5, "")]


@pytest.mark.parametrize("n", range(1, 6))
def test_rank_is_the_labeled_index(n):
    tree = enumeration._ExtensionTree(n)
    for k, masks in enumerate(enumeration._labeled_masks(n)):
        assert tree.rank(masks) == k


def test_rank_is_the_labeled_index_on_a_sample_at_six():
    picked = set(random.Random(6).sample(range(LABELED_COUNTS[6]), 200))
    tree = enumeration._ExtensionTree(6)
    for k, masks in enumerate(enumeration._labeled_masks(6)):
        if k in picked:
            assert tree.rank(masks) == k


def _even_relation(masks):
    """Order-invariant and true for about half of all posets: the relation
    has an even number of pairs."""
    return sum(map(int.bit_count, masks)) % 2 == 0


def _degrees(masks):
    """A cheap isomorphism invariant, to skip most canonical keys."""
    downs = transpose(masks)
    return tuple(sorted(zip(map(int.bit_count, masks), map(int.bit_count, downs))))


def test_descent_finds_the_first_labeled_poset_of_a_class_set():
    # the descent against a labeled scan, for random sets of failing classes
    # at n = 6 under a hypothesis that holds on about half of the posets
    n = 6
    *_, level = enumeration._class_levels(n)
    classes = [p.ups for p, _, _ in level]
    labeled = enumeration._labeled_masks(n)
    scanned = []  # (masks, canonical key) of the labeled posets, in order, as far as read

    def labeled_at(k):
        while len(scanned) <= k:
            masks = next(labeled)
            scanned.append((masks, canonical_key(masks)))
        return scanned[k]

    def hypothesis(p):
        return _even_relation(p.ups)

    rng = random.Random(2022)
    hits = 0
    for _ in range(20):
        failing = {canonical_key(m) for m in rng.sample(classes, rng.randint(1, 4))}
        degrees = {_degrees(m) for m in classes if canonical_key(m) in failing}

        def check(p, failing=failing, degrees=degrees):
            if _degrees(p.ups) in degrees and canonical_key(p.ups) in failing:
                return {"x": p.name}
            return {}

        if not any(_even_relation(m) for m in classes if canonical_key(m) in failing):
            with pytest.raises(InternalDisagreement, match="reaches no labeled poset"):
                enumeration._descend(n, hypothesis, check, None)
            continue
        k = instances = 0
        while True:
            masks, key = labeled_at(k)
            if _even_relation(masks):
                if key in failing:
                    break
                instances += 1
            k += 1
        failed, got_k, got_instances = enumeration._descend(n, hypothesis, check, None)
        assert (failed, got_k, got_instances) == ({"x": f"P6-{k}"}, k, instances)
        hits += 1
    assert hits == 15  # the other 5 sets hold no class that satisfies the hypothesis


# -- the canonical form against the factorial oracle -------------------------------


def _oracle_refine(masks, downs):
    """Iterated neighborhood invariant: element ranks that every isomorphism preserves."""
    n = len(masks)
    inv = [0] * n
    while True:
        sig = [
            (inv[i],
             tuple(sorted(inv[j] for j in bits(masks[i]))),
             tuple(sorted(inv[j] for j in bits(downs[i]))))
            for i in range(n)
        ]
        ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
        new = [ranks[sig[i]] for i in range(n)]
        if new == inv:
            return inv
        inv = new


def _oracle_key(masks):
    """The minimal relation matrix over every relabeling that keeps each element
    inside its invariant block: factorial in the block sizes."""
    n = len(masks)
    inv = _oracle_refine(masks, transpose(masks))
    blocks = {}
    for i in range(n):
        blocks.setdefault(inv[i], []).append(i)
    offsets = {}
    pos = 0
    for r in sorted(blocks):
        offsets[r] = pos
        pos += len(blocks[r])
    best = None
    for perms in itertools.product(*(itertools.permutations(blocks[r]) for r in sorted(blocks))):
        place = [0] * n
        for r, perm in zip(sorted(blocks), perms):
            for k, i in enumerate(perm):
                place[i] = offsets[r] + k
        key = 0
        for i in range(n):
            row = place[i] * n
            for j in bits(masks[i]):
                key |= 1 << (row + place[j])
        if best is None or key < best:
            best = key
    return best


def test_canonical_key_partitions_class_generation_like_the_oracle():
    # every one-point extension of every class below n = 7: the inputs of the
    # one-point class generator, a superset of the maximal-element ones
    inputs = [masks for level in [{(): ()}, *_one_point_class_levels(6)]
              for base in level.values()
              for masks in enumeration._one_point_extensions(base)]
    assert len(inputs) == 18710
    for n in range(1, 8):
        pairs = {(canonical_key(m), _oracle_key(m)) for m in inputs if len(m) == n}
        assert len({new for new, _ in pairs}) == len({old for _, old in pairs}) == len(pairs)


def _relabel(p, perm):
    names = p.elements
    return build_poset("relabeled", names, [(names[perm[i]], names[perm[j]])
                                            for i in range(p.n) for j in bits(p.ups[i])])


@given(relabeled_posets(max_n=16), st.data())
def test_canonical_key_is_invariant_under_relabeling(p, data):
    q = _relabel(p, data.draw(st.permutations(range(p.n))))
    assert canonical_key(q.ups) == canonical_key(p.ups)
    assert automorphism_count(q.ups) == automorphism_count(p.ups)


def _boolean_lattice(k):
    return [(a, b) for a in range(1 << k) for b in range(1 << k) if a != b and a & b == a]


# (number of elements, strict order pairs, |Aut|)
SYMMETRIC = {
    "antichain-16": (16, [], math.factorial(16)),
    # a 2-chain has no automorphism of its own, so only the chains permute
    "eight-2-chains": (16, [(2 * i, 2 * i + 1) for i in range(8)], math.factorial(8)),
    # each V (one element under two) swaps its tops: the wreath product
    "five-vees": (15, [(3 * i, 3 * i + d) for i in range(5) for d in (1, 2)],
                  2 ** 5 * math.factorial(5)),
    "boolean-2^4": (16, _boolean_lattice(4), math.factorial(4)),
}


def _from_pairs(n, pairs):
    names = [f"e{i}" for i in range(n)]
    return build_poset("p", names, [(names[i], names[j]) for i, j in pairs])


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_large_symmetric_posets(name):
    n, pairs, aut = SYMMETRIC[name]
    p = _from_pairs(n, pairs)
    q = _relabel(p, random.Random(name).sample(range(n), n))
    start = time.perf_counter()
    assert are_isomorphic(p, q)
    assert time.perf_counter() - start < 1.0
    assert automorphism_count(p.ups) == automorphism_count(q.ups) == aut


def test_random_sixteen_element_poset():
    rng = random.Random(16)
    n = 16
    up = [0] * n
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < 0.1:
                up[i] |= 1 << j | up[j]
    pairs = [(i, j) for i in range(n) for j in bits(up[i])]
    p = _from_pairs(n, pairs)
    covers = [(i, j) for i, j in pairs if not any(up[i] >> k & 1 and up[k] >> j & 1 for k in range(n))]
    dropped = _from_pairs(n, [pr for pr in covers if pr != covers[len(covers) // 2]])
    perm = rng.sample(range(n), n)
    for q, same in ((_relabel(p, perm), True), (_relabel(dropped, perm), False)):
        start = time.perf_counter()
        assert are_isomorphic(p, q) is same
        assert time.perf_counter() - start < 1.0
    # two incomparable elements with the same strict up- and down-sets swap
    assert automorphism_count(p.ups) == automorphism_count(_relabel(p, perm).ups) == 2
