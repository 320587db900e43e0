"""The column set-up kept per law context against the per-call prefix walk
on every class with up to 7 elements, and what the set-up keeps and builds.

The oracle (solver_oracle.PrefixWalkColumns) is the solver's set-up before
it was kept: every call walks each law's instances into every column, from
the generator walk the law context had before it read ranges from the order
masks (solver_oracle.walk).  The kept set-up must give the same rows, the
same per-row masks and the same links per column, for every system (NATI
under the union and the Frink selection), and system_models_are must give
the answers the oracle's columns give, against None and each table the
poset has (solver_cases.setup_disagreements).  tests/test_solver.py
compares the same on every labeled poset with up to 5 elements and on the
corpus, building the set-ups in the other order, so that a set-up built
from another system's masks and one built from its own laws are both
compared.
"""

import pytest

from solver_cases import cases, expected_tables, selections, setup_disagreements
from spposet import build_poset, check_system, star_table
from spposet import enumeration
from spposet.enumeration import (
    SEARCH_BUDGET,
    _Columns,
    enumerate_extensions,
    enumerate_posets,
    system_column_solutions,
    system_models_are,
)
from spposet.errors import SizeCap, StructureMismatch


def test_the_kept_setup_matches_the_prefix_walk_on_classes():
    answers = set()
    for n in range(1, 8):
        for p in enumerate_posets(n, "up-to-iso"):
            sels = selections(p)
            tables = expected_tables(p, sels)
            # in reverse, so that NRM is built before SP, not from its masks
            for system, sel in reversed(list(cases(p, sels))):
                found, given = setup_disagreements(p, system, sel, tables)
                assert not found, (p.name, system, sel and sel.kind, found)
                answers.update(got for _, got in given)
    assert answers == {True, False}


@pytest.fixture
def builds(monkeypatch):
    """The set-ups built, by system, and the link plans built, by system."""
    counted = {"setups": [], "links": []}

    class Counted(enumeration._ColumnSetup):
        __slots__ = ("system",)

        def __init__(self, e, system):
            counted["setups"].append(system)
            self.system = system
            super().__init__(e, system)

        def _plan_links(self, e):
            counted["links"].append(self.system)
            return super()._plan_links(e)

    monkeypatch.setattr(enumeration, "_ColumnSetup", Counted)
    return counted


HEXAGON = (["0", "a", "b", "c", "d", "1"],
           [("0", "a"), ("0", "b"), ("a", "c"), ("b", "d"), ("c", "1"), ("d", "1")])


def test_a_second_call_on_the_same_poset_builds_no_setup(builds):
    p = build_poset("hex", *HEXAGON)
    star, union, frink = star_table(p), p.union_selection, p.frink_selection
    for _ in range(2):
        for system, table in [("SP", star), ("NRM", p.normal_table), ("J", None)]:
            system_models_are(p, system, table)
        system_column_solutions(p, "NRM")
        list(enumerate_extensions(star, "NAT"))
        for sel in (union, frink):
            system_models_are(p, "NATI", None, sel=sel)
        assert builds["setups"] == ["SP", "NRM", "J", "NAT", "NATI", "NATI"]
        assert sorted(builds["links"]) == sorted(builds["setups"])
    # a new poset with the same order builds its own
    q = build_poset("hex", *HEXAGON)
    system_models_are(q, "SP", star_table(q))
    assert builds["setups"][-1] == "SP" and len(builds["setups"]) == 7


def test_a_column_whose_masks_leave_a_row_empty_builds_no_links(builds):
    # two elements over a bottom: no star table, and SP's first column has
    # a row that no value satisfies
    p = build_poset("vee", ["0", "1", "2"], [("0", "1"), ("0", "2")])
    assert system_models_are(p, "SP", None)
    assert builds == {"setups": ["SP"], "links": []}


def _least_budget(call, monkeypatch):
    """The least SEARCH_BUDGET with which call() raises no SizeCap."""
    lo, hi = 0, SEARCH_BUDGET
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(enumeration, "SEARCH_BUDGET", mid)
        try:
            call()
            hi = mid
        except SizeCap:
            lo = mid + 1
    return lo


def test_each_call_has_its_own_search_budget(monkeypatch):
    p = build_poset("n5", ["0", "1", "2", "3", "4"], [("0", "2"), ("1", "2"), ("1", "3"), ("3", "4")])
    answer = lambda: system_models_are(p, "J", None)  # noqa: E731
    listing = lambda: system_column_solutions(p, "J")  # noqa: E731
    need = _least_budget(answer, monkeypatch)
    assert 0 < need < _least_budget(listing, monkeypatch)
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", need)
    want = answer()
    assert answer() == want  # a second call has a budget of its own ...
    with pytest.raises(SizeCap):
        listing()
    assert answer() == want  # ... and so has a call after a SizeCap
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", need - 1)
    with pytest.raises(SizeCap):
        answer()


@pytest.mark.parametrize("name", ["hexagon", "twochains"])
def test_nrmw_constrains_nothing_and_needs_no_structure(name, request):
    # the generate benchmark pins NRMW streams on both, and neither is a lower semilattice
    p = request.getfixturevalue(name)
    cols = _Columns(p, "NRMW")
    for c in range(p.n):
        dom, links = cols.column(c)
        assert dom == [p.full] * p.n and all(not row for row in links)
    star = star_table(p)
    first = next(enumerate_extensions(star, "NRMW"))
    with pytest.raises(StructureMismatch, match="lower structure"):
        check_system(p, first, "NRMW")
