"""The column solver against its oracles, and on 16-element input.

The first oracle (solver_oracle.py) is the solver before it checked forward
and set up per column.  Its solution lists must equal the solver's, in
order, and system_models_are must answer what products_equal answers on the
oracle's lists, for every system on every labeled poset with up to 5
elements and on the corpus.  ESP, ESPW and NRMW are left out at n = 5, and
on the corpus compared only forced to the star table (as
enumerate_extensions reads them): their columns hold up to n^(n-1) vectors
each (NRMW n^n), and their 4231 lists at n = 5 take about 40 s on one core.
Lists forced to the star table are compared at n <= 4 and on the corpus.
The oracle's constraints are built once per poset and system, for both.

The second oracle is the per-call prefix walk the kept column set-up
replaced (solver_oracle.PrefixWalkColumns).  On the same posets, for every
system, ESP, ESPW and NRMW at n = 5 included, the kept set-up must give its
rows, masks and links per column (solver_cases.setup_disagreements), and
where no unforced lists are compared, system_models_are must give the
answers read off the prefix walk's columns; tests/test_column_setup.py
compares both on every class with up to 7 elements.
"""

import itertools
import time

import pytest

from conftest import corpus_posets
import solver_oracle
from solver_cases import cases, expected_columns, expected_tables, selections, setup_disagreements
from spposet import build_poset, check_system, restrict, selection_frink, star_table
from spposet import enumeration
from spposet.axioms import SYSTEMS
from spposet.enumeration import (
    enumerate_extensions,
    enumerate_posets,
    products_equal,
    system_column_solutions,
    system_models_are,
)
from spposet.errors import SpposetError
from spposet.pseudo import MissingWitness

WIDE = ("ESP", "ESPW", "NRMW")  # compared at n <= 4 only (see above)


def disagreements(p, system, sel, tables, star, unforced=True, forced=True):
    """What differs from the oracles: the kept set-up (setup_disagreements);
    the lists, unforced or forced to the star table (a total system on a
    sectionally pseudocomplemented poset); and the yes/no answers, against
    products_equal on the unforced lists, or without them against the
    prefix walk's columns.  Returns the differences and the answers given."""
    found, answers = setup_disagreements(p, system, sel, tables, answers=not unforced)
    forced = forced and system != "SP" and not isinstance(star, MissingWitness)
    if forced or unforced:
        constraints = solver_oracle.system_constraints(p, system, sel)
    if forced and (system_column_solutions(p, system, sel=sel, forced=star)
                   != solver_oracle.system_column_solutions(p, system, sel, star, constraints)):
        found.append("forced lists")
    if unforced:
        want = solver_oracle.system_column_solutions(p, system, sel, None, constraints)
        if system_column_solutions(p, system, sel=sel) != want:
            found.append("lists")
        for table, got in answers:
            if got != products_equal(want, expected_columns(p, system, table)):
                found.append(("yes/no", table))
    return found, {got for _, got in answers}


def comparisons():
    """Per poset: its expected tables, its star table and its (system,
    selection, unforced, forced) comparisons, as the module notes say."""
    # streamed, so that each poset, with the tables and set-ups it keeps, is
    # freed once compared: a list of them all peaks at about 400 MB
    labeled = ((p, True) for n in range(1, 6) for p in enumerate_posets(n))
    for p, is_labeled in itertools.chain(labeled, ((p, False) for p in corpus_posets())):
        runs, sels = [], selections(p)
        for system, sel in cases(p, sels):
            wide = system in WIDE
            if is_labeled and p.n == 5:
                runs.append((system, sel, not wide, False))
            else:
                runs.append((system, sel, is_labeled or not wide, True))
        yield p, expected_tables(p, sels), star_table(p), runs


def test_solver_matches_the_oracle():
    answers = set()
    for p, tables, star, runs in comparisons():
        for system, sel, unforced, forced in runs:
            found, given = disagreements(p, system, sel, tables, star, unforced, forced)
            assert not found, (p.name, system, sel and sel.kind, found)
            answers |= given
    assert answers == {True, False}


@pytest.mark.parametrize("theorem,system,text", [
    ("T-SPCHAR", "SP", "star tables satisfying the axioms differ from the sectional "
                       "pseudocomplementation"),
    ("T-NRM-AX", "NRM", "tables satisfying the normality axioms differ from the normal extension"),
    ("T-J-EQ-NRM", "J", "tables satisfying j1-j3 differ from the normal extension"),
    ("T-LAT-F-EQ-J", "JWV2", "tables satisfying the lattice identities differ from the "
                             "Frink-natural extension"),
])
def test_a_failing_check_reports_the_solution_counts(monkeypatch, diamond, theorem, system, text):
    # the checks ask yes or no, and list the solutions only to report a "no"
    counts = [len(c) for c in system_column_solutions(diamond, system)]
    monkeypatch.setattr(enumeration, "system_models_are", lambda *a, **k: False)
    ce = enumeration.THEOREMS[theorem].check(diamond)
    assert ce.witness == f"{text} (solution counts per column: {counts})"


# -- mutations the differential must catch ----------------------------------------------


def _differs(posets, kind):
    """Whether some comparison of the kind ("lists" or "yes/no") differs from the oracle."""
    for p in posets:
        sels = selections(p)
        tables = expected_tables(p, sels)
        if any(kind in (f if isinstance(f, str) else f[0]) for system, sel in cases(p, sels)
               for f in disagreements(p, system, sel, tables, star_table(p))[0]):
            return True
    return False


SMALL = [p for n in range(1, 5) for p in enumerate_posets(n)]


@pytest.mark.parametrize("kept", [True, False], ids=["row-read-first-only", "later-row-read-first-only"])
def test_a_forward_check_over_one_link_direction_is_caught(monkeypatch, kept):
    narrowed = enumeration._narrowed

    def one_direction(dom, links, v, prune=True):
        return narrowed(dom, [link for link in links if link[2] == kept], v, prune)

    monkeypatch.setattr(enumeration, "_narrowed", one_direction)
    assert _differs(SMALL, "lists")


def test_a_yes_no_that_stops_at_the_first_solution_is_caught(monkeypatch):
    solutions = enumeration._Columns.solutions

    def first_only(self, c, forced=None):
        return itertools.islice(solutions(self, c, forced), 1)

    monkeypatch.setattr(enumeration._Columns, "solutions", first_only)
    assert _differs(SMALL + list(corpus_posets()), "yes/no")


# -- 16-element input ---------------------------------------------------------------------


def _antichain(n):
    return build_poset(f"antichain{n}", [f"a{i}" for i in range(n)], [])


def _chain(n):
    return build_poset(f"chain{n}", [f"c{i}" for i in range(n)],
                       [(f"c{i}", f"c{i + 1}") for i in range(n - 1)])


def _boolean(k):
    els = [format(i, f"0{k}b") for i in range(1 << k)]
    return build_poset(f"2^{k}", els, [(els[i], els[i | 1 << b]) for i in range(1 << k)
                                       for b in range(k) if not i >> b & 1])


SIXTEEN = {"antichain": _antichain(16), "chain": _chain(16), "2^4": _boolean(4)}
CEILING_S = 5.0  # the aim is 1 s; the ceiling leaves room for a slow shared machine


def _returns_or_refuses(call):
    start = time.perf_counter()
    try:
        outcome = call()
    except SpposetError as exc:
        outcome = type(exc).__name__
    return outcome, time.perf_counter() - start


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("name", sorted(SIXTEEN))
def test_yes_no_on_sixteen_elements(name, system):
    p = SIXTEEN[name]
    sel = selection_frink(p) if system == "NATI" else None
    for table in expected_tables(p, selections(p)):
        outcome, took = _returns_or_refuses(lambda: system_models_are(p, system, table, sel=sel))
        print(f"{name} {system} {'table' if table else 'None'}: {outcome} in {took:.3f} s")
        assert took < CEILING_S


@pytest.mark.parametrize("system", ["J", "NRM"])
@pytest.mark.parametrize("name", sorted(SIXTEEN))
def test_solution_lists_on_sixteen_elements(name, system):
    p = SIXTEEN[name]
    outcome, took = _returns_or_refuses(lambda: [len(c) for c in system_column_solutions(p, system)])
    print(f"{name} {system}: {outcome} in {took:.3f} s")
    assert took < CEILING_S


@pytest.mark.parametrize("system", sorted(s for s in SYSTEMS if SYSTEMS[s]["kind"] == "total"))
@pytest.mark.parametrize("name", sorted(SIXTEEN))
def test_streams_on_sixteen_elements(name, system):
    p = SIXTEEN[name]
    star = star_table(p)
    sel = selection_frink(p) if system == "NATI" else None
    outcome, took = _returns_or_refuses(
        lambda: list(itertools.islice(enumerate_extensions(star, system, sel=sel), 10)))
    print(f"{name} {system}: {outcome if isinstance(outcome, str) else len(outcome)} in {took:.3f} s")
    assert took < CEILING_S
    if name == "2^4" and system in ("J", "NRM", "NAT"):
        assert len(outcome) == 1  # the one table, among 175 free cells
    for t in outcome if isinstance(outcome, list) else ():
        assert restrict(t) == star
        # NRMW constrains no column, so its tables need not satisfy it
        assert system == "NRMW" or check_system(p, t, system, sel=sel).holds
