"""The column solver against its oracle, and on 16-element input.

The oracle (solver_oracle.py) is the solver before it checked forward and set
up per column.  Its solution lists must equal the solver's, in order, and
system_models_are must answer what products_equal answers on the oracle's
lists, for every system on every labeled poset with up to 5 elements and on
the corpus.  ESP, ESPW and NRMW are left out at n = 5, and on the corpus
compared only forced to the star table (as enumerate_extensions reads them):
their columns hold up to n^(n-1) vectors each (NRMW n^n), and their 4231
lists at n = 5 take about 40 s on one core.  Lists forced to the star table
are compared at n <= 4 and on the corpus.
"""

import itertools
import time

import pytest

from conftest import corpus_posets
import solver_oracle
from spposet import (
    build_poset,
    i_natural_extension,
    normal_extension,
    selection_frink,
    selection_union,
    star_table,
)
from spposet import enumeration
from spposet.axioms import SYSTEMS, require_system
from spposet.enumeration import (
    enumerate_posets,
    products_equal,
    system_column_solutions,
    system_models_are,
    table_as_columns,
)
from spposet.errors import SpposetError, StructureMismatch
from spposet.pseudo import MissingWitness, TotalTable

WIDE = ("ESP", "ESPW", "NRMW")  # compared at n <= 4 only (see above)


def cases(p):
    """(system, selection) pairs the poset has the structure for."""
    for system in SYSTEMS:
        sels = [selection_union(p), selection_frink(p)] if system == "NATI" else [None]
        for sel in sels:
            if system != "NRMW":
                try:
                    require_system(p, system, sel)
                except StructureMismatch:
                    continue
            yield system, sel


def expected_tables(p):
    """None, and the star, normal, Frink-natural and union-natural tables p
    has, each once."""
    star = star_table(p)
    tables = [i_natural_extension(p, make(p)).table for make in (selection_frink, selection_union)]
    if not isinstance(star, MissingWitness):
        tables += [star, normal_extension(star).table]
    distinct = {}
    for t in tables:
        if t is not None:
            distinct.setdefault((type(t), t.cells), t)
    return [None, *distinct.values()]


def expected_columns(p, system, table):
    if table is None:
        return [[]]
    rows = [[r for r in range(p.n) if p.leq_ix(c, r)] if system == "SP" else range(p.n)
            for c in range(p.n)]
    return table_as_columns(table, rows)


def comparable(system, table):
    """Whether the system's columns can be read off the table: SP reads any
    table over its rows; a total system needs a total table, or None."""
    return system == "SP" or table is None or isinstance(table, TotalTable)


def disagreements(p, system, sel, tables, star, unforced=True, forced=True):
    """What differs from the oracle: the lists, unforced or forced to the star
    table (a total system on a sectionally pseudocomplemented poset), or the
    yes/no answer against a table (with the unforced lists).  Returns the
    differences and the answers given."""
    found = []
    if forced and system != "SP" and not isinstance(star, MissingWitness) and (
            system_column_solutions(p, system, sel=sel, forced=star)
            != solver_oracle.system_column_solutions(p, system, sel=sel, forced=star)):
        found.append("forced lists")
    if not unforced:
        return found, set()
    want = solver_oracle.system_column_solutions(p, system, sel=sel)
    if system_column_solutions(p, system, sel=sel) != want:
        found.append("lists")
    given = set()
    for table in tables:
        if comparable(system, table):
            got = system_models_are(p, system, table, sel=sel)
            given.add(got)
            if got != products_equal(want, expected_columns(p, system, table)):
                found.append(("yes/no", table))
    return found, given


def comparisons():
    """Per poset: its expected tables, its star table and its (system,
    selection, unforced, forced) comparisons, as the module notes say."""
    labeled = [(p, True) for n in range(1, 6) for p in enumerate_posets(n)]
    for p, is_labeled in labeled + [(p, False) for p in corpus_posets()]:
        runs = []
        for system, sel in cases(p):
            wide = system in WIDE
            if is_labeled and p.n == 5:
                if not wide:
                    runs.append((system, sel, True, False))
            else:
                runs.append((system, sel, is_labeled or not wide, True))
        yield p, expected_tables(p), star_table(p), runs


def test_solver_matches_the_oracle():
    answers = set()
    for p, tables, star, runs in comparisons():
        for system, sel, unforced, forced in runs:
            found, given = disagreements(p, system, sel, tables, star, unforced, forced)
            assert not found, (p.name, system, sel and sel.kind, found)
            answers |= given
    assert answers == {True, False}


@pytest.mark.parametrize("check,system,text", [
    ("_check_spchar", "SP", "star tables satisfying the axioms differ from the sectional "
                            "pseudocomplementation"),
    ("_check_nrm_ax", "NRM", "tables satisfying the normality axioms differ from the normal extension"),
    ("_check_j_eq_nrm", "J", "tables satisfying j1-j3 differ from the normal extension"),
    ("_check_lat_f_eq_j", "JWV2", "tables satisfying the lattice identities differ from the "
                                  "Frink-natural extension"),
])
def test_a_failing_check_reports_the_solution_counts(monkeypatch, diamond, check, system, text):
    # the checks ask yes or no, and list the solutions only to report a "no"
    counts = [len(c) for c in system_column_solutions(diamond, system)]
    monkeypatch.setattr(enumeration, "system_models_are", lambda *a, **k: False)
    ce = getattr(enumeration, check)(diamond)
    assert ce.witness == f"{text} (solution counts per column: {counts})"


# -- mutations the differential must catch ----------------------------------------------


def _differs(posets, kind):
    """Whether some comparison of the kind ("lists" or "yes/no") differs from the oracle."""
    return any(kind in (f if isinstance(f, str) else f[0])
               for p in posets for system, sel in cases(p)
               for f in disagreements(p, system, sel, expected_tables(p), star_table(p))[0])


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
    for table in expected_tables(p):
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
