"""What the column solver is compared on, and the comparison of its kept
set-up with the prefix walk (solver_oracle.PrefixWalkColumns): the systems a
poset has the structure for, the tables it has, and the differences."""

from spposet import i_natural_extension, selection_frink, selection_union, star_table
from spposet.axioms import SYSTEMS, require_system
from spposet.enumeration import _Columns, system_models_are, table_as_columns
from spposet.errors import StructureMismatch
from spposet.pseudo import MissingWitness, TotalTable

import solver_oracle


def selections(p):
    """The union and Frink selections over p, built once for cases and
    expected_tables."""
    return selection_union(p), selection_frink(p)


def cases(p, sels):
    """(system, selection) pairs the poset has the structure for; NATI under
    each of the selections `sels`."""
    for system in SYSTEMS:
        for sel in sels if system == "NATI" else [None]:
            if system != "NRMW":
                try:
                    require_system(p, system, sel)
                except StructureMismatch:
                    continue
            yield system, sel


def expected_tables(p, sels):
    """None, and the star, normal, Frink-natural and union-natural tables p
    has, each once; `sels` are p's selections."""
    union, frink = sels
    star = star_table(p)
    tables = [i_natural_extension(p, sel).table for sel in (frink, union)]
    if not isinstance(star, MissingWitness):
        tables += [star, p.normal_table]
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


def setup_disagreements(p, system, sel, tables, answers=True):
    """Where the kept set-up differs from the prefix walk: a column's rows,
    masks or links, or, with `answers`, system_models_are's answer against a
    table the system can read.  The answers are asked first, so that they
    build the set-up.  Returns the differences and (table, answer) per table
    asked."""
    want, firsts = solver_oracle.prefix_walk_columns(p, system, sel), {}
    found, given = [], []
    for table in tables:
        if comparable(system, table):
            got = system_models_are(p, system, table, sel=sel)
            given.append((table, got))
            if answers and got != solver_oracle.models_are(want, table, firsts):
                found.append(("yes/no (prefix walk)", table))
    cols = _Columns(p, system, sel)
    for c, (rows, dom, links) in enumerate(want):
        got_dom, got_links = cols.column(c)
        if (cols.rows(c), got_dom, [list(row) for row in got_links]) != (rows, dom, links):
            found.append(("set-up", c))
    return found, given
