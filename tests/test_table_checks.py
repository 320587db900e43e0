"""Table checks and the always-total rules built from row masks, against the
cell loops they replaced.

PartialTable checks its domain one row mask at a time (pseudo._check_domain,
shared with from_ids), TotalTable checks each row with two C-level tests, and
pure_extension and natural_extension fill each row from the order masks.  The
oracles are the earlier cell-by-cell loops; the partial one admits only int
cells in range(n), as TotalTable does, and both raise MalformedTable, a
toolkit error that is also a ValueError.  The checks are compared, error
type and message, on the corpus tables, on the star tables of every class with
up to 6 elements, and on seeded mutations of one to three cells of each: a
missing value, a value outside the domain and a value out of range.  The rules
are compared on every class with up to 6 elements and on the corpus, on
the star table and on a table of arbitrary values over the same domain.
"""

import importlib.resources
import random

import pytest

from conftest import corpus_posets
from spposet import (
    PartialTable,
    TotalTable,
    build_poset,
    natural_extension,
    parse_path,
    pure_extension,
    star_table,
)
from spposet.enumeration import enumerate_posets
from spposet.errors import MalformedTable, NotSectionallyBounded, SpposetError


def oracle_partial(owner, cells):
    n = owner.n
    for x in range(n):
        for y in range(n):
            v = cells[x][y]
            if owner.leq_ix(y, x):
                if v is None:
                    raise MalformedTable(
                        f"missing value at sectioned pair ({owner.elements[x]}, {owner.elements[y]})")
                if not (isinstance(v, int) and 0 <= v < n):
                    raise MalformedTable(f"value out of range at ({x}, {y})")
            elif v is not None:
                raise MalformedTable(
                    f"value outside the domain y <= x at ({owner.elements[x]}, {owner.elements[y]})")


def oracle_total(owner, cells):
    n = owner.n
    for row in cells:
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise MalformedTable("total table must map every pair to an element")


def oracle_pure(s):
    p, tops = s.owner, s.owner.tops
    return [[s.cells[x][y] if p.leq_ix(y, x) else tops[x] if p.leq_ix(x, y) else y for y in range(p.n)]
            for x in range(p.n)]


def oracle_natural(s):
    p, tops = s.owner, s.owner.tops
    return [[s.cells[x][y] if p.leq_ix(y, x) else tops[y] for y in range(p.n)] for x in range(p.n)]


def outcome(f, *args):
    """None when f(*args) returns, else the type and message of what it raises."""
    try:
        f(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return None


class Big(int):
    """An int subclass, which both total-table checks admit."""


def corpus_tables():
    for f in sorted(importlib.resources.files("spposet.corpus").iterdir()):
        if f.name.endswith(".sp"):
            for sec in parse_path(str(f)).sections:
                if sec.kind == "optable":
                    yield sec.obj


def posets():
    return [p for n in range(1, 7) for p in enumerate_posets(n, "up-to-iso")] + list(corpus_posets())


def star_tables():
    return [s for s in map(star_table, posets()) if isinstance(s, PartialTable)]


def partial_mutations(rng, s, count):
    p, n = s.owner, s.owner.n
    bad = [n, n + 3, -1, 2 ** 70, 1.5, "a"]
    for _ in range(count):
        cells = [list(row) for row in s.cells]
        for _ in range(rng.randint(1, 3)):
            x, y = rng.randrange(n), rng.randrange(n)
            kind = rng.choice(("missing", "outside", "range"))
            if p.leq_ix(y, x):
                cells[x][y] = None if kind == "missing" else rng.choice(bad) if kind == "range" else rng.randrange(n)
            elif kind == "outside":
                cells[x][y] = rng.randrange(n)
        yield cells


def ids(p, cells):
    return [[None if v is None else p.elements[v] for v in row] for row in cells]


def test_partial_check_matches_the_cell_loop():
    rng = random.Random(2701)
    tables = star_tables() + [t for t in corpus_tables() if isinstance(t, PartialTable)]
    assert len(tables) == 141 + 3
    raised = set()
    for s in tables:
        p = s.owner
        assert outcome(PartialTable, p, s.cells) is None is outcome(oracle_partial, p, s.cells)
        for cells in partial_mutations(rng, s, 6):
            expected = outcome(oracle_partial, p, cells)
            assert outcome(PartialTable, p, cells) == expected, (p.name, cells)
            if all(v is None or v in range(p.n) for row in cells for v in row):
                assert outcome(PartialTable.from_ids, p, ids(p, cells)) == expected, (p.name, cells)
            if expected:
                raised.add(expected[1].split(" at ")[0])
    assert raised >= {"missing value", "value outside the domain y <= x", "value out of range"}


def test_partial_cells_are_ints_as_total_cells_are():
    p = build_poset("c2", ["0", "1"], [("0", "1")])
    for bad in (1.5, "a", 1.0):  # none an int, though 1.0 == 1
        with pytest.raises(ValueError, match=r"^value out of range at \(1, 1\)$"):
            PartialTable(p, [[0, None], [0, bad]])
    # bools are ints, as TotalTable admits them
    assert PartialTable(p, [[False, None], [True, True]]).value("1", "1") == "1"
    assert PartialTable(p, [[0, None], [0, True]]) == PartialTable(p, [[0, None], [0, 1]])
    # an earlier missing cell in row-major order is named first
    with pytest.raises(ValueError, match=r"^missing value at sectioned pair \(1, 0\)$"):
        PartialTable(p, [[0, None], [None, 1.5]])


@pytest.mark.parametrize("make,cells,message", [
    (TotalTable, [[0, 1]], r"^table must be 2x2$"),
    (TotalTable, [[0, 1], [1]], r"^table must be 2x2$"),
    (PartialTable, [[0, None]], r"^table must be 2x2$"),
    (PartialTable.from_ids, [["0", None], ["0", "1", "1"]], r"^table must be 2x2$"),
    (PartialTable, [[0, None], [0, 2]], r"^value out of range at \(1, 1\)$"),
    (PartialTable, [[0, None], [None, 1]], r"^missing value at sectioned pair \(1, 0\)$"),
    (PartialTable, [[0, 0], [0, 1]], r"^value outside the domain y <= x at \(0, 1\)$"),
    (TotalTable, [[0, 1], [1, 2]], r"^total table must map every pair to an element$"),
    (TotalTable, [[0, 1], [1, 1.0]], r"^total table must map every pair to an element$"),
], ids=["total-short", "total-ragged", "partial-short", "from-ids-ragged", "out-of-range",
        "missing", "outside-domain", "total-out-of-range", "total-float"])
def test_a_malformed_table_is_a_toolkit_error(make, cells, message):
    # a user error, which the CLI reports as one; still a ValueError, as before
    p = build_poset("c2", ["0", "1"], [("0", "1")])
    with pytest.raises(MalformedTable, match=message) as info:
        make(p, cells)
    assert isinstance(info.value, SpposetError) and isinstance(info.value, ValueError)


def test_total_check_matches_the_cell_loop():
    rng = random.Random(2702)
    tables = [t for t in corpus_tables() if isinstance(t, TotalTable)]
    tables += [natural_extension(s) for s in star_tables() if None not in s.owner.tops]
    for t in tables:
        p, n = t.owner, t.owner.n
        assert outcome(TotalTable, p, t.cells) is None is outcome(oracle_total, p, t.cells)
        for v in (-1, n, 1.0, None, True, False, Big(0), Big(n), 2 ** 70, "0"):
            cells = [list(row) for row in t.cells]
            cells[rng.randrange(n)][rng.randrange(n)] = v
            assert outcome(TotalTable, p, cells) == outcome(oracle_total, p, cells), (p.name, v)


def test_pure_and_natural_rules_match_the_cell_loops():
    rng = random.Random(2703)
    bounded = 0
    for p in posets():
        # a table of arbitrary values on the domain y <= x, and the star table
        tables = [PartialTable(p, [[rng.randrange(p.n) if p.leq_ix(y, x) else None for y in range(p.n)]
                                   for x in range(p.n)])]
        tables += [s for s in [star_table(p)] if isinstance(s, PartialTable)]
        if None in p.tops:
            for rule in (pure_extension, natural_extension):
                with pytest.raises(NotSectionallyBounded):
                    rule(tables[0])
            continue
        bounded += 1
        for t in tables:
            assert pure_extension(t) == TotalTable(p, oracle_pure(t)), p.name
            assert natural_extension(t) == TotalTable(p, oracle_natural(t)), p.name
    assert bounded == 153
