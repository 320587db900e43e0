"""T-GLB by masks (enumeration._check_glb) against the triple loop it replaced.

The loop reads, per (x, y, z), whether z is a maximal lower bound of x and
y, whether it is their meet, and whether meet_over_ix(x, y, z) is z, and
names the first (x, y, z) where the three disagree.  The mask check must
give the same verdict and witness on every labeled poset with up to 5
elements and every class with up to 7, and on disagreements planted in the
meet and maximal-lower-bound tables, and in the local meets, at their first,
middle and last cells.
"""

import pytest

from spposet.enumeration import Counterexample, _check_glb, _serialize, enumerate_posets
from spposet.poset import Poset


def glb_loop(p: Poset):
    meets, mlbs = p.meets, p.mlbs
    for x in range(p.n):
        for y in range(p.n):
            g, mlb = meets[x][y], mlbs[x][y]
            for z in range(p.n):
                a = bool(mlb >> z & 1)
                b = g == z
                c = p.meet_over_ix(x, y, z) == z
                if not (a == b == c):
                    return Counterexample(
                        _serialize(p),
                        f"maximal-lower-bound / meet / local-meet disagree at "
                        f"({p.elements[x]}, {p.elements[y]}, {p.elements[z]})")
    return None


@pytest.mark.parametrize("dedup,max_n", [("labeled", 5), ("up-to-iso", 7)])
def test_the_masks_match_the_loop(dedup, max_n):
    verdicts = set()
    for n in range(1, max_n + 1):
        for p in enumerate_posets(n, dedup):
            got = _check_glb(p)
            assert got == glb_loop(p), p.name
            verdicts.add(got is None)
    assert verdicts == {True, False}


def _planted(p: Poset, table: str, x: int, y: int, monkeypatch):
    """p with one cell of its meet or maximal-lower-bound table changed, or
    with the local meet of x and y over the last element turned over in both
    meet_over_masks and meet_over_ix."""
    if table == "local meets":
        z = p.n - 1
        masks = [list(row) for row in p.meet_over_masks]
        masks[x][z] ^= 1 << y
        p._tables["meet_over_masks"] = tuple(map(tuple, masks))
        meet_over_ix = Poset.meet_over_ix

        def planted(q, i, j, b):
            if q is p and (i, j, b) == (x, y, z):
                return None if meet_over_ix(q, i, j, b) == b else b
            return meet_over_ix(q, i, j, b)

        monkeypatch.setattr(Poset, "meet_over_ix", planted)
        return p
    rows = [list(row) for row in getattr(p, table)]
    if table == "meets":
        rows[x][y] = None if rows[x][y] == 0 else 0
    else:
        rows[x][y] ^= 1 << (p.n - 1)
    p._tables[table] = tuple(map(tuple, rows))
    return p


@pytest.mark.parametrize("table", ["meets", "mlbs", "local meets"])
@pytest.mark.parametrize("cell", ["first", "middle", "last"])
def test_a_planted_disagreement_is_found_where_the_loop_finds_it(table, cell, monkeypatch):
    for p in enumerate_posets(4, "up-to-iso"):
        if p.classify().is_lattice:
            assert _check_glb(p) is None
            x, y = {"first": (0, 0), "middle": (1, 2), "last": (3, 3)}[cell]
            _planted(p, table, x, y, monkeypatch)
            want = glb_loop(p)
            assert want is not None and _check_glb(p) == want
            monkeypatch.undo()
