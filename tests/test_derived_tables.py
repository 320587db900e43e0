"""The tables a Poset derives from its order, against oracles taken from the definitions.

Each oracle reads the order through leq_ix alone and follows the definition
of its table literally: a meet is the common lower bound above all the others,
a section top the member of [x) above all of [x), and so on.  Every cached
table must equal its oracle, be an immutable value, be built on its first read
only, and come back as the same object on every later read.  For the union
and Frink selections the value compared is the selection's rows, and each
selection keeps its law context the way a poset does.
"""

import dataclasses

import pytest

from conftest import corpus_posets
from spposet import (
    LocalSelection,
    MissingWitness,
    PartialTable,
    StructureReport,
    TotalTable,
    build_poset,
    check_system,
    i_natural_extension,
    selection_frink,
    selection_union,
    star_table,
)
from spposet.axioms import LawContext
from spposet.enumeration import enumerate_posets
from spposet.poset import Poset

# bound_witness_masks reads meet_over_masks and normal_table reads star, so
# each comes after the table it reads: each table is built on its own first read
TABLES = ("meets", "joins", "meet_masks", "mlbs", "tops", "disjoint_over_masks", "meet_over_masks",
          "_structure", "star", "normal_table", "bound_witness_masks", "union_selection",
          "frink_selection")


def _greatest(le, members):
    return next((u for u in members if all(le[v][u] for v in members)), None)


def _least(le, members):
    return next((u for u in members if all(le[u][v] for v in members)), None)


def _maximal(le, members):
    return [u for u in members if not any(v != u and le[u][v] for v in members)]


def _minimal(le, members):
    return [u for u in members if not any(v != u and le[v][u] for v in members)]


def _mask(members):
    return sum(1 << u for u in members)


def oracle_tables(p):
    r = range(p.n)
    le = [[p.leq_ix(i, j) for j in r] for i in r]
    lower = [[[z for z in r if le[z][i] and le[z][j]] for j in r] for i in r]
    upper = [[[z for z in r if le[i][z] and le[j][z]] for j in r] for i in r]
    between = [[[w for w in r if le[b][w] and le[w][u]] for u in r] for b in r]  # [b, u]

    def common(b, u, z):  # [b, u] n [b, z]
        return [w for w in between[b][u] if le[w][z]]

    meets = tuple(tuple(_greatest(le, lower[i][j]) for j in r) for i in r)
    # the (u, z) with [b,u] n [b,z] = {b}, per b
    only = [[(u, z) for u in r for z in r if common(b, u, z) == [b]] for b in r]
    star = oracle_star(p, le, common)
    return {
        "meets": meets,
        "meet_masks": tuple(tuple(_mask(j for j in r if meets[i][j] == w) for w in r) for i in r),
        "joins": tuple(tuple(_least(le, upper[i][j]) for j in r) for i in r),
        "mlbs": tuple(tuple(_mask(_maximal(le, lower[i][j])) for j in r) for i in r),
        "tops": tuple(_greatest(le, [z for z in r if le[i][z]]) for i in r),
        # disjoint_over(u, z, b): [b,u] and [b,z] meet at most in b
        "disjoint_over_masks": tuple(tuple(
            _mask(z for z in r if all(w == b for w in common(b, u, z))) for b in r) for u in r),
        # meet_over(u, z, b) == b: [b,u] n [b,z] = [b,b] = {b}
        "meet_over_masks": tuple(tuple(
            _mask(z for z in r if common(b, u, z) == [b]) for b in r) for u in r),
        "_structure": oracle_structure(p, le),
        "star": star,
        "normal_table": oracle_normal(le, upper, star),
        # the v below some u with [y,u] n [y,z] = {y} for some z >= x
        "bound_witness_masks": tuple(tuple(
            _mask(v for v in r if any(le[v][u] and le[x][z] for u, z in only[y])) for y in r) for x in r),
        # I(x, y) = (x] u (y], and L(U({x, y}))
        "union_selection": tuple(tuple(_mask(z for z in r if le[z][i] or le[z][j]) for j in r) for i in r),
        "frink_selection": tuple(tuple(
            _mask(z for z in r if all(le[z][u] for u in upper[i][j])) for j in r) for i in r),
    }


def oracle_structure(p, le):
    """The classify() flags, each false one witnessed by its first pair
    (i < j, row-major), or by the first two extremal elements."""
    r, els = range(p.n), p.elements
    pair_laws = {
        "is_chain": lambda i, j, lo, up: le[i][j] or le[j][i],
        "is_up_directed": lambda i, j, lo, up: bool(up),
        "is_upper_semilattice": lambda i, j, lo, up: _least(le, up) is not None,
        "is_lower_semilattice": lambda i, j, lo, up: _greatest(le, lo) is not None,
        "is_nearlattice": lambda i, j, lo, up: not lo or _greatest(le, lo) is not None,
        "all_lower_sections_chains": lambda i, j, lo, up: le[i][j] or le[j][i] or not up,
    }
    wit = {}
    for flag, law in pair_laws.items():
        for i in r:
            for j in range(i + 1, p.n):
                lo = [z for z in r if le[z][i] and le[z][j]]
                up = [z for z in r if le[i][z] and le[j][z]]
                if flag not in wit and not law(i, j, lo, up):
                    wit[flag] = (els[i], els[j])
    for flag, extremal in (("has_greatest", _maximal), ("has_least", _minimal)):
        found = extremal(le, list(r))
        if len(found) > 1:
            wit[flag] = (els[found[0]], els[found[1]])
    for i in r:
        tops = _maximal(le, [z for z in r if le[i][z]])
        if len(tops) > 1:
            wit["is_sectionally_bounded"] = (els[tops[0]], els[tops[1]])
            break
    for flag in ("is_upper_semilattice", "is_lower_semilattice"):
        if flag in wit:
            wit.setdefault("is_lattice", wit[flag])
    flags = {f.name: f.name not in wit for f in dataclasses.fields(StructureReport)
             if f.name != "witnesses"}
    return flags, wit


def oracle_star(p, le, common):
    """sp(x, y) = max {u : [y,u] n [y,x] = {y}} for every y <= x, or the first
    pair without it and the maximal elements of its defining set."""
    r = range(p.n)
    cells = [[None] * p.n for _ in r]
    for x in r:
        for y in r:
            if le[y][x]:
                defining = [u for u in r if common(y, u, x) == [y]]
                cells[x][y] = _greatest(le, defining)
                if cells[x][y] is None:
                    anti = tuple(p.elements[u] for u in _maximal(le, defining))
                    return MissingWitness(p.elements[x], p.elements[y], anti)
    return tuple(tuple(row) for row in cells)


def oracle_normal(le, upper, star):
    """The greatest z*y over the common upper bounds z of x and y, for every
    x and y; None without a star table or where some pair has no such z*y."""
    if isinstance(star, MissingWitness):
        return None
    r = range(len(le))
    cells = tuple(tuple(_greatest(le, {star[z][y] for z in upper[x][y]}) for y in r) for x in r)
    return None if any(None in row for row in cells) else cells


def comparable(name, value):
    """A cached table in the oracle's form."""
    if name == "_structure":
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return fields, dict(fields.pop("witnesses"))
    if isinstance(value, (PartialTable, TotalTable)):
        return value.cells
    if isinstance(value, LocalSelection):
        return value.rows
    return value


def assert_immutable(value):
    if isinstance(value, tuple):
        for item in value:
            assert_immutable(item)
    elif isinstance(value, StructureReport):
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.is_chain = not value.is_chain
        with pytest.raises(TypeError):
            value.witnesses["is_chain"] = ("x", "y")
        assert_immutable(tuple(value.witnesses.values()))
    elif isinstance(value, (PartialTable, TotalTable)):
        assert_immutable(value.cells)
    elif isinstance(value, LocalSelection):
        assert_immutable(value.rows)
    elif isinstance(value, MissingWitness):
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.x = "x"
        assert_immutable(value.candidates)
    else:
        assert value is None or isinstance(value, (int, str)), value


def _sixteen():
    """Two interleaved copies of the Boolean lattice on three atoms: element k
    is the subset k // 2 of copy k % 2.  It has a full star table, and pairs
    from different copies have no meet and no join."""
    names = [f"e{k}" for k in range(16)]
    return build_poset("B3+B3", names, [(names[k], names[m]) for k in range(16) for m in range(16)
                                        if k % 2 == m % 2 and k // 2 & ~(m // 2) == 0])


def test_cached_tables_equal_their_oracles_and_are_built_once(monkeypatch):
    builds = {name: 0 for name in TABLES}
    for name in TABLES:
        derived = vars(Poset)[name]

        def counting(p, build=derived.build, name=name):
            builds[name] += 1
            return build(p)

        monkeypatch.setattr(derived, "build", counting)

    posets = [p for n in range(1, 6) for p in enumerate_posets(n)]
    posets += list(corpus_posets()) + [_sixteen()]
    assert len(posets) == 4473 + 8 + 1
    for p in posets:
        expected = oracle_tables(p)
        for name in TABLES:
            before = dict(builds)
            value = getattr(p, name)
            # built on this first read, and no other table with it
            assert builds == {**before, name: before[name] + 1}, (p.name, name)
            assert comparable(name, value) == expected[name], (p.name, name)
            assert_immutable(value)
            assert getattr(p, name) is value
            assert builds[name] == before[name] + 1
        assert p.classify() is p._structure and star_table(p) is p.star
        assert selection_union(p) is p.union_selection and selection_frink(p) is p.frink_selection
    assert set(builds.values()) == {len(posets)}


@pytest.mark.parametrize("make", [selection_union, selection_frink])
def test_a_selection_keeps_its_law_context(make, monkeypatch):
    p = build_poset("2x2", ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    sel = make(p)
    assert sel.laws is sel.laws and sel.laws.sel is sel and sel.laws is not p.laws
    t = i_natural_extension(p, sel).table
    steps = []
    walk = LawContext._steps
    monkeypatch.setattr(LawContext, "_steps", lambda e, law: steps.append(law) or walk(e, law))
    # the first read of a law streams its plan, the second keeps it
    for _ in range(2):
        assert check_system(p, t, "NATI", sel).holds
    assert steps
    steps.clear()
    assert check_system(p, t, "NATI", sel).holds
    assert steps == []
