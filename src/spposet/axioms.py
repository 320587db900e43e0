"""Deciders for the named axiom systems and law suites on concrete operation tables.

check_system sweeps every quantified instance of the requested system and
reports the lexicographically first witness per failed axiom, so a report is
replayable: feeding a witness back through the axiom predicate fails again.
Axiom identifiers follow the usual naming for these systems (sp1..sp3,
esp1..esp3, nat1..nat3, nrm0..nrm3, j1..j3, the semilattice identities
esp^1/esp^2, nrm^0..nrm^4, and the lattice identities jwv1/jwv2/jwv2').
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalDisagreement, MissingSelection, NotSectionallyBounded, StructureMismatch
from .extensions import LocalSelection, normal_extension
from .pseudo import (
    ItemResult,
    MissingWitness,
    PartialTable,
    PropertyReport,
    TotalTable,
    restrict,
    star_table,
)
from .poset import Poset, bits


@dataclass(frozen=True)
class AxiomReport:
    system: str
    holds: bool
    violations: tuple[tuple[str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: tuple[str, ...] | None = None

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class ImplicativityReport:
    left: Verdict
    right: Verdict


@dataclass(frozen=True)
class SubalgebraReport:
    closed: bool
    induced_is_same_kind: bool
    witness: tuple[str, ...] | None = None


# -- axiom sweeps ---------------------------------------------------------------
#
# Each checker returns the first failing witness tuple (in the axiom's own
# variable order, lexicographic by declaration index) or None.

def _mlb_table(p: Poset):
    return [[p.maximal_of(p.downs[i] & p.downs[j]) for j in range(p.n)] for i in range(p.n)]


def _sweep_sp(p: Poset, s: PartialTable):
    n, els, c = p.n, p.elements, s.cells

    def dom(x, y):
        return c[x][y] is not None

    def sp1():
        for x in range(n):
            for y in range(n):
                if not p.leq_ix(x, y):
                    continue
                for z in range(n):
                    if dom(y, z) and dom(x, z) and not p.leq_ix(c[y][z], c[x][z]):
                        return els[x], els[y], els[z]

    def sp2():
        for x in range(n):
            for y in range(n):
                if dom(x, y) and p.leq_ix(x, c[x][y]) and not p.leq_ix(x, y):
                    return els[x], els[y]

    def sp3():
        mlbs = _mlb_table(p)
        for x in range(n):
            for y in range(n):
                for z in bits(mlbs[x][y]):
                    if dom(y, z) and not p.leq_ix(x, c[y][z]):
                        return els[x], els[y], els[z]

    return [("sp1", sp1), ("sp2", sp2), ("sp3", sp3)]


def _sweep_esp(p: Poset, t: TotalTable):
    n, els, c = p.n, p.elements, t.cells

    def esp1():
        for x in range(n):
            for y in range(n):
                if not p.leq_ix(x, y):
                    continue
                for z in range(n):
                    if p.leq_ix(z, x) and not p.leq_ix(c[y][z], c[x][z]):
                        return els[x], els[y], els[z]

    def esp2():
        for x in range(n):
            for y in range(n):
                if p.leq_ix(y, x) and p.leq_ix(x, c[x][y]) and not p.leq_ix(x, y):
                    return els[x], els[y]

    def esp3():
        mlbs = _mlb_table(p)
        for x in range(n):
            for y in range(n):
                for z in bits(mlbs[x][y]):
                    if not p.leq_ix(x, c[y][z]):
                        return els[x], els[y], els[z]

    return [("esp1", esp1), ("esp2", esp2), ("esp3", esp3)]


def _sweep_espw(p: Poset, t: TotalTable):
    n, els, c = p.n, p.elements, t.cells
    meet = _total_meets(p)

    def espw1():
        for x in range(n):
            for y in range(n):
                w = meet[x][y]
                if meet[x][c[x][w]] != w:
                    return els[x], els[y]

    def espw2():
        for x in range(n):
            for y in range(n):
                w = meet[x][y]
                if not p.leq_ix(x, c[y][w]):
                    return els[x], els[y]

    def espw1_weak():
        for x in range(n):
            for y in range(n):
                w = meet[x][y]
                if not p.leq_ix(meet[x][c[x][w]], y):
                    return els[x], els[y]

    return [("esp^1", espw1), ("esp^2", espw2), ("esp^1'", espw1_weak)]


def _sweep_nat(p: Poset, t: TotalTable):
    n, els, c = p.n, p.elements, t.cells

    def nat1():
        for x in range(n):
            for y in range(n):
                if not p.leq_ix(x, y):
                    continue
                for z in range(n):
                    if not p.leq_ix(c[y][z], c[x][z]):
                        return els[x], els[y], els[z]

    def nat2():
        for x in range(n):
            for y in range(n):
                if p.leq_ix(y, x) and p.leq_ix(x, c[x][y]) and not p.leq_ix(x, y):
                    return els[x], els[y]

    def nat3():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if p.leq_ix(z, x) and p.disjoint_over_ix(x, y, z) and not p.leq_ix(x, c[y][z]):
                        return els[x], els[y], els[z]

    return [("nat1", nat1), ("nat2", nat2), ("nat3", nat3)]


def _sweep_nati(p: Poset, t: TotalTable, sel: LocalSelection):
    n, els, c = p.n, p.elements, t.cells
    base = _sweep_nat(p, t)

    def nati3():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if not p.leq_ix(z, x):
                        continue
                    if all(p.disjoint_over_ix(x, w, z) for w in bits(sel.mask_ix(y, z))):
                        if not p.leq_ix(x, c[y][z]):
                            return els[x], els[y], els[z]

    return [base[0], base[1], ("natI3", nati3)]


def _sweep_nrm(p: Poset, t: TotalTable):
    n, els, c = p.n, p.elements, t.cells
    esp = dict(_sweep_esp(p, t))

    def nrm0():
        for x in range(n):
            for y in range(n):
                if not p.leq_ix(y, c[x][y]):
                    return els[x], els[y]

    def nrm1():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if p.leq_ix(x, c[y][z]) and not p.leq_ix(y, c[x][z]):
                        return els[x], els[y], els[z]

    return [("nrm0", nrm0), ("nrm1", nrm1), ("nrm2", esp["esp2"]), ("nrm3", esp["esp3"])]


def _sweep_nrmw(p: Poset, t: TotalTable):
    n, els, c = p.n, p.elements, t.cells
    meet = _total_meets(p)

    def nrmw0():
        for x in range(n):
            for y in range(n):
                if not p.leq_ix(y, c[x][y]):
                    return els[x], els[y]

    def nrmw1():
        for x in range(n):
            for y in range(n):
                if not p.leq_ix(x, c[c[x][y]][y]):
                    return els[x], els[y]

    def nrmw2():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if not p.leq_ix(c[x][z], c[meet[x][y]][z]):
                        return els[x], els[y], els[z]

    def nrmw3():
        for x in range(n):
            for y in range(n):
                if not p.leq_ix(meet[x][c[x][y]], y):
                    return els[x], els[y]

    def nrmw4():
        for x in range(n):
            for y in range(n):
                if not p.leq_ix(x, c[y][meet[x][y]]):
                    return els[x], els[y]

    def nrmw3p():
        for x in range(n):
            for y in range(n):
                if meet[x][c[x][y]] != meet[x][y]:
                    return els[x], els[y]

    return [("nrm^0", nrmw0), ("nrm^1", nrmw1), ("nrm^2", nrmw2),
            ("nrm^3", nrmw3), ("nrm^4", nrmw4), ("nrm^3'", nrmw3p)]


def _sweep_j(p: Poset, t: TotalTable):
    n, els, c = p.n, p.elements, t.cells

    def j1():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if p.leq_ix(x, c[y][z]) and not p.leq_ix(y, c[x][z]):
                        return els[x], els[y], els[z]

    def j2():
        for x in range(n):
            for y in range(n):
                if p.leq_ix(x, c[x][y]) and not p.leq_ix(x, y):
                    return els[x], els[y]

    def j3():
        for x in range(n):
            for y in range(n):
                w = p.greatest_of(p.downs[x] & p.downs[y])
                if w is not None and not p.leq_ix(x, c[y][w]):
                    return els[x], els[y]

    return [("j1", j1), ("j2", j2), ("j3", j3)]


def _total_meets(p: Poset):
    meet = [[None] * p.n for _ in range(p.n)]
    for i in range(p.n):
        for j in range(p.n):
            meet[i][j] = p.greatest_of(p.downs[i] & p.downs[j])
    return meet


def _total_joins(p: Poset):
    join = [[None] * p.n for _ in range(p.n)]
    for i in range(p.n):
        for j in range(p.n):
            join[i][j] = p.least_of(p.ups[i] & p.ups[j])
    return join


def _sweep_jwv(p: Poset, t: TotalTable, reading: str):
    # Partial-meet identities on an upper semilattice.  The reading decides the
    # fate of instances whose meets do not exist: "existential" demands the
    # meet exist and the identity hold; "both-defined" passes such instances;
    # "one-defined" demands existence when the other side of the identity is
    # defined on its own (which is always the case for jwv1, never an extra
    # demand for jwv2).
    n, els, c = p.n, p.elements, t.cells
    meet = _total_meets(p)
    join = _total_joins(p)
    fail_if_undefined = {
        "existential": {"jwv1": True, "jwv2": True},
        "both-defined": {"jwv1": False, "jwv2": False},
        "one-defined": {"jwv1": True, "jwv2": False},
    }[reading]

    def jwv1():
        for x in range(n):
            for y in range(n):
                m = meet[c[x][y]][join[x][y]]
                if m is None:
                    if fail_if_undefined["jwv1"]:
                        return els[x], els[y]
                elif m != y:
                    return els[x], els[y]

    def jwv2():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    w = meet[join[z][y]][join[x][y]]
                    if w is None:
                        if fail_if_undefined["jwv2"]:
                            return els[x], els[y], els[z]
                    elif not p.leq_ix(z, c[x][w]):
                        return els[x], els[y], els[z]

    return [("jwv1", jwv1), ("jwv2", jwv2)]


def _sweep_jwv2(p: Poset, t: TotalTable):
    n, els, c = p.n, p.elements, t.cells
    meet = _total_meets(p)
    join = _total_joins(p)

    def jwv1():
        for x in range(n):
            for y in range(n):
                if meet[c[x][y]][join[x][y]] != y:
                    return els[x], els[y]

    def jwv2p():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    w = meet[z][join[x][y]]
                    if not p.leq_ix(z, c[x][w]):
                        return els[x], els[y], els[z]

    return [("jwv1", jwv1), ("jwv2'", jwv2p)]


SYSTEMS = {
    "SP": dict(kind="partial", structure=None),
    "ESP": dict(kind="total", structure=None),
    "ESPW": dict(kind="total", structure="lower"),
    "NAT": dict(kind="total", structure=None),
    "NATI": dict(kind="total", structure=None, selection=True),
    "NRM": dict(kind="total", structure=None),
    "NRMW": dict(kind="total", structure="lower"),
    "J": dict(kind="total", structure=None),
    "JWV": dict(kind="total", structure="upper"),
    "JWV2": dict(kind="total", structure="lattice"),
}


def require_system(p: Poset, system: str, sel: LocalSelection | None = None) -> dict:
    """The SYSTEMS entry of a known system whose structure p has and whose selection is given.

    Raises StructureMismatch for an unknown system or a poset without the
    needed semilattice or lattice structure, and MissingSelection when the
    system needs a local selection and none is given.
    """
    if system not in SYSTEMS:
        raise StructureMismatch(f"unknown axiom system {system!r}")
    info = SYSTEMS[system]
    struct = info.get("structure")
    if struct:
        rep = p.classify()
        ok = {"lower": rep.is_lower_semilattice, "upper": rep.is_upper_semilattice,
              "lattice": rep.is_lattice}[struct]
        if not ok:
            raise StructureMismatch(f"system {system} needs a {struct} structure")
    if info.get("selection") and sel is None:
        raise MissingSelection(f"system {system} needs a local selection")
    return info


def check_system(p: Poset, op, system: str, sel: LocalSelection | None = None,
                 reading: str = "existential") -> AxiomReport:
    """Decide one axiom system against a concrete (poset, operation) pair."""
    info = require_system(p, system, sel)
    want_partial = info["kind"] == "partial"
    if want_partial and not isinstance(op, PartialTable):
        raise StructureMismatch(f"system {system} needs a partial table")
    if not want_partial and not isinstance(op, TotalTable):
        raise StructureMismatch(f"system {system} needs a total table")
    if op.owner != p:
        raise StructureMismatch("table does not belong to the given poset")
    if reading not in ("existential", "both-defined", "one-defined"):
        raise ValueError(f"unknown reading {reading!r}")

    if system == "SP":
        sweeps = _sweep_sp(p, op)
    elif system == "ESP":
        sweeps = _sweep_esp(p, op)
    elif system == "ESPW":
        sweeps = _sweep_espw(p, op)
    elif system == "NAT":
        sweeps = _sweep_nat(p, op)
    elif system == "NATI":
        sweeps = _sweep_nati(p, op, sel)
    elif system == "NRM":
        sweeps = _sweep_nrm(p, op)
    elif system == "NRMW":
        sweeps = _sweep_nrmw(p, op)
    elif system == "J":
        sweeps = _sweep_j(p, op)
    elif system == "JWV":
        sweeps = _sweep_jwv(p, op, reading)
    else:
        sweeps = _sweep_jwv2(p, op)

    violations = []
    for name, fn in sweeps:
        w = fn()
        if w is not None:
            violations.append((name, w))
    return AxiomReport(system, not violations, tuple(violations))


# -- classification checks ------------------------------------------------------


def is_esp(p: Poset, t: TotalTable) -> Verdict:
    """True iff the restriction of t to sectioned pairs is the sectional pseudocomplementation."""
    st = star_table(p)
    if isinstance(st, MissingWitness):
        return Verdict(False, (st.x, st.y))
    r = restrict(t)
    for x in range(p.n):
        for y in range(p.n):
            if st.cells[x][y] is not None and st.cells[x][y] != r.cells[x][y]:
                return Verdict(False, (p.elements[x], p.elements[y]))
    return Verdict(True)


def implicativity(p: Poset, t: TotalTable) -> ImplicativityReport:
    """Whether the order is recovered from the table via the section tops.

    Left: x <= y iff x -> y is the top of [x); right: the same with [y).
    """
    tops = []
    for i in range(p.n):
        ti = p.section_top_ix(i)
        if ti is None:
            raise NotSectionallyBounded(f"{p.name!r} is not sectionally bounded")
        tops.append(ti)
    left = right = None
    for x in range(p.n):
        for y in range(p.n):
            le = p.leq_ix(x, y)
            if left is None and le != (t.cells[x][y] == tops[x]):
                left = (p.elements[x], p.elements[y])
            if right is None and le != (t.cells[x][y] == tops[y]):
                right = (p.elements[x], p.elements[y])
    return ImplicativityReport(
        Verdict(left is None, left), Verdict(right is None, right))


def is_strong(p: Poset, t: TotalTable) -> Verdict:
    """The law x <= (x -> y) -> y, swept over all pairs."""
    for x in range(p.n):
        for y in range(p.n):
            if not p.leq_ix(x, t.cells[t.cells[x][y]][y]):
                return Verdict(False, (p.elements[x], p.elements[y]))
    return Verdict(True)


def _bound_witness_holds(p: Poset, t: TotalTable) -> bool:
    # v <= x->y  iff  some u >= v and z >= x satisfy [y,u] n [y,z] = {y}.
    for v in range(p.n):
        for x in range(p.n):
            for y in range(p.n):
                by = 1 << y
                found = False
                for u in bits(p.ups[v]):
                    du = p.downs[u] & p.ups[y]
                    if found:
                        break
                    for z in bits(p.ups[x]):
                        if du & p.downs[z] == by:
                            found = True
                            break
                if p.leq_ix(v, t.cells[x][y]) != found:
                    return False
    return True


def is_normal(p: Poset, s: PartialTable, t: TotalTable) -> bool:
    """True iff t is the (total) normal extension of the star table s.

    Cross-checked against the equivalent bound-witness condition
    v <= x->y iff exist u >= v, z >= x with [y,u] n [y,z] = {y}; the two
    answers must agree when s is the sectional pseudocomplementation.
    """
    ext = normal_extension(s)
    by_rule = ext.is_total and ext.table == t
    by_witness = _bound_witness_holds(p, t)
    if by_rule != by_witness:
        raise InternalDisagreement(
            "normal-extension equality and the bound-witness condition disagree")
    return by_rule


# -- lemma suites ----------------------------------------------------------------


def _suite_esp_prop(p: Poset, t: TotalTable):
    n, els, c = p.n, p.elements, t.cells
    tops = [p.section_top_ix(i) for i in range(n)]

    def each_pair(pred):
        for x in range(n):
            for y in range(n):
                if not pred(x, y):
                    return els[x], els[y]

    def each_one(pred):
        for x in range(n):
            if not pred(x):
                return (els[x],)

    items = [
        ("a", lambda: each_pair(lambda x, y: not p.leq_ix(y, x) or p.leq_ix(y, c[x][y]))),
        ("b", lambda: each_pair(lambda x, y: not p.leq_ix(y, x) or p.leq_ix(x, c[c[x][y]][y]))),
        ("c", None),
        ("d", lambda: each_pair(lambda x, y: not p.leq_ix(y, x) or p.leq_ix(y, c[c[x][y]][y]))),
        ("e", lambda: each_pair(lambda x, y: not p.leq_ix(y, x) or c[c[c[x][y]][y]][y] == c[x][y])),
        ("f", lambda: each_one(lambda x: tops[x] is not None and c[x][x] == tops[x])),
        ("g", lambda: each_pair(lambda x, y: not p.leq_ix(y, x) or (tops[y] is not None and p.leq_ix(x, tops[y])))),
        ("h", lambda: each_pair(lambda x, y: not p.leq_ix(y, x) or tops[y] is None or c[tops[y]][x] == x)),
        ("i", lambda: each_pair(lambda x, y: not p.leq_ix(y, x) or tops[x] == tops[y])),
    ]

    def item_c():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if (p.leq_ix(z, x) and p.leq_ix(z, y)
                            and p.leq_ix(x, c[y][z]) and not p.leq_ix(y, c[x][z])):
                        return els[x], els[y], els[z]

    out = []
    for ident, fn in items:
        w = item_c() if ident == "c" else fn()
        out.append(ItemResult(ident, "pass" if w is None else "fail", w))
    return out


def _suite_jext_prop(p: Poset, t: TotalTable):
    n, els, c = p.n, p.elements, t.cells
    nrm = dict((name, fn() is None) for name, fn in _sweep_nrm(p, t))
    top = p.greatest_of(p.full)
    has1 = top is not None

    def guard(*names, need_top=False):
        return all(nrm[k] for k in names) and (not need_top or has1)

    def pairs(pred):
        for x in range(n):
            for y in range(n):
                if not pred(x, y):
                    return els[x], els[y]

    def triples(pred):
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if not pred(x, y, z):
                        return els[x], els[y], els[z]

    def ones(pred):
        for x in range(n):
            if not pred(x):
                return (els[x],)

    spec = [
        ("a", ("nrm1",), False, lambda: pairs(lambda x, y: p.leq_ix(x, c[c[x][y]][y]))),
        ("b", ("nrm1",), False,
         lambda: triples(lambda x, y, z: not p.leq_ix(x, y) or p.leq_ix(c[y][z], c[x][z]))),
        ("c", ("nrm1",), False, lambda: pairs(lambda x, y: c[c[c[x][y]][y]][y] == c[x][y])),
        ("d", ("nrm0", "nrm1"), False, lambda: pairs(lambda x, y: p.leq_ix(x, c[y][y]))),
        ("e", ("nrm1", "nrm3"), True, lambda: ones(lambda x: c[x][x] == top)),
        ("f", ("nrm1", "nrm3"), True, lambda: pairs(lambda x, y: p.leq_ix(y, c[x][y]))),
        ("g", ("nrm1", "nrm3"), True, lambda: pairs(lambda x, y: p.leq_ix(y, c[c[x][y]][y]))),
        ("h", ("nrm1", "nrm3"), True, lambda: ones(lambda x: c[x][top] == top)),
        ("i", ("nrm1", "nrm2", "nrm3"), True, lambda: ones(lambda x: c[top][x] == x)),
        ("j", ("nrm1", "nrm2", "nrm3"), True,
         lambda: pairs(lambda x, y: p.leq_ix(x, y) == (c[x][y] == top))),
    ]
    out = []
    for ident, needs, need_top, fn in spec:
        if not guard(*needs, need_top=need_top):
            out.append(ItemResult(ident, "skipped"))
            continue
        w = fn()
        out.append(ItemResult(ident, "pass" if w is None else "fail", w))
    return out


def _suite_inat_prop(p: Poset, t: TotalTable):
    n, els, c = p.n, p.elements, t.cells
    tops = [p.section_top_ix(i) for i in range(n)]

    def pairs(pred):
        for x in range(n):
            for y in range(n):
                if not pred(x, y):
                    return els[x], els[y]

    def item_d():
        for x in range(n):
            for y in range(n):
                if not p.leq_ix(x, y):
                    continue
                for z in range(n):
                    if not p.leq_ix(c[y][z], c[x][z]):
                        return els[x], els[y], els[z]

    def item_e():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if p.leq_ix(z, y) and p.leq_ix(x, c[y][z]) and not p.leq_ix(y, c[x][z]):
                        return els[x], els[y], els[z]

    items = [
        ("a", lambda: pairs(lambda x, y: p.leq_ix(y, c[x][y]))),
        ("b", lambda: pairs(lambda x, y: p.leq_ix(y, c[c[x][y]][y]))),
        ("c", lambda: pairs(lambda x, y: not p.leq_ix(x, y)
                            or (tops[x] is not None and c[x][y] == tops[x] and tops[x] == tops[y]))),
        ("d", item_d),
        ("e", item_e),
        ("f", lambda: pairs(lambda x, y: tops[y] is not None and p.leq_ix(c[x][y], tops[y]))),
        ("g", lambda: pairs(lambda x, y: tops[y] is None or c[x][tops[y]] == tops[y])),
    ]
    out = []
    for ident, fn in items:
        w = fn()
        out.append(ItemResult(ident, "pass" if w is None else "fail", w))
    return out


def _suite_simpl_i(p: Poset, sel: LocalSelection):
    n, els = p.n, p.elements

    def item_a():
        for u in range(n):
            for x in range(n):
                for y in range(n):
                    im = sel.mask_ix(x, y)
                    lhs = p.downs[u] & im & p.ups[y] & ~(1 << y) == 0
                    rhs = all(p.disjoint_over_ix(u, z, y) for z in bits(im))
                    if lhs != rhs:
                        return els[u], els[x], els[y]

    def item_b():
        for u in range(n):
            for x in range(n):
                for y in range(n):
                    im = sel.mask_ix(x, y)
                    lhs = p.downs[u] & im & p.ups[y] == 1 << y
                    rhs = all(p.meet_over_ix(u, z, y) == y for z in bits(im & p.ups[y]))
                    if lhs != rhs:
                        return els[u], els[x], els[y]

    out = []
    for ident, fn in [("a", item_a), ("b", item_b)]:
        w = fn()
        out.append(ItemResult(ident, "pass" if w is None else "fail", w))
    return out


LEMMA_SUITES = ("esp-prop", "jext-prop", "Inat-prop", "simplI")


def verify_lemma_suite(p: Poset, op, suite: str, sel: LocalSelection | None = None) -> PropertyReport:
    """Run one of the lettered law suites against a total table.

    Items whose stated hypotheses the table does not meet are reported as
    skipped (e.g. the greatest-element items of jext-prop on an unbounded
    poset).  The simplI suite is a pure poset/selection statement and ignores
    the table.
    """
    if suite not in LEMMA_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {LEMMA_SUITES}")
    if suite in ("Inat-prop", "simplI") and sel is None:
        raise MissingSelection(f"suite {suite} needs a local selection")
    if suite == "simplI":
        return PropertyReport(suite, tuple(_suite_simpl_i(p, sel)))
    if not isinstance(op, TotalTable) or op.owner != p:
        raise StructureMismatch(f"suite {suite} needs a total table over the given poset")
    if suite == "esp-prop":
        return PropertyReport(suite, tuple(_suite_esp_prop(p, op)))
    if suite == "jext-prop":
        return PropertyReport(suite, tuple(_suite_jext_prop(p, op)))
    return PropertyReport(suite, tuple(_suite_inat_prop(p, op)))


# -- subalgebras ------------------------------------------------------------------


def subalgebra_closed(p: Poset, op, subset) -> SubalgebraReport:
    """Whether a subset is closed under the operation, and whether the induced
    structure on the sub-poset is again of the same kind.

    For a partial table the induced structure is of the same kind when it is
    exactly the sub-poset's own sectional pseudocomplementation; for a total
    table, when its restriction to the sub-poset passes is_esp.
    """
    members = tuple(subset)
    if not members:
        raise ValueError("subset must be nonempty")
    mask = p.subset_mask(members)
    partial = isinstance(op, PartialTable)
    witness = None
    for x in bits(mask):
        for y in bits(mask):
            v = op.cells[x][y]
            if v is None:
                continue
            if not mask >> v & 1:
                witness = (p.elements[x], p.elements[y])
                break
        if witness:
            break
    if witness:
        return SubalgebraReport(False, False, witness)

    sub = p.restrict(members)
    rows = []
    for x in bits(mask):
        row = []
        for y in bits(mask):
            v = op.cells[x][y]
            row.append(None if v is None else p.elements[v])
        rows.append(row)
    if partial:
        induced = PartialTable.from_ids(sub, rows)
        own = star_table(sub)
        same = isinstance(own, PartialTable) and own.cells == induced.cells
    else:
        induced = TotalTable.from_ids(sub, rows)
        same = is_esp(sub, induced).holds
    return SubalgebraReport(True, same)
