"""The document reader cell by cell: the reference for fileformat.parse.

`parse` reads a document the way the reader did before it checked whole
masks: tables map every identifier through Poset.index and are checked by
the validating constructors, the order is closed by a fixpoint loop and
tested for antisymmetry pair by pair, and a selection is checked by the pair
walk over every law.  It must give an equal Document, or raise the same
exception with the same message and line, on every input.  Two of its rules
are newer than that reader: '-' may not name an element, and the error for
a '-' in a total table is raised outside the optable's wrapping, so that it
names its line once.
"""

from spposet.errors import (
    AntisymmetryViolation,
    DuplicateElement,
    ParseError,
    SelectionAxiomViolation,
    SizeCap,
    SpposetError,
    UnknownElement,
)
from spposet.extensions import LocalSelection
from spposet.fileformat import Document, Section
from spposet.poset import SIZE_CAP, Poset, bits
from spposet.pseudo import PartialTable, TotalTable


def build_poset(name, elements, pairs):
    elements = tuple(elements)
    if not 1 <= len(elements) <= SIZE_CAP:
        raise SizeCap(f"poset {name!r} must have between 1 and {SIZE_CAP} elements, got {len(elements)}")
    index = {}
    for e in elements:
        if e in index:
            raise DuplicateElement(f"duplicate element {e!r} in poset {name!r}")
        index[e] = len(index)
    n = len(elements)
    ups = [1 << i for i in range(n)]
    for x, y in pairs:
        if x not in index:
            raise UnknownElement(f"{x!r} in a declared pair is not an element of {name!r}")
        if y not in index:
            raise UnknownElement(f"{y!r} in a declared pair is not an element of {name!r}")
        ups[index[x]] |= 1 << index[y]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m = ups[i]
            for j in bits(m):
                m |= ups[j]
            if m != ups[i]:
                ups[i] = m
                changed = True
    for i in range(n):
        for j in bits(ups[i]):
            if j != i and ups[j] >> i & 1:
                raise AntisymmetryViolation([elements[k] for k in bits(ups[i]) if ups[k] >> i & 1])
    return Poset(name, elements, tuple(ups))


def partial_table(owner, rows):
    return PartialTable(owner, [[None if v is None else owner.index(v) for v in row] for row in rows])


def total_table(owner, rows):
    return TotalTable(owner, [[owner.index(v) for v in row] for row in rows])


def walk_validate(p, rows):
    """The pair walk over the selection laws, raising the first violation."""
    els = p.elements
    for i in range(p.n):
        for j in range(i, p.n):
            m = rows[i][j]
            for u in bits(m):
                if p.downs[u] & ~m:
                    raise SelectionAxiomViolation("down-set", (els[i], els[j], els[u]))
            if not (m >> i & 1 and m >> j & 1):
                raise SelectionAxiomViolation("I0", (els[i], els[j]))
            if p.leq_ix(j, i) and m != p.downs[i]:
                raise SelectionAxiomViolation("I2", (els[i], els[j]))
            if p.leq_ix(i, j) and m != p.downs[j]:
                raise SelectionAxiomViolation("I2", (els[i], els[j]))
    for i in range(p.n):
        for j in range(p.n):
            m = rows[i][j]
            for i2 in bits(p.ups[i]):
                if m & ~rows[i2][j]:
                    raise SelectionAxiomViolation("I3", (els[i], els[j], els[i2]))


def selection_custom(p, table):
    masks = {}
    for (x, y), members in table.items():
        i, j = p.index(x), p.index(y)
        key = (i, j) if i <= j else (j, i)
        m = p.subset_mask(members)
        if key in masks and masks[key] != m:
            raise SelectionAxiomViolation("I1", (x, y))
        masks[key] = m
    for i in range(p.n):
        for j in range(i, p.n):
            if (i, j) in masks:
                continue
            if p.leq_ix(i, j):
                masks[(i, j)] = p.downs[j]
            elif p.leq_ix(j, i):
                masks[(i, j)] = p.downs[i]
            else:
                raise SelectionAxiomViolation("missing-pair", (p.elements[i], p.elements[j]))
    r = range(p.n)
    rows = tuple(tuple(masks[(i, j) if i <= j else (j, i)] for j in r) for i in r)
    walk_validate(p, rows)
    sel = object.__new__(LocalSelection)
    sel.owner, sel.kind, sel.rows, sel._tables = p, "custom-table", rows, {}
    return sel


def _tokens(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield lineno, toks


def parse(text):
    sections, names, posets = [], set(), {}
    lines = list(_tokens(text))
    if not lines:
        raise ParseError("no sections")
    i = 0

    def take():
        nonlocal i
        if i >= len(lines):
            raise ParseError("unexpected end of file (missing 'end'?)", lines[-1][0])
        item = lines[i]
        i += 1
        return item

    def register(name, lineno):
        if name in names:
            raise ParseError(f"duplicate section name {name!r}", lineno)
        names.add(name)

    while i < len(lines):
        lineno, toks = take()
        head = toks[0]
        if head == "poset":
            if len(toks) != 2:
                raise ParseError("expected: poset NAME", lineno)
            name = toks[1]
            register(name, lineno)
            ln, body = take()
            if body[0] != "elements" or len(body) < 2:
                raise ParseError("expected: elements e1 ... en", ln)
            elements = body[1:]
            if "-" in elements:
                raise ParseError("'-' marks an undefined cell and may not name an element", ln)
            pairs = []
            while True:
                ln, body = take()
                if body == ["end"]:
                    break
                if body[0] in ("cover", "le") and len(body) == 3:
                    pairs.append((body[1], body[2]))
                else:
                    raise ParseError(f"expected 'cover x y', 'le x y' or 'end', got {' '.join(body)!r}", ln)
            try:
                p = build_poset(name, elements, pairs)
            except SpposetError as exc:
                raise ParseError(f"in poset {name!r}: {exc}", lineno) from exc
            posets[name] = p
            sections.append(Section("poset", name, p))

        elif head == "optable":
            if len(toks) != 6 or toks[2] != "over" or toks[4] != "kind" or toks[5] not in ("partial", "total"):
                raise ParseError("expected: optable NAME over POSET kind {partial|total}", lineno)
            name, pname, kind = toks[1], toks[3], toks[5]
            register(name, lineno)
            if pname not in posets:
                raise ParseError(f"optable {name!r} references undefined poset {pname!r}", lineno)
            p = posets[pname]
            rows = []
            while True:
                ln, body = take()
                if body == ["end"]:
                    break
                if body[0] != "row" or len(body) < 3 or body[2] != ":":
                    raise ParseError(f"expected 'row x : v1 ... vn' or 'end', got {' '.join(body)!r}", ln)
                want = p.elements[len(rows)] if len(rows) < p.n else None
                if body[1] != want:
                    raise ParseError(
                        f"rows must follow declaration order; expected row {want!r}, got {body[1]!r}", ln)
                vals = body[3:]
                if len(vals) != p.n:
                    raise ParseError(f"row {body[1]!r} needs {p.n} values, got {len(vals)}", ln)
                rows.append([None if v == "-" else v for v in vals])
            if len(rows) != p.n:
                raise ParseError(f"optable {name!r} needs {p.n} rows, got {len(rows)}", lineno)
            if kind == "total" and any(v is None for row in rows for v in row):
                raise ParseError(f"total table {name!r} may not contain '-'", lineno)
            try:
                table = (partial_table if kind == "partial" else total_table)(p, rows)
            except (SpposetError, ValueError) as exc:
                raise ParseError(f"in optable {name!r}: {exc}", lineno) from exc
            sections.append(Section("optable", name, table))

        elif head == "selection":
            if len(toks) != 4 or toks[2] != "over":
                raise ParseError("expected: selection NAME over POSET", lineno)
            name, pname = toks[1], toks[3]
            register(name, lineno)
            if pname not in posets:
                raise ParseError(f"selection {name!r} references undefined poset {pname!r}", lineno)
            p = posets[pname]
            table = {}
            while True:
                ln, body = take()
                if body == ["end"]:
                    break
                if body[0] != "pair" or len(body) < 4 or body[3] != ":":
                    raise ParseError(f"expected 'pair x y : m1 ... mk' or 'end', got {' '.join(body)!r}", ln)
                key = (body[1], body[2])
                if key in table or (key[1], key[0]) in table:
                    raise ParseError(f"pair {key} listed twice", ln)
                table[key] = body[4:]
            try:
                sel = selection_custom(p, table)
            except SpposetError as exc:
                raise ParseError(f"in selection {name!r}: {exc}", lineno) from exc
            sections.append(Section("selection", name, sel))

        else:
            raise ParseError(f"expected a section header, got {' '.join(toks)!r}", lineno)

    return Document(tuple(sections))
