"""Line-oriented text format for posets, operation tables and selections.

Grammar (whitespace-separated tokens, `#` starts a comment):

    poset NAME
    elements e1 ... en
    cover x y          # or: le x y   (both feed the same closure)
    end

    optable NAME over POSET kind {partial|total}
    row x : v1 ... vn  # one row per element, declaration order; '-' = undefined
    end

    selection NAME over POSET
    pair x y : m1 ... mk
    end

Section names are unique within a file; optable and selection sections must
reference a poset defined earlier in the same file.  Comparable pairs of a
selection may be omitted (their value is forced to the larger element's lower
section); incomparable pairs must be listed.  '-' is reserved for undefined
cells and may not name an element.

emit() writes a canonical form (covers only, forced selection pairs omitted),
so emit(parse(text)) parses back to an equal document.  It refuses, with a
SpposetError naming the section, a document that would read back different:
a name that would not read back as the one token it is (the empty name, a
name holding whitespace or '#', and '-' as an element), a repeated section
name, a poset section named otherwise than its poset, an optable or
selection over a poset that no earlier poset section holds under its name,
and a section of any other kind.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, SpposetError, UnknownSection
from .extensions import LocalSelection, selection_custom
from .poset import Poset, build_poset
from .pseudo import PartialTable, TotalTable


@dataclass(frozen=True)
class Section:
    kind: str  # "poset" | "optable" | "selection"
    name: str
    obj: object


@dataclass(frozen=True)
class Document:
    sections: tuple[Section, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.sections)

    def _get(self, name: str, kinds) -> object:
        for s in self.sections:
            if s.name == name and s.kind in kinds:
                return s.obj
        raise UnknownSection(f"no {' or '.join(kinds)} named {name!r}")

    def poset(self, name: str) -> Poset:
        return self._get(name, ("poset",))

    def table(self, name: str):
        return self._get(name, ("optable",))

    def selection(self, name: str) -> LocalSelection:
        return self._get(name, ("selection",))


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield lineno, toks


def parse(text: str) -> Document:
    sections: list[Section] = []
    names: set[str] = set()
    posets: dict[str, Poset] = {}

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
            rows, dash = [], False
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
                if "-" in vals:
                    dash = True
                    vals = [None if v == "-" else v for v in vals]
                rows.append(vals)
            if len(rows) != p.n:
                raise ParseError(f"optable {name!r} needs {p.n} rows, got {len(rows)}", lineno)
            if kind == "total" and dash:
                raise ParseError(f"total table {name!r} may not contain '-'", lineno)
            try:
                table = (PartialTable if kind == "partial" else TotalTable).from_ids(p, rows)
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


def parse_path(path) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse(text)


def _written(name: str, what: str) -> str:
    """name, checked to read back as the one token it is."""
    if name.split() != [name] or "#" in name:
        raise SpposetError(f"cannot write {what} {name!r}: a name must be one token without '#'")
    return name


def _emit_poset(p: Poset) -> list[str]:
    elements = " ".join(p.elements)
    if tuple(elements.split()) != p.elements or "#" in elements or "-" in p.elements:
        for e in p.elements:  # name the first element that cannot be written
            if _written(e, "element") == "-":
                raise SpposetError("cannot write element '-': '-' marks an undefined cell")
    out = [f"poset {_written(p.name, 'poset name')}", "elements " + elements]
    out.extend(f"cover {x} {y}" for x, y in p.covers())
    out.append("end")
    return out


def _emit_table(name: str, t) -> list[str]:
    p = t.owner
    kind = "partial" if isinstance(t, PartialTable) else "total"
    out = [f"optable {_written(name, 'optable name')} over {p.name} kind {kind}"]
    for x in range(p.n):
        vals = []
        for y in range(p.n):
            v = t.cells[x][y]
            vals.append("-" if v is None else p.elements[v])
        out.append(f"row {p.elements[x]} : " + " ".join(vals))
    out.append("end")
    return out


def _emit_selection(name: str, sel: LocalSelection) -> list[str]:
    p = sel.owner
    out = [f"selection {_written(name, 'selection name')} over {p.name}"]
    for i in range(p.n):
        for j in range(i + 1, p.n):
            if p.leq_ix(i, j) or p.leq_ix(j, i):
                continue
            members = p.set_of(sel.mask_ix(i, j)).members
            out.append(f"pair {p.elements[i]} {p.elements[j]} : " + " ".join(members))
    out.append("end")
    return out


def emit(doc: Document) -> str:
    """The document as text that parses back to an equal one; SpposetError
    for a document that would not (see the module notes)."""
    chunks, names, posets = [], set(), {}
    for s in doc.sections:
        if s.kind not in ("poset", "optable", "selection"):
            raise SpposetError(f"cannot write {s.kind} {s.name!r}: not a poset, optable or selection")
        if s.name in names:
            raise SpposetError(f"cannot write {s.kind} {s.name!r}: duplicate section name")
        names.add(s.name)
        if s.kind == "poset":
            if s.obj.name != s.name:
                raise SpposetError(f"cannot write poset {s.name!r}: its poset is named {s.obj.name!r}")
            chunks.append("\n".join(_emit_poset(s.obj)))
            posets[s.name] = s.obj
            continue
        owner = s.obj.owner
        if posets.get(owner.name) != owner:
            raise SpposetError(f"cannot write {s.kind} {s.name!r}: its poset {owner.name!r} "
                               f"is not written before it")
        if s.kind == "optable":
            chunks.append("\n".join(_emit_table(s.name, s.obj)))
        else:
            chunks.append("\n".join(_emit_selection(s.name, s.obj)))
    return "\n\n".join(chunks) + "\n"
