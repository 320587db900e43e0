"""fileformat.parse against the cell-by-cell reference reader.

Both readers get every corpus file, documents over posets of 8 to 16
elements (each emitted with its tables and a Frink or custom selection), and
seeded mutations of all of them.  Each input must give equal Documents, or
the same exception type, message and line.
"""

import importlib.resources
import random
import re

import reference_parser
from spposet import (
    Document,
    LocalSelection,
    PartialTable,
    Section,
    TotalTable,
    build_poset,
    emit,
    natural_extension,
    normal_extension,
    parse,
    pure_extension,
    selection_frink,
    star_table,
)
from spposet.poset import bits


def _corpus_texts():
    files = importlib.resources.files("spposet.corpus")
    return [f.read_text("utf-8") for f in sorted(files.iterdir(), key=lambda f: f.name)
            if f.name.endswith(".sp")]


# -- posets of 8 to 16 elements, as (n, strict pairs) ------------------------------


def _chain(k):
    return k, [(i, j) for i in range(k) for j in range(i + 1, k)]


def _product(a, b):
    (na, pa), (nb, pb) = a, b
    la = set(pa) | {(i, i) for i in range(na)}
    lb = set(pb) | {(i, i) for i in range(nb)}
    els = [(i, j) for i in range(na) for j in range(nb)]
    return len(els), [(x, y) for x, (i, j) in enumerate(els) for y, (k, m) in enumerate(els)
                      if x != y and (i, k) in la and (j, m) in lb]


def _m_lattice(k):
    return k + 2, [(0, i) for i in range(1, k + 2)] + [(i, k + 1) for i in range(1, k + 1)]


def _disjoint(*parts, top=False):
    n, pairs = 0, []
    for m, ps in parts:
        pairs += [(i + n, j + n) for i, j in ps]
        n += m
    if top:
        pairs += [(i, n) for i in range(n)]
        n += 1
    return n, pairs


def _family_posets():
    shapes = [
        _product(_chain(2), _chain(4)), _product(_chain(3), _chain(3)), _product(_chain(4), _chain(4)),
        _product(_chain(2), _chain(8)), _product(_product(_chain(2), _chain(2)), _product(_chain(2), _chain(2))),
        _disjoint(_chain(4), _chain(4)), _disjoint(_product(_chain(2), _chain(3)), _chain(3), top=True),
        _disjoint(_chain(3), _chain(3), _product(_chain(2), _chain(2)), top=True),
        _m_lattice(6), _m_lattice(14), _product(_m_lattice(3), _chain(2)), _disjoint(_m_lattice(3), _chain(5)),
    ]
    for n, pairs in shapes:
        els = [f"e{i}" for i in range(n)]
        yield build_poset("P", els, [(els[i], els[j]) for i, j in pairs])


def _custom_selection(p, rng):
    """A legal selection between the union and the Frink one."""
    chosen = sum(1 << v for v in range(p.n) if rng.random() < 0.5)
    masks = {}
    for i in range(p.n):
        for j in range(i, p.n):
            m = p.downs[i] | p.downs[j]
            for w in bits(chosen & p.frink_mask(i, j)):
                m |= p.downs[w]
            masks[(i, j)] = m
    return LocalSelection(p, "custom", masks)


def _family_texts():
    rng = random.Random(24)
    for k, p in enumerate(_family_posets()):
        sections = [Section("poset", "P", p)]
        star = star_table(p)
        if isinstance(star, PartialTable):
            normal = normal_extension(star)
            sections += [Section("optable", "star", star), Section("optable", "natural", natural_extension(star)),
                         Section("optable", "normal", normal.table) if normal.is_total
                         else Section("optable", "pure", pure_extension(star))]
        else:
            sections.append(Section("optable", "proj", TotalTable(p, [list(range(p.n))] * p.n)))
        sel = selection_frink(p) if k % 2 else _custom_selection(p, rng)
        sections.append(Section("selection", "I", sel))
        yield emit(Document(tuple(sections)))


# -- mutations --------------------------------------------------------------------


def _lines_by_section(lines):
    """(index, section head tokens, line tokens) for every body line."""
    head = None
    for k, line in enumerate(lines):
        toks = line.split()
        if toks and toks[0] in ("poset", "optable", "selection"):
            head = toks
        elif toks and toks[0] != "end":
            yield k, head, toks


def _replace_token(lines, rng, want_line, pick):
    """Replace one token of a random line that want_line accepts, chosen by pick."""
    spots = []
    for k, head, toks in _lines_by_section(lines):
        if want_line(head, toks):
            spots += [(k, t, new) for t, tok in enumerate(toks) for new in [pick(head, toks, t, tok)]
                      if new is not None]
    if not spots:
        return None
    k, t, new = rng.choice(spots)
    toks = lines[k].split()
    toks[t:t + 1] = new
    return lines[:k] + [" ".join(toks)] + lines[k + 1:]


def _is_row(kind=None):
    return lambda head, toks: toks[0] == "row" and (kind is None or head[-1] == kind)


def _value(pick):
    """pick applied to the value tokens of a row or the member tokens of a pair."""
    return lambda head, toks, t, tok: pick(toks, tok) if t > toks.index(":") else None


def _elements_of(lines, k):
    for line in reversed(lines[:k]):
        if line.startswith("elements "):
            return line.split()[1:]


def _swap_rows(lines, rng):
    rows = [k for k, _, toks in _lines_by_section(lines) if toks[0] == "row"]
    pairs = [(a, b) for a, b in zip(rows, rows[1:]) if b == a + 1]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    return lines[:a] + [lines[b], lines[a]] + lines[b + 1:]


def _reverse_cover(lines, rng):
    covers = [k for k, _, toks in _lines_by_section(lines) if toks[0] == "cover"]
    if not covers:
        return None
    k = rng.choice(covers)
    _, x, y = lines[k].split()
    return lines[:k + 1] + [f"le {y} {x}"] + lines[k + 1:]


def _repeat_element(lines, rng):
    k = next(k for k, line in enumerate(lines) if line.startswith("elements "))
    return lines[:k] + [lines[k] + " " + rng.choice(lines[k].split()[1:])] + lines[k + 1:]


def _drop(lines, rng, first):
    spots = [k for k, _, toks in _lines_by_section(lines) if toks[0] == first]
    if not spots:
        return None
    k = rng.choice(spots)
    return lines[:k] + lines[k + 1:]


def _other_element(lines, rng):
    """A selection pair with one member more, taken from the nearest poset above it."""
    spots = [(k, e) for k, _, toks in _lines_by_section(lines) if toks[0] == "pair"
             for e in _elements_of(lines, k) if e not in toks[4:]]
    if not spots:
        return None
    k, e = rng.choice(spots)
    return lines[:k] + [lines[k] + " " + e] + lines[k + 1:]


MUTATIONS = {
    "unknown id in a row": lambda lines, rng: _replace_token(
        lines, rng, _is_row(), _value(lambda toks, tok: ["zz"] if tok != "-" else None)),
    "unknown id in a pair": lambda lines, rng: _replace_token(
        lines, rng, lambda head, toks: toks[0] == "pair",
        lambda head, toks, t, tok: ["zz"] if t in (1, 2) or t > 3 else None),
    "'-' in a total table": lambda lines, rng: _replace_token(
        lines, rng, _is_row("total"), _value(lambda toks, tok: ["-"])),
    "value outside y <= x": lambda lines, rng: _replace_token(
        lines, rng, _is_row("partial"), _value(lambda toks, tok: [toks[1]] if tok == "-" else None)),
    "missing sectioned value": lambda lines, rng: _replace_token(
        lines, rng, _is_row("partial"), _value(lambda toks, tok: ["-"] if tok != "-" else None)),
    "short row": lambda lines, rng: _replace_token(
        lines, rng, _is_row(), lambda head, toks, t, tok: [] if t == len(toks) - 1 else None),
    "rows out of order": _swap_rows,
    "cycle": _reverse_cover,
    "duplicate element": _repeat_element,
    "missing row": lambda lines, rng: _drop(lines, rng, "row"),
    "missing pair": lambda lines, rng: _drop(lines, rng, "pair"),
    "missing cover": lambda lines, rng: _drop(lines, rng, "cover"),
    "member left out": lambda lines, rng: _replace_token(
        lines, rng, lambda head, toks: toks[0] == "pair", lambda head, toks, t, tok: [] if t > 3 else None),
    "member added": _other_element,
}


def _outcome(read, text):
    try:
        return "ok", read(text)
    except Exception as exc:  # every failure is compared, whatever its type
        return type(exc), str(exc), getattr(exc, "line", None)


def _inputs():
    rng = random.Random(2024)
    for text in _corpus_texts() + list(_family_texts()):
        yield "as emitted", text
        lines = text.splitlines()
        for name, mutate in MUTATIONS.items():
            for _ in range(3):
                changed = mutate(lines, rng)
                if changed is not None:
                    yield name, "\n".join(changed) + "\n"


def test_parse_matches_the_reference_reader():
    failed, axioms = set(), set()
    for name, text in _inputs():
        got = _outcome(parse, text)
        assert got == _outcome(reference_parser.parse, text), (name, text)
        if name == "as emitted":
            assert got[0] == "ok", text
        elif got[0] != "ok":
            failed.add(name)
            axioms.update(re.findall(r"selection axiom (\S+) fails", got[1]))
    # every mutation is refused somewhere, and the selection mutations reach
    # each law that a mask test finds first
    assert failed == set(MUTATIONS)
    assert {"down-set", "I0", "I3", "missing-pair"} <= axioms, axioms
