import importlib.resources
import random
import re

import pytest

from spposet import (
    PartialTable,
    TotalTable,
    build_poset,
    emit,
    parse,
    selection_frink,
    selection_union,
    star_table,
)
from spposet.errors import ParseError, SpposetError
from spposet.fileformat import Document, Section

HEX_TEXT = """\
# the six-element witness poset
poset hex
elements 0 a b c d 1
cover 0 a
cover 0 b
cover a c
cover a d
cover b c
cover b d
cover c 1
cover d 1
end

optable star over hex kind partial
row 0 : 1 - - - - -
row a : b 1 - - - -
row b : a - 1 - - -
row c : 0 d d 1 - -
row d : 0 c c - 1 -
row 1 : 0 a b c d 1
end

selection wide over hex
pair a b : 0 a b
pair a d : 0 a b d
pair b c : 0 a b c
pair a c : 0 a b c
pair b d : 0 a b d
pair c d : 0 a b c d
end
"""


def corpus_text(name):
    return importlib.resources.files("spposet.corpus").joinpath(name).read_text("utf-8")


def test_parse_hexagon_document(hexagon, hexagon_star):
    doc = parse(HEX_TEXT)
    assert doc.names() == ("hex", "star", "wide")
    assert doc.poset("hex") == hexagon
    assert doc.table("star") == hexagon_star
    sel = doc.selection("wide")
    assert sel.choose("c", "d").members == ("0", "a", "b", "c", "d")
    assert sel.choose("c", "0").members == hexagon.lower_section("c").members


def test_round_trip(hexagon):
    doc = parse(HEX_TEXT)
    assert parse(emit(doc)) == doc


def test_le_and_cover_feed_same_closure():
    a = parse("poset p\nelements x y z\ncover x y\ncover y z\nend")
    b = parse("poset p\nelements x y z\nle x y\nle y z\nle x z\nend")
    assert a.poset("p") == b.poset("p")


@pytest.mark.parametrize("name", [
    "hexagon.sp", "hexagon-q.sp", "hexagon-pure.sp", "hexagon-rp.sp",
    "hexagon-fnat.sp", "twochains.sp", "twochains-natural.sp", "chains5.sp",
])
def test_corpus_files_round_trip(name):
    text = corpus_text(name)
    doc = parse(text)
    assert emit(doc) == text
    assert parse(emit(doc)) == doc


def test_corpus_star_tables_rederive(hexagon, diamond):
    doc = parse(corpus_text("hexagon.sp"))
    assert doc.table("star") == star_table(hexagon)
    doc = parse(corpus_text("hexagon-q.sp"))
    assert doc.table("star") == star_table(diamond)


def test_empty_file_is_an_error():
    with pytest.raises(ParseError, match="no sections"):
        parse("")
    with pytest.raises(ParseError, match="no sections"):
        parse("# only a comment\n")


def test_error_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse("poset p\nelements x y\ncover x z\nend")
    assert exc.value.line == 1  # reported against the block header
    with pytest.raises(ParseError) as exc:
        parse("poset p\nelements x\nbogus line here\nend")
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        parse("optable t over p kind total\nend")
    assert exc.value.line == 1


def test_duplicate_names_rejected():
    text = "poset p\nelements x\nend\n\nposet p\nelements y\nend"
    with pytest.raises(ParseError, match="duplicate section name"):
        parse(text)


def test_table_row_order_enforced():
    text = ("poset p\nelements x y\ncover x y\nend\n\n"
            "optable t over p kind total\nrow y : x x\nrow x : x x\nend")
    with pytest.raises(ParseError, match="declaration order"):
        parse(text)


def test_partial_table_domain_checked():
    text = ("poset p\nelements x y\ncover x y\nend\n\n"
            "optable t over p kind partial\nrow x : x y\nrow y : x y\nend")
    with pytest.raises(ParseError, match="outside the domain"):
        parse(text)


def test_total_table_rejects_dash():
    text = ("poset p\nelements x y\ncover x y\nend\n\n"
            "optable t over p kind total\nrow x : x -\nrow y : x y\nend")
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == "line 6: total table 't' may not contain '-'"


def test_dash_may_not_name_an_element():
    # '-' marks an undefined cell: the star value a*- = - would be written as
    # '-', like the undefined cell (-, a), so neither side accepts the name
    p = build_poset("p", ["-", "a"], [("-", "a")])
    with pytest.raises(SpposetError, match="cannot write element '-'"):
        emit(Document((Section("poset", "p", p), Section("optable", "star", star_table(p)))))
    text = "poset p\nelements - a\ncover - a\nend\n"
    with pytest.raises(ParseError, match="'-' marks an undefined cell and may not name an element") as exc:
        parse(text)
    assert exc.value.line == 2


@pytest.mark.parametrize("elements,name", [
    (["a b", "c"], "'a b'"), (["a#b", "c"], "'a#b'"), (["", "c"], "''"), (["a\tb", "c"], "'a\\tb'"),
])
def test_emit_refuses_an_element_name_that_would_not_read_back(elements, name):
    # parse would read `elements a b c` as three elements, and a#b as a
    p = build_poset("p", elements, [])
    with pytest.raises(SpposetError, match=f"cannot write element {re.escape(name)}"):
        emit(Document((Section("poset", "p", p),)))


@pytest.mark.parametrize("section,name", [("poset", "my poset"), ("optable", "t#1"), ("selection", "")])
def test_emit_refuses_a_section_name_that_would_not_read_back(hexagon, section, name):
    q = build_poset(name if section == "poset" else "hex", hexagon.elements, hexagon.covers())
    obj = {"poset": q, "optable": star_table(q), "selection": selection_frink(q)}[section]
    sections = [Section("poset", q.name, q)] if section != "poset" else []
    with pytest.raises(SpposetError, match=f"cannot write {section} name {re.escape(repr(name))}"):
        emit(Document((*sections, Section(section, name, obj))))


def test_selection_missing_incomparable_pair():
    text = ("poset p\nelements x y\nend\n\n"  # antichain
            "selection s over p\nend")
    with pytest.raises(ParseError, match="missing-pair"):
        parse(text)


def test_missing_end():
    with pytest.raises(ParseError, match="unexpected end of file"):
        parse("poset p\nelements x y\ncover x y")


def test_unknown_poset_reference():
    with pytest.raises(ParseError, match="undefined poset"):
        parse("optable t over nowhere kind total\nend")


@pytest.mark.parametrize("kind", ["table", "Poset", ""])
def test_emit_refuses_a_section_of_another_kind(hexagon, hexagon_star, kind):
    # an object with an owner, and one without
    for obj in (hexagon_star, hexagon):
        doc = Document((Section("poset", "hex", hexagon), Section(kind, "odd", obj)))
        with pytest.raises(SpposetError, match=f"^cannot write {kind} 'odd': not a poset, optable or selection$"):
            emit(doc)


def test_emit_builtin_selections(hexagon):
    doc = Document((
        Section("poset", "hex", hexagon),
        Section("selection", "u", selection_union(hexagon)),
        Section("selection", "f", selection_frink(hexagon)),
    ))
    again = parse(emit(doc))
    assert again.selection("u").choose("a", "b").members == ("0", "a", "b")
    assert again.selection("f").choose("c", "d").members == hexagon.elements
    assert parse(emit(again)) == again


def test_tables_of_kind_partial_and_total_distinguished(hexagon):
    doc = parse(corpus_text("hexagon.sp"))
    assert isinstance(doc.table("star"), PartialTable)
    doc = parse(corpus_text("hexagon-pure.sp"))
    assert isinstance(doc.table("pure"), TotalTable)


# -- emit reads back what it writes ---------------------------------------------------


# what a name may hold: anything but whitespace and '#', with '-' alone reserved
ALPHABET = "ab01:-.,;()[]{}*+=<>!?@$%^&~/'\"αβ≤→"


def legal_names(rng, count):
    names = set()
    while len(names) < count:
        name = "".join(rng.choices(ALPHABET, k=rng.randint(1, 3)))
        if name != "-":
            names.add(name)
    return rng.sample(sorted(names), count)


def legal_documents(seed, count):
    """Seeded documents that emit can write: one to three posets with legal
    names, each section before the tables and selections over it, with its
    star table where there is one, a random total table, its normal table
    where it is total, and its union and Frink selections; some tables come
    after a later poset."""
    rng = random.Random(seed)
    for _ in range(count):
        sections, late, names = [], [], iter(legal_names(rng, 18))
        for _ in range(rng.randint(1, 3)):
            els = legal_names(rng, rng.randint(1, 7))
            pairs = [(a, b) for i, a in enumerate(els) for b in els[i + 1:] if rng.random() < 0.35]
            p = build_poset(next(names), els, pairs)
            tables = [TotalTable(p, [[rng.randrange(p.n) for _ in range(p.n)] for _ in range(p.n)])]
            if isinstance(star_table(p), PartialTable):
                tables.append(star_table(p))
            if p.normal_table is not None:
                tables.append(p.normal_table)
            owned = [Section("optable", next(names), t) for t in tables]
            owned += [Section("selection", next(names), selection_union(p)),
                      Section("selection", next(names), selection_frink(p))]
            rng.shuffle(owned)
            cut = rng.randint(0, len(owned))
            sections += [Section("poset", p.name, p), *owned[:cut]]
            late += owned[cut:]
        yield Document(tuple(sections + late))


def test_emitted_documents_read_back_equal():
    for doc in legal_documents(26, 60):
        text = emit(doc)
        assert parse(text) == doc, text
        assert emit(parse(text)) == text


def refused(doc, name):
    with pytest.raises(SpposetError, match=f"^cannot write [a-z]+ {re.escape(repr(name))}: "):
        emit(doc)


def test_emit_refuses_a_document_that_would_read_back_different():
    rng = random.Random(27)
    for doc in legal_documents(28, 30):
        secs = list(doc.sections)
        first = secs[0]
        p = first.obj
        # a poset section named otherwise than its poset
        other = p.name + "x"
        while other in doc.names():
            other += "x"
        refused(Document((Section("poset", other, p), *secs[1:])), other)
        # a table or selection before its poset, or over a poset not written
        owned = [i for i, s in enumerate(secs) if s.kind != "poset" and s.obj.owner == p]
        tables = [secs[i].obj for i in owned if secs[i].kind == "optable"]
        i = owned[0]
        refused(Document((secs[i], *secs[:i], *secs[i + 1:])), secs[i].name)
        refused(Document(tuple(s for s in secs if s is not first)), secs[i].name)
        q = build_poset(p.name, p.elements, [] if p.covers() else [(p.elements[0], p.elements[-1])])
        if q != p:
            refused(Document((Section("poset", q.name, q), *secs[1:])), secs[i].name)
        # a repeated section name, on a section of each kind
        again = rng.choice(secs)
        for dup in (Section("poset", again.name, p), Section("optable", again.name, p.normal_table or tables[0]),
                    Section("selection", again.name, selection_union(p))):
            refused(Document((*secs, dup)), again.name)
