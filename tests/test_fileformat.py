import importlib.resources
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
