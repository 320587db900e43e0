import importlib.resources

import pytest

from spposet.cli import main


def corpus_path(name):
    return str(importlib.resources.files("spposet.corpus").joinpath(name))


def corpus_bytes(name):
    return importlib.resources.files("spposet.corpus").joinpath(name).read_text("utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", corpus_path("hexagon.sp"))
    assert code == 0
    assert "hex" in out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.sp"
    bad.write_text("poset p\nelements x x\nend\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "duplicate" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/nowhere.sp")
    assert code == 2
    assert "error" in err


def test_analyze(capsys):
    code, out, _ = run(capsys, "analyze", corpus_path("hexagon.sp"), "--poset", "hex")
    assert code == 0
    assert "is_lattice: no (witness ('a', 'b'))" in out
    assert "is_up_directed: yes" in out
    assert "sectionally pseudocomplemented: yes" in out


def test_star_reproduces_corpus(capsys):
    code, out, _ = run(capsys, "star", corpus_path("hexagon.sp"), "--poset", "hex")
    assert code == 0
    assert out == corpus_bytes("hexagon.sp")


def test_star_q_reproduces_corpus(capsys):
    code, out, _ = run(capsys, "star", corpus_path("hexagon-q.sp"), "--poset", "q")
    assert code == 0
    assert out == corpus_bytes("hexagon-q.sp")


def test_star_rp_reproduces_corpus(capsys):
    code, out, _ = run(capsys, "star", corpus_path("hexagon-rp.sp"),
                       "--poset", "hex", "--kind", "rp")
    assert code == 0
    assert out == corpus_bytes("hexagon-rp.sp")


def test_star_wrp_and_clp_kinds(capsys):
    from conftest import rows_in_order
    import tables_data as td
    from spposet import parse

    code, out, _ = run(capsys, "star", corpus_path("hexagon.sp"),
                       "--poset", "hex", "--kind", "wrp")
    assert code == 0
    doc = parse(out)
    t = doc.table("wrp")
    assert [[None if v is None else doc.poset("hex").elements[v] for v in row]
            for row in t.cells] == rows_in_order(td.HEXAGON_RP_STAR, td.HEXAGON_ELEMENTS)

    code, out, _ = run(capsys, "star", corpus_path("hexagon.sp"),
                       "--poset", "hex", "--kind", "clp")
    assert code == 0
    doc = parse(out)
    t = doc.table("clp")
    assert [[doc.poset("hex").elements[v] for v in row]
            for row in t.cells] == rows_in_order(td.HEXAGON_RP, td.HEXAGON_ELEMENTS)


def test_star_rp_absent(tmp_path, capsys):
    f = tmp_path / "vee.sp"
    f.write_text("poset vee\nelements 0 a b\ncover 0 a\ncover 0 b\nend\n")
    code, out, _ = run(capsys, "star", str(f), "--poset", "vee", "--kind", "rp")
    assert code == 1
    assert "no rp complement at (0, 0)" in out


def test_star_missing_witness(tmp_path, capsys):
    f = tmp_path / "vee.sp"
    f.write_text("poset vee\nelements 0 a b\ncover 0 a\ncover 0 b\nend\n")
    code, out, _ = run(capsys, "star", str(f), "--poset", "vee")
    assert code == 1
    assert "no sectional pseudocomplement at (0, 0)" in out
    assert "a b" in out


def test_extend_pure_reproduces_corpus(capsys):
    code, out, _ = run(capsys, "extend", corpus_path("hexagon-pure.sp"),
                       "--poset", "hex", "--method", "pure")
    assert code == 0
    assert out == corpus_bytes("hexagon-pure.sp")


def test_extend_fnat_reproduces_corpus(capsys):
    code, out, _ = run(capsys, "extend", corpus_path("hexagon-fnat.sp"),
                       "--poset", "hex", "--method", "i-natural", "--selection", "frink")
    assert code == 0
    assert out == corpus_bytes("hexagon-fnat.sp")


def test_extend_natural_reproduces_corpus(capsys):
    code, out, _ = run(capsys, "extend", corpus_path("twochains-natural.sp"),
                       "--poset", "twochains", "--method", "natural")
    assert code == 0
    assert out == corpus_bytes("twochains-natural.sp")


def test_extend_normal_reproduces_corpus(capsys):
    code, out, _ = run(capsys, "extend", corpus_path("chains5.sp"),
                       "--poset", "chains5", "--method", "normal")
    assert code == 0
    assert out == corpus_bytes("chains5.sp")


def test_extend_normal_hexagon_fails(capsys):
    code, out, _ = run(capsys, "extend", corpus_path("hexagon.sp"),
                       "--poset", "hex", "--method", "normal")
    assert code == 1
    assert "undefined at (a, b): no-greatest-value, candidates: c d" in out
    assert "undefined at (b, a)" in out


def test_extend_m_requires_meet_semilattice(capsys):
    code, _, err = run(capsys, "extend", corpus_path("hexagon.sp"),
                       "--poset", "hex", "--method", "m")
    assert code == 2
    assert "meet" in err


def test_extend_i_natural_needs_selection(capsys):
    code, _, err = run(capsys, "extend", corpus_path("hexagon.sp"),
                       "--poset", "hex", "--method", "i-natural")
    assert code == 2
    assert "--selection" in err


def test_check_arrow1_esp(capsys):
    code, out, _ = run(capsys, "check", corpus_path("twochains.sp"),
                       "--table", "arrow1", "--system", "ESP")
    assert code == 0
    assert "holds" in out


def test_check_rp_esp_fails(capsys):
    code, out, _ = run(capsys, "check", corpus_path("hexagon-rp.sp"),
                       "--table", "rp", "--system", "ESP")
    assert code == 1
    assert "esp3" in out


def test_check_rp_j_holds(capsys):
    code, out, _ = run(capsys, "check", corpus_path("hexagon-rp.sp"),
                       "--table", "rp", "--system", "J")
    assert code == 0


def test_check_structure_mismatch(capsys):
    code, _, err = run(capsys, "check", corpus_path("hexagon-rp.sp"),
                       "--table", "rp", "--system", "ESPW")
    assert code == 2
    assert "needs a lower structure" in err


@pytest.mark.parametrize("system,needs", [("JWV", "needs an upper structure"),
                                          ("JWV2", "needs a lattice structure")])
def test_check_structure_mismatch_article(capsys, system, needs):
    code, _, err = run(capsys, "check", corpus_path("hexagon-rp.sp"),
                       "--table", "rp", "--system", system)
    assert code == 2
    assert f"error: system {system} {needs}\n" == err


def test_props_star(capsys):
    code, out, _ = run(capsys, "props", corpus_path("hexagon.sp"),
                       "--table", "star", "--suite", "sp-prop")
    assert code == 0
    assert out.count("pass") == 13


def test_props_failures_reported(tmp_path, capsys):
    # the rp restriction is not a sectional pseudocomplementation: law m fails
    from spposet import Document, Section, emit, parse, restrict

    doc = parse(corpus_bytes("hexagon-rp.sp"))
    hx = doc.poset("hex")
    sub = Document((Section("poset", "hex", hx),
                    Section("optable", "rpstar", restrict(doc.table("rp")))))
    f = tmp_path / "rpstar.sp"
    f.write_text(emit(sub))
    code, out, _ = run(capsys, "props", str(f), "--table", "rpstar", "--suite", "sp-prop")
    assert code == 1
    assert "m: fail at (c, d, a)" in out


def test_props_inat_with_selection(capsys):
    code, out, _ = run(capsys, "props", corpus_path("hexagon-fnat.sp"),
                       "--table", "i-natural-frink", "--suite", "Inat-prop",
                       "--selection", "frink")
    assert code == 0
    assert out.count("pass") == 7


def test_props_simpl_i(capsys):
    code, out, _ = run(capsys, "props", corpus_path("hexagon.sp"),
                       "--table", "star", "--suite", "simplI", "--selection", "union")
    assert code == 0
    assert out.count("pass") == 2


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "spposet", "verify",
                           "--theorem", "T-GLB", "--max-n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verified" in proc.stdout


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T-GLB", "--max-n", "3")
    assert code == 0
    assert "verified" in out
    assert "n=3: 19 posets" in out


def test_verify_iso_prints_both_variants(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T-ISO", "--max-n", "3")
    assert code == 0
    assert "up-directed: counterexample" in out
    assert "up-directed+strong: verified" in out


def test_verify_counterexample_exit_code(capsys, monkeypatch):
    from spposet import enumeration

    def fake(theorem, max_n):
        return enumeration.VerificationReport(
            theorem, max_n, {1: 1}, {1: 1}, "counterexample",
            enumeration.Counterexample("poset p\nelements x\nend\n", "made up"), 0.0)

    monkeypatch.setattr(enumeration, "verify_theorem", fake)
    code, out, _ = run(capsys, "verify", "--theorem", "T-GLB", "--max-n", "1")
    assert code == 1
    assert "made up" in out
    assert "poset p" in out


def test_hunt_counterexample_exit_code(capsys):
    code, out, _ = run(capsys, "hunt", "--predicate", "ESP⇒J", "--max-n", "3")
    assert code == 1
    assert "violating j1" in out
    assert "poset" in out  # replayable serialization follows


def test_hunt_verified_exit_code(capsys):
    code, out, _ = run(capsys, "hunt", "--predicate", "sp⇒sp", "--max-n", "3")
    assert code == 0
    assert "verified" in out


@pytest.mark.parametrize("argv", [("verify", "--theorem", "T-GLB", "--max-n", "0"),
                                  ("verify", "--theorem", "T-ISO", "--max-n", "-1"),
                                  ("hunt", "--predicate", "J=>ESP", "--max-n", "0"),
                                  ("hunt", "--predicate", "sp⇒sp", "--max-n", "-3")],
                         ids=["verify 0", "verify T-ISO -1", "hunt 0", "hunt -3"])
def test_sweep_below_one_element_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "supports 1 <= n <= 7" in err


def test_usage_error_exit_code(capsys):
    assert main(["extend", "nowhere.sp"]) == 2  # missing required options
    assert main(["no-such-command"]) == 2


def test_internal_error_exit_code(capsys, monkeypatch):
    from spposet import enumeration
    from spposet.errors import InternalDisagreement

    def broken(theorem, max_n):
        raise InternalDisagreement("two formulas disagree")

    monkeypatch.setattr(enumeration, "verify_theorem", broken)
    code, out, err = run(capsys, "verify", "--theorem", "T-GLB", "--max-n", "1")
    assert code == 3
    assert out == ""
    assert "Traceback" in err
    assert "InternalDisagreement: two formulas disagree" in err


def test_closed_stdout_ends_quietly():
    import os
    import subprocess
    import sys

    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "spposet", "hunt",
                               "--predicate", "ESP=>J", "--max-n", "3"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_missing_poset_name(capsys):
    code, out, err = run(capsys, "analyze", corpus_path("hexagon.sp"), "--poset", "nope")
    assert code == 2
    assert out == ""
    assert err == "error: no poset named 'nope'\n"


def test_missing_table_name(capsys):
    code, out, err = run(capsys, "check", corpus_path("hexagon-rp.sp"),
                         "--table", "nope", "--system", "ESP")
    assert code == 2
    assert out == ""
    assert err == "error: no optable named 'nope'\n"


def test_missing_selection_name(capsys):
    code, out, err = run(capsys, "check", corpus_path("hexagon-fnat.sp"),
                         "--table", "i-natural-frink", "--system", "NATI", "--selection", "nope")
    assert code == 2
    assert out == ""
    assert err == "error: no selection named 'nope'\n"


def test_file_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.sp"
    bad.write_bytes(b"poset p\nelements \xff\nend\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "not UTF-8" in err


def test_stray_key_error_is_internal(capsys, monkeypatch):
    from spposet import enumeration

    def broken(theorem, max_n):
        raise KeyError("lost")

    monkeypatch.setattr(enumeration, "verify_theorem", broken)
    code, out, err = run(capsys, "verify", "--theorem", "T-GLB", "--max-n", "1")
    assert code == 3
    assert out == ""
    assert "Traceback" in err
    assert "KeyError: 'lost'" in err


def test_reused_parser_matches_a_fresh_one(capsys):
    from spposet import cli

    fnat = corpus_path("hexagon-fnat.sp")
    requests = [
        ("extend", "nowhere.sp"),  # usage error: missing required options
        ("check", fnat, "--table", "i-natural-frink", "--system", "NATI", "--selection", "frink"),
        ("check", fnat, "--table", "i-natural-frink", "--system", "NATI"),
        ("--help",),
        ("extend", corpus_path("hexagon.sp"), "--poset", "hex", "--method", "pure"),
    ]
    cli._parser.cache_clear()
    reused = [run(capsys, *argv) for argv in requests]
    fresh = []
    for argv in requests:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 2, 0, 0]
    # the --selection of the request before is not inherited
    assert reused[2][2] == "error: system NATI needs a local selection\n"
    assert reused[3][1].startswith("usage: spposet ")
    assert reused[4][1] == corpus_bytes("hexagon-pure.sp")
