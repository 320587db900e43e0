"""Command-line interface.

Exit codes are the machine contract: 0 means success / holds / verified,
1 means a mathematical negative (an axiom fails, an extension is undefined
somewhere, a counterexample was found) with the witness printed on stdout,
2 means a usage or input error (diagnostics on stderr), and 3 means an
internal error: two computations that must agree did not, which is a bug in
the toolkit (traceback on stderr).  When the reader of stdout goes away
early (`spposet hunt ... | head -1`), the command ends quietly with 141,
the status a shell reports for a writer stopped by SIGPIPE.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from . import enumeration, extensions, fileformat, pseudo
from .axioms import SYSTEMS, check_system, verify_lemma_suite
from .errors import InternalDisagreement, SpposetError
from .pseudo import MissingWitness, PartialTable, TotalTable

METHODS = ("pure", "natural", "natural-min", "normal", "i-natural", "i-min", "dual-j", "m", "mlb")
STAR_KINDS = ("sp", "rp", "wrp", "clp")
SUITES = ("sp-prop", "esp-prop", "jext-prop", "Inat-prop", "simplI")


def _load(path) -> fileformat.Document:
    return fileformat.parse_path(path)


def _resolve_selection(doc, token, p):
    if token == "union":
        return extensions.selection_union(p)
    if token == "frink":
        return extensions.selection_frink(p)
    sel = doc.selection(token)
    if sel.owner != p:
        raise SpposetError(f"selection {token!r} is over poset {sel.owner.name!r}, not {p.name!r}")
    return sel


def _emit_result(p, name, table) -> str:
    doc = fileformat.Document((
        fileformat.Section("poset", p.name, p),
        fileformat.Section("optable", name, table),
    ))
    return fileformat.emit(doc)


def cmd_validate(args) -> int:
    doc = _load(args.file)
    print(f"ok: {len(doc.sections)} sections ({', '.join(doc.names())})")
    return 0


def cmd_analyze(args) -> int:
    doc = _load(args.file)
    p = doc.poset(args.poset)
    rep = p.classify()
    print(f"poset {p.name}: {p.n} elements")
    for flag in ("is_chain", "is_up_directed", "has_greatest", "has_least",
                 "is_sectionally_bounded", "is_upper_semilattice", "is_lower_semilattice",
                 "is_lattice", "is_nearlattice", "all_lower_sections_chains"):
        value = getattr(rep, flag)
        line = f"{flag}: {'yes' if value else 'no'}"
        if not value:
            line += f" (witness {rep.witnesses[flag]})"
        print(line)
    st = pseudo.star_table(p)
    if isinstance(st, MissingWitness):
        print(f"sectionally pseudocomplemented: no "
              f"(pair ({st.x}, {st.y}), maximal candidates {st.candidates})")
    else:
        print("sectionally pseudocomplemented: yes")
    return 0


def cmd_star(args) -> int:
    doc = _load(args.file)
    p = doc.poset(args.poset)
    kind = args.kind
    if kind == "sp":
        st = pseudo.star_table(p)
        if isinstance(st, MissingWitness):
            print(f"no sectional pseudocomplement at ({st.x}, {st.y}); "
                  f"maximal candidates: {' '.join(st.candidates) or '(none)'}")
            return 1
        sys.stdout.write(_emit_result(p, "star", st))
        return 0
    point = {"rp": pseudo.rp_complement, "wrp": pseudo.wrp_complement,
             "clp": pseudo.clp_complement}[kind]
    n = p.n
    cells = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            sectioned = p.leq_ix(y, x)
            if kind == "wrp" and not sectioned:
                continue  # wrp is a sectional notion; table kept partial
            v = point(p, p.elements[x], p.elements[y])
            if v is None:
                print(f"no {kind} complement at ({p.elements[x]}, {p.elements[y]})")
                return 1
            cells[x][y] = p.index(v)
    if kind == "wrp":
        table = PartialTable(p, cells)
    else:
        table = TotalTable(p, cells)
    sys.stdout.write(_emit_result(p, kind, table))
    return 0


def cmd_extend(args) -> int:
    doc = _load(args.file)
    p = doc.poset(args.poset)
    method = args.method
    st = pseudo.star_table(p)
    if isinstance(st, MissingWitness):
        print(f"poset is not sectionally pseudocomplemented: pair ({st.x}, {st.y}), "
              f"maximal candidates {' '.join(st.candidates) or '(none)'}")
        return 1
    sel = None
    name = method
    if method in ("i-natural", "i-min"):
        if not args.selection:
            raise SpposetError(f"method {method} requires --selection")
        sel = _resolve_selection(doc, args.selection, p)
        name = f"{method}-{args.selection}"
    if method == "pure":
        result = extensions.pure_extension(st)
    elif method == "natural":
        result = extensions.natural_extension(st)
    elif method == "natural-min":
        result = extensions.natural_min_form(st)
    elif method == "normal":
        result = extensions.normal_extension(st)
    elif method == "i-natural":
        result = extensions.i_natural_extension(p, sel)
    elif method == "i-min":
        result = extensions.i_min_extension(st, sel)
    elif method == "dual-j":
        result = extensions.dual_j_extension(st)
    elif method == "m":
        result = extensions.m_extension(st)
    else:
        result = extensions.mlb_extension(p)

    if isinstance(result, extensions.ExtensionResult):
        if not result.is_total:
            for u in result.undefined:
                cand = " ".join(u.candidates) or "(none)"
                print(f"undefined at ({u.x}, {u.y}): {u.reason}, candidates: {cand}")
            return 1
        result = result.table
    sys.stdout.write(_emit_result(p, name, result))
    return 0


def cmd_check(args) -> int:
    doc = _load(args.file)
    table = doc.table(args.table)
    p = table.owner
    sel = _resolve_selection(doc, args.selection, p) if args.selection else None
    report = check_system(p, table, args.system, sel=sel, reading=args.reading)
    if report.holds:
        print(f"system {report.system} holds")
        return 0
    for axiom, witness in report.violations:
        print(f"axiom {axiom} fails at ({', '.join(witness)})")
    return 1


def cmd_props(args) -> int:
    doc = _load(args.file)
    table = doc.table(args.table)
    p = table.owner
    sel = _resolve_selection(doc, args.selection, p) if args.selection else None
    if args.suite == "sp-prop":
        if not isinstance(table, PartialTable):
            raise SpposetError("suite sp-prop needs a partial table")
        report = pseudo.verify_sp_properties(p, table)
    else:
        report = verify_lemma_suite(p, table, args.suite, sel=sel)
    for item in report.items:
        line = f"{item.item}: {item.status}"
        if item.witness:
            line += f" at ({', '.join(item.witness)})"
        print(line)
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    report = enumeration.verify_theorem(args.theorem, args.max_n)
    for line in report.summary_lines():
        print(line)
    if report.outcome == "verified":
        return 0
    print(report.counterexample.witness)
    sys.stdout.write(report.counterexample.serialized)
    return 1


def cmd_hunt(args) -> int:
    report = enumeration.find_counterexample(args.predicate, args.max_n)
    for line in report.summary_lines():
        print(line)
    if report.outcome == "verified":
        return 0
    print(report.counterexample.witness)
    sys.stdout.write(report.counterexample.serialized)
    return 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spposet",
        description="Sectional pseudocomplementation on finite posets.")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="parse a file and check all referential rules")
    s.add_argument("file")
    s.set_defaults(fn=cmd_validate)

    s = sub.add_parser("analyze", help="classify a poset")
    s.add_argument("file")
    s.add_argument("--poset", required=True)
    s.set_defaults(fn=cmd_analyze)

    s = sub.add_parser("star", help="compute a pseudocomplement table")
    s.add_argument("file")
    s.add_argument("--poset", required=True)
    s.add_argument("--kind", choices=STAR_KINDS, default="sp")
    s.set_defaults(fn=cmd_star)

    s = sub.add_parser("extend", help="extend the star table by a named rule")
    s.add_argument("file")
    s.add_argument("--poset", required=True)
    s.add_argument("--method", choices=METHODS, required=True)
    s.add_argument("--selection", help="union, frink, or a selection section name")
    s.set_defaults(fn=cmd_extend)

    s = sub.add_parser("check", help="check an axiom system against a table")
    s.add_argument("file")
    s.add_argument("--table", required=True)
    s.add_argument("--system", choices=sorted(SYSTEMS), required=True)
    s.add_argument("--selection")
    s.add_argument("--reading", choices=("existential", "both-defined", "one-defined"),
                   default="existential")
    s.set_defaults(fn=cmd_check)

    s = sub.add_parser("props", help="run a lemma property suite against a table")
    s.add_argument("file")
    s.add_argument("--table", required=True)
    s.add_argument("--suite", choices=SUITES, required=True)
    s.add_argument("--selection")
    s.set_defaults(fn=cmd_props)

    s = sub.add_parser("verify", help="verify a built-in claim over all small posets")
    s.add_argument("--theorem", required=True, choices=enumeration.theorem_ids())
    s.add_argument("--max-n", type=int, required=True)
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("hunt", help="search small posets for a counterexample")
    s.add_argument("--predicate", required=True)
    s.add_argument("--max-n", type=int, required=True)
    s.set_defaults(fn=cmd_hunt)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe must surface here, not at exit
        return code
    except BrokenPipeError:
        # as the signal module docs advise: point stdout at devnull so the
        # interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except InternalDisagreement:
        traceback.print_exc()
        return 3
    except SpposetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
