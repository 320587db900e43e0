"""Command-line interface.

Exit codes are the machine contract: 0 means success / holds / verified,
1 means a mathematical negative (an axiom fails, an extension is undefined
somewhere, a counterexample was found) with the witness printed on stdout,
2 means a usage or input error (diagnostics on stderr), and 3 means an
internal error, a bug in the toolkit: two computations that must agree did
not, or any other exception escaped (traceback on stderr).  Only a
SpposetError, such as a missing poset, table or selection name, or an
OSError is a usage or input error.  When the reader of stdout goes away
early (`spposet hunt ... | head -1`), the command ends quietly with 141,
the status a shell reports for a writer stopped by SIGPIPE.

The argument parser is built on the first call of `main` and reused by every
later call in the same process; each call still parses into a fresh
namespace, so no option value carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback

from . import enumeration, extensions, fileformat, pseudo
from .axioms import LEMMA_SUITES, READINGS, SYSTEMS, check_system, verify_lemma_suite
from .errors import InternalDisagreement, SpposetError
from .pseudo import MissingWitness

# method -> its rule, given the poset, its star table and the selection; the
# rules are looked up in `extensions` on each call, so a wrapper installed
# there (such as a tracer's) sees every call
RULES = {
    "pure": lambda p, st, sel: extensions.pure_extension(st),
    "natural": lambda p, st, sel: extensions.natural_extension(st),
    "natural-min": lambda p, st, sel: extensions.natural_min_form(st),
    "normal": lambda p, st, sel: extensions.normal_extension(st),
    "i-natural": lambda p, st, sel: extensions.i_natural_extension(p, sel),
    "i-min": lambda p, st, sel: extensions.i_min_extension(st, sel),
    "dual-j": lambda p, st, sel: extensions.dual_j_extension(st),
    "m": lambda p, st, sel: extensions.m_extension(st),
    "mlb": lambda p, st, sel: extensions.mlb_extension(p),
}
METHODS = tuple(RULES)
STAR_KINDS = ("sp", "rp", "wrp", "clp")


def _resolve_selection(doc, token, p):
    if token == "union":
        return extensions.selection_union(p)
    if token == "frink":
        return extensions.selection_frink(p)
    sel = doc.selection(token)
    if sel.owner != p:
        raise SpposetError(f"selection {token!r} is over poset {sel.owner.name!r}, not {p.name!r}")
    return sel


def cmd_validate(args) -> int:
    doc = fileformat.parse_path(args.file)
    print(f"ok: {len(doc.sections)} sections ({', '.join(doc.names())})")
    return 0


def cmd_analyze(args) -> int:
    doc = fileformat.parse_path(args.file)
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
    doc = fileformat.parse_path(args.file)
    p = doc.poset(args.poset)
    kind = args.kind
    table = pseudo.complement_table(p, kind)
    if isinstance(table, MissingWitness):
        if kind == "sp":
            print(f"no sectional pseudocomplement at ({table.x}, {table.y}); "
                  f"maximal candidates: {' '.join(table.candidates) or '(none)'}")
        else:
            print(f"no {kind} complement at ({table.x}, {table.y})")
        return 1
    sys.stdout.write(enumeration._serialize(p, {"star" if kind == "sp" else kind: table}))
    return 0


def cmd_extend(args) -> int:
    doc = fileformat.parse_path(args.file)
    p = doc.poset(args.poset)
    method = args.method
    st = pseudo.star_table(p)
    if isinstance(st, MissingWitness):
        print(f"poset is not sectionally pseudocomplemented: pair ({st.x}, {st.y}), "
              f"maximal candidates {' '.join(st.candidates) or '(none)'}")
        return 1
    sel, name = None, method
    if method in ("i-natural", "i-min"):
        if not args.selection:
            raise SpposetError(f"method {method} requires --selection")
        sel = _resolve_selection(doc, args.selection, p)
        name = f"{method}-{args.selection}"
    result = RULES[method](p, st, sel)
    if isinstance(result, extensions.ExtensionResult):
        if not result.is_total:
            for u in result.undefined:
                cand = " ".join(u.candidates) or "(none)"
                print(f"undefined at ({u.x}, {u.y}): {u.reason}, candidates: {cand}")
            return 1
        result = result.table
    sys.stdout.write(enumeration._serialize(p, {name: result}))
    return 0


def cmd_check(args) -> int:
    doc = fileformat.parse_path(args.file)
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
    doc = fileformat.parse_path(args.file)
    table = doc.table(args.table)
    p = table.owner
    sel = _resolve_selection(doc, args.selection, p) if args.selection else None
    report = verify_lemma_suite(p, table, args.suite, sel=sel)
    for item in report.items:
        line = f"{item.item}: {item.status}"
        if item.witness:
            line += f" at ({', '.join(item.witness)})"
        print(line)
    return 0 if report.passed else 1


def _print_report(report) -> int:
    for line in report.summary_lines():
        print(line)
    if report.outcome == "verified":
        return 0
    print(report.counterexample.witness)
    sys.stdout.write(report.counterexample.serialized)
    return 1


def cmd_verify(args) -> int:
    return _print_report(enumeration.verify_theorem(args.theorem, args.max_n))


def cmd_hunt(args) -> int:
    return _print_report(enumeration.find_counterexample(args.predicate, args.max_n))


def _claim_list(heading: str, claims: dict) -> dict:
    """A help epilog that lists each claim id with what it states."""
    width = max(map(len, claims))
    lines = [f"{heading}:"] + [f"  {key:<{width}}  {claims[key].text}" for key in sorted(claims)]
    return {"epilog": "\n".join(lines), "formatter_class": argparse.RawDescriptionHelpFormatter}


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
    s.add_argument("--reading", choices=READINGS, default="existential")
    s.set_defaults(fn=cmd_check)

    s = sub.add_parser("props", help="run a lemma property suite against a table")
    s.add_argument("file")
    s.add_argument("--table", required=True)
    s.add_argument("--suite", choices=LEMMA_SUITES, required=True)
    s.add_argument("--selection")
    s.set_defaults(fn=cmd_props)

    s = sub.add_parser("verify", help="verify a built-in claim over all small posets",
                       **_claim_list("theorems", enumeration.THEOREMS))
    s.add_argument("--theorem", required=True, choices=enumeration.theorem_ids())
    s.add_argument("--max-n", type=int, required=True)
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("hunt", help="search small posets for a counterexample",
                       **_claim_list("predicates", enumeration.PREDICATES))
    s.add_argument("--predicate", required=True)
    s.add_argument("--max-n", type=int, required=True)
    s.set_defaults(fn=cmd_hunt)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
    except (SpposetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a stray KeyError, ValueError, ... is a bug, not a user error
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
