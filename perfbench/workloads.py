"""The three workloads: their inputs, their operations and the output checks.

A workload is built once per run by `setup` (imports plus input generation)
and then yields passes: lists of operations in a seeded order.  Each operation
is one call into the package, timed on its own; its output is checked against
the expected data after the clock stops.

Inputs depend only on the seed and the `quick` flag.  Expected outputs are
pinned in `expected.json` (recorded from the package with `run.py --record`)
or follow from how the input was built, so any seed can be checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = SRC / "spposet" / "corpus"

THEOREMS = ("T-GLB", "T-ISO", "T-J-EQ-NRM", "T-JEXT-FIN", "T-LAT-F-EQ-J", "T-MONO",
            "T-NAT-EQ", "T-NAT-IMPLIC", "T-NRM-AX", "T-NRM-IMPL", "T-RIGHT-IMPL",
            "T-SPCHAR", "T-STR-NRM")
PREDICATES = ("CLP=>ESP", "ESP=>J", "J=>ESP", "sp=>sp")
LABELED_COUNTS = (1, 3, 19, 219, 4231)          # OEIS A001035
CLASS_COUNTS = (1, 2, 5, 16, 63, 318, 2045)    # OEIS A000112

STAR_KINDS = ("sp", "rp", "wrp", "clp")
METHODS = ("pure", "natural", "natural-min", "normal", "dual-j", "m", "mlb")
SELECTION_METHODS = ("i-natural", "i-min")
TOTAL_SYSTEMS = ("ESP", "ESPW", "NAT", "NRM", "NRMW", "J", "JWV", "JWV2")
COMPUTE_COMMANDS = ("star", "extend")

# Corpus files that a star/extend command reproduces byte for byte.
ROUND_TRIPS = {
    "hexagon.sp": ("star", "--poset", "hex", "--kind", "sp"),
    "hexagon-q.sp": ("star", "--poset", "q", "--kind", "sp"),
    "hexagon-rp.sp": ("star", "--poset", "hex", "--kind", "rp"),
    "hexagon-pure.sp": ("extend", "--poset", "hex", "--method", "pure"),
    "hexagon-fnat.sp": ("extend", "--poset", "hex", "--method", "i-natural", "--selection", "frink"),
    "twochains-natural.sp": ("extend", "--poset", "twochains", "--method", "natural"),
    "chains5.sp": ("extend", "--poset", "chains5", "--method", "normal"),
}

_ELAPSED = re.compile(r"\d+\.\d+s\)")
_SUMMARY = re.compile(r"^claim \S+: \w+ \(n = 1\.\.\d+, (\d+) posets, (\d+) instances")
_PER_N = re.compile(r"^  n=(\d+): (\d+) posets")


class SetupError(RuntimeError):
    """The checkout does not hold the package the benchmark measures."""


def import_package():
    """Import spposet from this checkout's src/, never from elsewhere."""
    if not (SRC / "spposet" / "__init__.py").is_file():
        raise SetupError(f"no spposet package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sp = importlib.import_module("spposet")
    if Path(sp.__file__).resolve().parent != SRC / "spposet":
        raise SetupError(f"imported spposet from {sp.__file__}, not from {SRC}")
    for mod in ("cli", "enumeration", "fileformat"):
        importlib.import_module(f"spposet.{mod}")
    return sp


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Op:
    key: str      # identifies the operation and its expected data
    kind: str     # group the latency sample belongs to
    work: int     # units of work the operation covers
    call: object  # () -> output, the timed part
    check: object  # (output) -> bool, called after the clock stops


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


# -- sweep ---------------------------------------------------------------------


def _crown_text(stdout: str) -> bool:
    """Whether the first poset printed in stdout is the 5-element crown
    (two minimal elements, both under two middle elements, both under a top)."""
    elements, covers = None, []
    for line in stdout.splitlines():
        toks = line.split()
        if toks[:1] == ["elements"] and elements is None:
            elements = toks[1:]
        elif toks[:1] == ["cover"] and elements is not None:
            covers.append((toks[1], toks[2]))
        elif toks[:1] == ["end"] and elements is not None:
            break
    if elements is None or len(elements) != 5:
        return False
    crown = {(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)}
    got = {(elements.index(x), elements.index(y)) for x, y in covers}
    for perm in itertools.permutations(range(5)):
        if {(perm[x], perm[y]) for x, y in got} == crown:
            return True
    return False


class Sweep:
    """verify for every theorem and hunt for every predicate, through cli.main."""

    name = "sweep"

    def __init__(self, sp, seed: int, quick: bool, expected: dict):
        self.cli = sys.modules["spposet.cli"]
        self.max_n = 3 if quick else 5
        self.expected = expected.get("sweep", {})
        self.argvs = [("verify", "--theorem", t, "--max-n", str(self.max_n)) for t in THEOREMS]
        self.argvs += [("hunt", "--predicate", p, "--max-n", str(self.max_n)) for p in PREDICATES]
        self.posets = 0
        self.instances = 0

    @staticmethod
    def key(argv) -> str:
        return " ".join((argv[0], argv[2], argv[4]))

    def pass_ops(self, rng: random.Random) -> list[Op]:
        argvs = list(self.argvs)
        rng.shuffle(argvs)
        ops = []
        for argv in argvs:
            key = self.key(argv)
            exp = self.expected.get(key)
            ops.append(Op(key, argv[0], exp["covered"] if exp else 1,
                          lambda a=argv: run_cli(self.cli, a),
                          lambda out, k=key, e=exp: self._check(k, e, out)))
        return ops

    def _check(self, key, exp, out):
        rc, stdout = out
        stdout = _ELAPSED.sub("…s)", stdout)
        lines = stdout.splitlines()
        m = _SUMMARY.match(lines[0]) if lines else None
        if m is None:
            return False
        self.posets += int(m.group(1))
        self.instances += int(m.group(2))
        if exp is None or rc != exp["rc"] or digest(stdout) != exp["stdout"]:
            return False
        if int(m.group(1)) != exp["covered"]:
            return False
        if key.startswith("verify ") and rc == 0:
            per_n = [int(g.group(2)) for g in map(_PER_N.match, lines) if g]
            if per_n != list(LABELED_COUNTS[:self.max_n]):
                return False
        if key.startswith("hunt J=>ESP") and self.max_n >= 5:
            return rc == 1 and _crown_text(stdout)
        return True

    def record(self) -> dict:
        out = {}
        for max_n in (3, 5):
            for argv in self.argvs:
                argv = argv[:-1] + (str(max_n),)
                rc, stdout = run_cli(self.cli, argv)
                stdout = _ELAPSED.sub("…s)", stdout)
                covered = int(_SUMMARY.match(stdout.splitlines()[0]).group(1))
                out[self.key(argv)] = {"rc": rc, "stdout": digest(stdout), "covered": covered}
        return out

    def instance_ratio(self) -> float:
        """Instances over posets, summed over the summary lines checked so far."""
        return self.instances / self.posets if self.posets else 0.0


# -- generate --------------------------------------------------------------------

STREAM_CAP = 15000
STREAM_CAP_QUICK = 300
# (corpus file, poset, system, selection) streamed by enumerate_extensions.
# ESPW, JWV and JWV2 on hex and twochains are not listed: at this commit they
# raise TypeError instead of StructureMismatch.  Add them back, pinned to
# StructureMismatch, once that is fixed.
STREAMS = (
    ("hexagon-q.sp", "q", "ESP", None), ("hexagon-q.sp", "q", "ESPW", None),
    ("hexagon-q.sp", "q", "NRMW", None), ("hexagon-q.sp", "q", "NATI", "frink"),
    ("hexagon-q.sp", "q", "J", None), ("hexagon-q.sp", "q", "JWV2", None),
    ("chains5.sp", "chains5", "ESP", None), ("chains5.sp", "chains5", "NRMW", None),
    ("chains5.sp", "chains5", "NATI", "frink"), ("chains5.sp", "chains5", "NAT", None),
    ("hexagon.sp", "hex", "ESP", None), ("hexagon.sp", "hex", "NRMW", None),
    ("hexagon.sp", "hex", "NATI", "union"), ("hexagon.sp", "hex", "NRM", None),
    ("twochains.sp", "twochains", "ESP", None), ("twochains.sp", "twochains", "NRMW", None),
    ("twochains.sp", "twochains", "NATI", "frink"), ("twochains.sp", "twochains", "NAT", None),
)


def random_order(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """Strict order pairs (i, j), i < j, of the transitive closure of a random DAG."""
    up = [0] * n
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < density:
                up[i] |= 1 << j | up[j]
    return [(i, j) for i in range(n) for j in range(n) if up[i] >> j & 1]


def covers_of(n: int, pairs) -> list[tuple[int, int]]:
    rel = set(pairs)
    return [(i, j) for i, j in pairs if not any((i, k) in rel and (k, j) in rel for k in range(n))]


def relabeled(rng: random.Random, n: int, pairs):
    perm = rng.sample(range(n), n)
    return [(perm[i], perm[j]) for i, j in pairs]


class Generate:
    """Class generation, isomorphism tests on seeded pairs, extension streaming."""

    name = "generate"

    def __init__(self, sp, seed: int, quick: bool, expected: dict):
        self.sp = sp
        self.expected = expected.get("stream", {})
        self.max_n = 5 if quick else 7
        self.cap = STREAM_CAP_QUICK if quick else STREAM_CAP
        rng = random.Random(seed)
        names = [chr(ord("a") + i) for i in range(8)]
        # The antichain pair: every canonical-form block is the whole set.
        self.pairs = [("antichain8", sp.build_poset("A", names, []),
                       sp.build_poset("B", names[::-1], []), True)]
        per_n = 3 if quick else 40
        for n in (5, 6, 7, 8):
            for k in range(per_n):
                pairs = random_order(rng, n, rng.choice((0.25, 0.4, 0.55)))
                same = k % 2 == 0 or not pairs
                other = pairs
                if not same:
                    cov = covers_of(n, pairs)
                    drop = cov[rng.randrange(len(cov))]
                    other = [pr for pr in pairs if pr != drop]
                other = relabeled(rng, n, other)
                p = sp.build_poset("P", names[:n], [(names[i], names[j]) for i, j in pairs])
                q = sp.build_poset("Q", names[:n], [(names[i], names[j]) for i, j in other])
                self.pairs.append((f"n{n}-{k}", p, q, same))
        docs = {f: sp.parse_path(CORPUS / f) for f in {s[0] for s in STREAMS}}
        self.streams = []
        for f, pname, system, sel in STREAMS:
            p = docs[f].poset(pname)
            star = sp.star_table(p)
            selection = {"frink": sp.selection_frink, "union": sp.selection_union,
                         None: lambda _p: None}[sel](p)
            self.streams.append((f"{pname} {system} {sel or '-'} {self.cap}", star, system, selection))

    def _classes(self, n):
        return sum(1 for _ in self.sp.enumerate_posets(n, "up-to-iso"))

    def _stream(self, star, system, sel):
        acc = count = 0
        for t in itertools.islice(self.sp.enumerate_extensions(star, system, sel=sel), self.cap):
            count += 1
            acc = (acc * 1000003 ^ hash(t.cells)) & 0xFFFFFFFFFFFF
        return count, acc

    def pass_ops(self, rng: random.Random) -> list[Op]:
        ops = []
        for n in range(1, self.max_n + 1):
            ops.append(Op(f"classes {n}", "classes", CLASS_COUNTS[n - 1],
                          lambda n=n: self._classes(n),
                          lambda out, n=n: out == CLASS_COUNTS[n - 1]))
        for key, p, q, same in self.pairs:
            ops.append(Op(f"iso {key}", "iso", 1,
                          lambda p=p, q=q: self.sp.are_isomorphic(p, q),
                          lambda out, s=same: out is s))
        for key, star, system, sel in self.streams:
            exp = self.expected.get(key)
            ops.append(Op(f"stream {key}", "stream", exp["count"] if exp else 1,
                          lambda s=star, y=system, e=sel: self._stream(s, y, e),
                          lambda out, e=exp: e is not None and list(out) == [e["count"], e["digest"]]))
        rng.shuffle(ops)
        return ops

    def record(self) -> dict:
        out = {}
        for cap in (STREAM_CAP_QUICK, STREAM_CAP):
            self.cap = cap
            for key, star, system, sel in self.streams:
                key = key.rsplit(" ", 1)[0] + f" {cap}"
                count, acc = self._stream(star, system, sel)
                out[key] = {"count": count, "digest": acc}
        return out


# -- documents ---------------------------------------------------------------------


def chain_product(dims):
    """Elements and strict order of a product of chains (a distributive lattice)."""
    els = list(itertools.product(*(range(d) for d in dims)))
    pairs = [(i, j) for i, a in enumerate(els) for j, b in enumerate(els)
             if i != j and all(x <= y for x, y in zip(a, b))]
    return len(els), pairs


def chain(k):
    return k, [(i, j) for i in range(k) for j in range(i + 1, k)]


def disjoint(*parts, top=False):
    """Disjoint union of posets given as (n, pairs); optionally a new top above all."""
    n, pairs = 0, []
    for m, ps in parts:
        pairs += [(i + n, j + n) for i, j in ps]
        n += m
    if top:
        pairs += [(i, n) for i in range(n)]
        n += 1
    return n, pairs


def m_lattice(k):
    """M_k: a bottom, k pairwise incomparable atoms, a top."""
    return k + 2, [(0, i) for i in range(1, k + 2)] + [(i, k + 1) for i in range(1, k + 1)]


def ordinal(*parts):
    """Ordinal sum: every element of a part lies below every element of later parts."""
    n, pairs, offsets = 0, [], []
    for m, ps in parts:
        offsets.append((n, m))
        pairs += [(i + n, j + n) for i, j in ps]
        n += m
    for a, (oa, ma) in enumerate(offsets):
        for ob, mb in offsets[a + 1:]:
            pairs += [(i, j) for i in range(oa, oa + ma) for j in range(ob, ob + mb)]
    return n, pairs


def product(a, b):
    (na, pa), (nb, pb) = a, b
    la = {(i, j) for i, j in pa} | {(i, i) for i in range(na)}
    lb = {(i, j) for i, j in pb} | {(i, i) for i in range(nb)}
    els = [(i, j) for i in range(na) for j in range(nb)]
    pairs = [(x, y) for x, (i, j) in enumerate(els) for y, (k, l) in enumerate(els)
             if x != y and (i, k) in la and (j, l) in lb]
    return len(els), pairs


def downset_lattice(rng: random.Random, lo: int, hi: int):
    """The lattice of down-sets of a random small poset, with lo..hi elements."""
    while True:
        k = rng.randrange(3, 6)
        rel = random_order(rng, k, 0.35)
        downs = [0] * k
        for i, j in rel:
            downs[j] |= 1 << i
        ideals = [s for s in range(1 << k)
                  if all(downs[i] & ~s == 0 for i in range(k) if s >> i & 1)]
        if lo <= len(ideals) <= hi:
            return len(ideals), [(a, b) for a, s in enumerate(ideals) for b, t in enumerate(ideals)
                                 if a != b and s & ~t == 0]


def document_families():
    """The fixed document pool: (family, name, (n, strict pairs)), 8 to 16 elements."""
    rng = random.Random(2207)
    out = []
    for dims in ((2, 4), (3, 3), (2, 5), (2, 6), (3, 4), (2, 2, 3), (4, 4), (2, 8),
                 (2, 2, 2, 2), (2, 2, 4), (3, 5), (2, 7)):
        out.append(("sp-lattice", "cp" + "x".join(map(str, dims)), chain_product(dims)))
    for k in range(4):
        out.append(("sp-lattice", f"downsets{k}", downset_lattice(rng, 8, 16)))
    for k, parts in enumerate((
            (chain(4), chain(4)), (chain_product((2, 2, 2)), chain(3)),
            (chain_product((2, 3)), chain_product((2, 3))), (chain(3), chain(3), chain(3)),
            (chain_product((2, 4)), chain(4)), (chain_product((3, 3)), chain_product((2, 2)), chain(3)))):
        out.append(("sp-nonlattice", f"union{k}", disjoint(*parts)))
    out.append(("sp-nonlattice", "topped0", disjoint(chain_product((2, 3)), chain_product((2, 2)), top=True)))
    out.append(("sp-nonlattice", "topped1", disjoint(chain(3), chain(3), chain_product((2, 2)), top=True)))
    for k in (6, 9, 12, 14):
        out.append(("non-sp", f"M{k}", m_lattice(k)))
    out.append(("non-sp", "M3x2", product(m_lattice(3), chain(2))))
    out.append(("non-sp", "M3x3", product(m_lattice(3), chain(3))))
    out.append(("non-sp", "c3+M3+c3", ordinal(chain(3), m_lattice(3), chain(3))))
    out.append(("non-sp", "M3|c5", disjoint(m_lattice(3), chain(5))))
    return out


FAMILY_WEIGHTS = {"sp-lattice": 0.45, "sp-nonlattice": 0.25, "non-sp": 0.15, "corpus": 0.15}


def _requests_for(totals, partial):
    """Command tails (after FILE) for a document with the given table names."""
    reqs = [("analyze",)]
    reqs += [("star", "--kind", k) for k in STAR_KINDS]
    reqs += [("extend", "--method", m) for m in METHODS]
    reqs += [("extend", "--method", m, "--selection", s) for m in SELECTION_METHODS
             for s in ("union", "frink")]
    for t in totals:
        reqs += [("check", "--table", t, "--system", s) for s in TOTAL_SYSTEMS]
        reqs += [("props", "--table", t, "--suite", s) for s in ("esp-prop", "jext-prop")]
    if totals:
        t = totals[0]
        reqs += [("check", "--table", t, "--system", "NATI", "--selection", s) for s in ("union", "frink")]
        reqs += [("props", "--table", t, "--suite", s, "--selection", "frink") for s in ("Inat-prop", "simplI")]
    if partial:
        reqs += [("check", "--table", partial, "--system", "SP"), ("props", "--table", partial, "--suite", "sp-prop")]
    elif totals:
        # A partial-table system sent a total table on purpose: exit 2.
        reqs.append(("check", "--table", totals[0], "--system", "SP"))
    return reqs


class Documents:
    """A closed loop with one client: one cli.main request on a .sp file at a time."""

    name = "documents"
    BLOCK = 100  # requests per pass

    def __init__(self, sp, seed: int, quick: bool, expected: dict, workdir: Path):
        self.cli = sys.modules["spposet.cli"]
        self.expected = expected.get("documents", {})
        self.block = 30 if quick else self.BLOCK
        self.by_family: dict[str, list] = {f: [] for f in FAMILY_WEIGHTS}
        self.shares = {f: 0 for f in FAMILY_WEIGHTS}
        for family, name, (n, pairs) in document_families():
            els = [f"e{i}" for i in range(n)]
            p = sp.build_poset("P", els, [(els[i], els[j]) for i, j in pairs])
            sections = [sp.Section("poset", "P", p)]
            star = sp.star_table(p)
            if isinstance(star, sp.PartialTable):
                normal = sp.normal_extension(star)
                sections += [sp.Section("optable", "star", star),
                             sp.Section("optable", "natural", sp.natural_extension(star)),
                             sp.Section("optable", "normal", normal.table) if normal.is_total
                             else sp.Section("optable", "pure", sp.pure_extension(star))]
            else:
                proj = sp.TotalTable(p, [list(range(n)) for _ in range(n)])
                sections.append(sp.Section("optable", "proj", proj))
            path = workdir / f"{name.replace('|', '_')}.sp"
            path.write_text(sp.emit(sp.Document(tuple(sections))), encoding="utf-8")
            totals = [s.name for s in sections if s.kind == "optable" and s.name != "star"]
            partial = "star" if isinstance(star, sp.PartialTable) else None
            reqs = _requests_for(totals, partial)
            self.by_family[family] += [(name, path, ("--poset", "P"), r) for r in reqs]
        for path in sorted(CORPUS.glob("*.sp")):
            doc = sp.parse_path(path)
            for sec in doc.sections:
                if sec.kind != "poset":
                    continue
                tables = [s for s in doc.sections if s.kind == "optable" and s.obj.owner == sec.obj]
                totals = [s.name for s in tables if isinstance(s.obj, sp.TotalTable)]
                partial = next((s.name for s in tables if isinstance(s.obj, sp.PartialTable)), None)
                reqs = _requests_for(totals, partial)
                self.by_family["corpus"] += [(path.name, path, ("--poset", sec.name), r) for r in reqs]
        self.round_trip = {}
        for fname, argv in ROUND_TRIPS.items():
            self.round_trip[(fname,) + argv] = digest((CORPUS / fname).read_text(encoding="utf-8"))

    @staticmethod
    def argv_of(path, poset, req):
        cmd, rest = req[0], req[1:]
        if cmd in ("analyze", "star", "extend"):
            return (cmd, str(path)) + poset + rest
        return (cmd, str(path)) + rest

    @staticmethod
    def key(name, poset, req):
        return " ".join((name,) + ((req[0],) + poset + req[1:] if req[0] in ("analyze", "star", "extend")
                                   else req))

    def pass_ops(self, rng: random.Random) -> list[Op]:
        families = list(FAMILY_WEIGHTS)
        weights = [FAMILY_WEIGHTS[f] for f in families]
        ops = []
        for _ in range(self.block):
            family = rng.choices(families, weights)[0]
            name, path, poset, req = rng.choice(self.by_family[family])
            self.shares[family] += 1
            key = self.key(name, poset, req)
            kind = "compute" if req[0] in COMPUTE_COMMANDS else "judge"
            argv = self.argv_of(path, poset, req)
            exp = self.expected.get(key)
            rt = self.round_trip.get((name, req[0]) + poset + req[1:])
            ops.append(Op(key, kind, 1, lambda a=argv: run_cli(self.cli, a),
                          lambda out, e=exp, r=rt: self._check(e, r, out)))
        return ops

    @staticmethod
    def _check(exp, round_trip, out):
        rc, stdout = out
        if exp is None or rc != exp["rc"] or digest(stdout) != exp["stdout"]:
            return False
        return round_trip is None or (rc == 0 and digest(stdout) == round_trip)

    def record(self) -> dict:
        out = {}
        for name, path, poset, req in itertools.chain(*self.by_family.values()):
            rc, stdout = run_cli(self.cli, self.argv_of(path, poset, req))
            out[self.key(name, poset, req)] = {"rc": rc, "stdout": digest(stdout)}
        return out


WORKLOADS = {"sweep": Sweep, "generate": Generate, "documents": Documents}
