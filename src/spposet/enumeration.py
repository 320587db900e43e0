"""Exhaustive generation of small posets and operation tables, and sweeps that
verify the toolkit's theorems or hunt for counterexamples.

Labeled posets on {0..n-1} are produced by extending each (n-1)-poset with
one new greatest-index element in every consistent way, which yields every
labeled poset exactly once.  An independent naive oracle (filter all n*n-bit
relations through the three order laws, one-point-extended once for n = 5)
re-derives the counts 1, 3, 19, 219, 4231 so the generator never has to be
taken on faith.  Isomorphism classes are built level by level: the one-point
extensions of the (n-1)-representatives, deduplicated by canonical key.

Every theorem and hunted property is a statement about order structure, so
the sweeps check one representative per isomorphism class and weight it by
its orbit size n!/|Aut(P)|; the per-n counts are still those of all labeled
posets.  At the first n where a claim fails, that n is rescanned in labeled
order with the same loop, so a reported counterexample, its P<n>-<k> name and
the partial counts are those of a labeled sweep, and a class failure that the
rescan does not confirm is an InternalDisagreement.

Axiom systems on total tables only couple cells that share their second
argument, so the set of all tables satisfying a system factors into one
solution set per column.  The theorem sweeps exploit that: "the axioms have
exactly the constructed table as model" is decided by comparing per-column
solution sets instead of enumerating the full table space.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .axioms import check_system, implicativity, is_esp, is_normal, is_strong, require_system
from .errors import InternalDisagreement, SizeCap, UnknownPredicate, UnknownTheorem
from .extensions import (
    LocalSelection,
    i_natural_cell,
    i_natural_extension,
    natural_extension,
    normal_extension,
    pure_extension,
    selection_frink,
    selection_union,
)
from .fileformat import Document, Section, emit
from .poset import Poset, bits
from .pseudo import PartialTable, TotalTable, star_table, wrp_complement

LABELED_CAP = 7
ISO_CAP = 8

_NAMES = tuple(str(i) for i in range(ISO_CAP))


# -- generation ---------------------------------------------------------------


def _downs(masks) -> list[int]:
    downs = [0] * len(masks)
    for i in range(len(masks)):
        for j in bits(masks[i]):
            downs[j] |= 1 << i
    return downs


def _one_point_extensions(base: tuple[int, ...]):
    """All posets obtained from base by adding one new greatest-index element.

    The new element's strict context is a pair (D, U) of a down-set below it
    and an up-set above it, disjoint and with every member of D under every
    member of U; each labeled poset on one more point arises from its
    restriction this way exactly once.
    """
    m = len(base)
    newbit = 1 << m
    downs = _downs(base)
    down_sets = [s for s in range(newbit) if all(downs[i] & ~s == 0 for i in bits(s))]
    up_sets = [s for s in range(newbit) if all(base[i] & ~s == 0 for i in bits(s))]
    for d in down_sets:
        allowed = newbit - 1
        for i in bits(d):
            allowed &= base[i]
        for u in up_sets:
            if u & d or u & ~allowed:
                continue
            ups = tuple(base[i] | newbit if d >> i & 1 else base[i] for i in range(m))
            yield ups + (u | newbit,)


def _labeled_masks(n: int):
    """Up-mask tuples of every labeled poset on {0..n-1}, exactly once each."""
    if n == 1:
        yield (1,)
        return
    for base in _labeled_masks(n - 1):
        yield from _one_point_extensions(base)


def _iso_levels(max_n: int):
    """One representative per isomorphism class for n = 1..max_n, level by level.

    Removing the last-placed element of any n-poset leaves a poset isomorphic
    to some (n-1)-representative, so extending just the representatives and
    deduplicating by canonical key reaches every class.  Each level is built
    once, from the level before it, starting from the empty poset.
    """
    level: list[tuple[int, ...]] = [()]
    for _ in range(max_n):
        seen: dict[int, tuple[int, ...]] = {}
        for base in level:
            for masks in _one_point_extensions(base):
                key = canonical_key(masks)
                if key not in seen:
                    seen[key] = masks
        level = list(seen.values())
        yield level


def _refine(masks, downs) -> list[int]:
    """Iterated neighborhood invariant: element ranks that every isomorphism preserves."""
    n = len(masks)
    inv = [0] * n
    while True:
        sig = [
            (inv[i],
             tuple(sorted(inv[j] for j in bits(masks[i]))),
             tuple(sorted(inv[j] for j in bits(downs[i]))))
            for i in range(n)
        ]
        ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
        new = [ranks[sig[i]] for i in range(n)]
        if new == inv:
            return inv
        inv = new


def canonical_key(masks) -> int:
    """Isomorphism-invariant integer key: the minimal relabeled relation matrix.

    Elements are first partitioned by an iterated neighborhood invariant; the
    minimum is then taken over the relabelings that respect the partition,
    which always include every isomorphism's image.
    """
    n = len(masks)
    inv = _refine(masks, _downs(masks))
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(inv[i], []).append(i)
    offsets = {}
    pos = 0
    for r in sorted(blocks):
        offsets[r] = pos
        pos += len(blocks[r])
    best = None
    for perms in itertools.product(*(itertools.permutations(blocks[r]) for r in sorted(blocks))):
        place = [0] * n
        for r, perm in zip(sorted(blocks), perms):
            for k, i in enumerate(perm):
                place[i] = offsets[r] + k
        key = 0
        for i in range(n):
            row = place[i] * n
            for j in bits(masks[i]):
                key |= 1 << (row + place[j])
        if best is None or key < best:
            best = key
    return best


def automorphism_count(masks) -> int:
    """|Aut(P)| for the poset with these up-masks.

    Backtracks over images element by element, each drawn from the element's
    block of the invariant partition that canonical_key uses and checked
    against the images already placed, so only partial automorphisms are
    ever extended.
    """
    n = len(masks)
    downs = _downs(masks)
    inv = _refine(masks, downs)
    choices = [[v for v in range(n) if inv[v] == inv[i]] for i in range(n)]
    image = [0] * n

    def count(i, used):
        if i == n:
            return 1
        total = 0
        for v in choices[i]:
            if used >> v & 1:
                continue
            if all((masks[i] >> j & 1) == (masks[v] >> image[j] & 1)
                   and (downs[i] >> j & 1) == (downs[v] >> image[j] & 1) for j in range(i)):
                image[i] = v
                total += count(i + 1, used | 1 << v)
        return total

    return count(0, 0)


def are_isomorphic(p: Poset, q: Poset) -> bool:
    if p.n != q.n:
        return False
    return canonical_key(p.ups) == canonical_key(q.ups)


def enumerate_posets(n: int, dedup: str = "labeled"):
    """Stream the posets of size n, labeled or one representative per isomorphism class."""
    if dedup not in ("labeled", "up-to-iso"):
        raise ValueError(f"dedup must be 'labeled' or 'up-to-iso', got {dedup!r}")
    cap = LABELED_CAP if dedup == "labeled" else ISO_CAP
    if not 1 <= n <= cap:
        raise SizeCap(f"{dedup} enumeration supports 1 <= n <= {cap}, got {n}")
    names = _NAMES[:n]
    if dedup == "labeled":
        for k, masks in enumerate(_labeled_masks(n)):
            yield Poset(f"P{n}-{k}", names, masks)
    else:
        *_, level = _iso_levels(n)
        for k, masks in enumerate(level):
            yield Poset(f"Q{n}-{k}", names, masks)


def count_posets_naive(n: int) -> int:
    """Labeled poset count by the naive relation filter, independent of the generator.

    For n <= 4 every n*n-bit relation is tested against reflexivity,
    antisymmetry and transitivity; for n = 5 each filtered 4-element relation
    is extended by one element in all 2^4 * 2^4 ways and the full candidate
    matrix is re-tested against the same three laws.
    """
    if not 1 <= n <= 5:
        raise SizeCap(f"naive oracle supports 1 <= n <= 5, got {n}")

    def is_order(rows, m):
        for i in range(m):
            if not rows[i] >> i & 1:
                return False
        for i in range(m):
            for j in range(m):
                if i != j and rows[i] >> j & 1:
                    if rows[j] >> i & 1:
                        return False
                    if rows[j] & ~rows[i]:
                        return False
        return True

    def naive(m):
        out = []
        for packed in range(1 << (m * m)):
            rows = [(packed >> (m * i)) & ((1 << m) - 1) for i in range(m)]
            if is_order(rows, m):
                out.append(rows)
        return out

    if n <= 4:
        return len(naive(n))
    count = 0
    for rows in naive(4):
        for below in range(16):  # old elements <= new
            for above in range(16):  # old elements >= new
                cand = [rows[i] | (16 if below >> i & 1 else 0) for i in range(4)]
                cand.append(above | 16)
                if is_order(cand, 5):
                    count += 1
    return count


# -- per-column axiom solving ---------------------------------------------------


def _meets(p: Poset):
    return [[p.greatest_of(p.downs[i] & p.downs[j]) for j in range(p.n)] for i in range(p.n)]


def _joins(p: Poset):
    return [[p.least_of(p.ups[i] & p.ups[j]) for j in range(p.n)] for i in range(p.n)]


def _mlb_need(p: Poset):
    # need[y][z] = elements x with z a maximal lower bound of x and y
    n = p.n
    need = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            for z in bits(p.maximal_of(p.downs[x] & p.downs[y])):
                need[y][z] |= 1 << x
    return need


def _cell_candidates(p: Poset, system: str, sel: LocalSelection | None):
    """Allowed-value bitmask per (row, column) cell under the system's unary axioms."""
    n = p.n
    full = p.full
    cand = [[full] * n for _ in range(n)]

    def restrict_ge(need):
        for r in range(n):
            for c in range(n):
                if need[r][c] == 0:
                    continue
                m = 0
                for v in bits(cand[r][c]):
                    if need[r][c] & ~p.downs[v] == 0:
                        m |= 1 << v
                cand[r][c] = m

    if system in ("SP", "ESP", "NAT", "NATI", "NRM"):
        # "if x <= x -> y then x <= y" rejects values above the row element
        for r in range(n):
            for c in range(n):
                if p.leq_ix(c, r) and r != c:
                    cand[r][c] &= ~p.ups[r]
    if system == "J":
        for r in range(n):
            for c in range(n):
                if not p.leq_ix(r, c):
                    cand[r][c] &= ~p.ups[r]
    if system == "NRM":
        for r in range(n):
            for c in range(n):
                cand[r][c] &= p.ups[c]
    if system in ("SP", "ESP", "NRM"):
        restrict_ge(_mlb_need(p))
    if system == "NAT":
        need = [[0] * n for _ in range(n)]
        for y in range(n):
            for z in range(n):
                for x in bits(p.ups[z]):
                    if p.disjoint_over_ix(x, y, z):
                        need[y][z] |= 1 << x
        restrict_ge(need)
    if system == "NATI":
        need = [[0] * n for _ in range(n)]
        for y in range(n):
            for z in range(n):
                im = sel.mask_ix(y, z)
                for x in bits(p.ups[z]):
                    if all(p.disjoint_over_ix(x, w, z) for w in bits(im)):
                        need[y][z] |= 1 << x
        restrict_ge(need)
    if system == "J":
        meet = _meets(p)
        need = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                w = meet[x][y]
                if w is not None:
                    need[y][w] |= 1 << x
        restrict_ge(need)
    if system in ("JWV", "JWV2"):
        meet = _meets(p)
        join = _joins(p)
        for r in range(n):
            for c in range(n):
                m = 0
                for v in bits(cand[r][c]):
                    if meet[v][join[r][c]] == c:
                        m |= 1 << v
                cand[r][c] = m
        need = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if system == "JWV2":
                        w = meet[z][join[x][y]]
                    else:
                        w = meet[join[z][y]][join[x][y]]
                    if w is not None:
                        need[x][w] |= 1 << z
        restrict_ge(need)
    if system == "ESPW":
        meet = _meets(p)
        for r in range(n):
            for c in range(n):
                if p.leq_ix(c, r):
                    m = 0
                    for v in bits(cand[r][c]):
                        if meet[r][v] == c:
                            m |= 1 << v
                    cand[r][c] = m
        need = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                need[y][meet[x][y]] |= 1 << x
        restrict_ge(need)
    return cand


def _pair_check(p: Poset, system: str):
    """Within-column binary constraint, or None when the system has none."""
    if system in ("SP", "ESP"):
        def antitone_guarded(c, r1, v1, r2, v2):
            if p.leq_ix(c, r1) and p.leq_ix(c, r2):
                if p.leq_ix(r1, r2) and not p.leq_ix(v2, v1):
                    return False
                if p.leq_ix(r2, r1) and not p.leq_ix(v1, v2):
                    return False
            return True
        return antitone_guarded
    if system in ("NAT", "NATI"):
        def antitone(c, r1, v1, r2, v2):
            if p.leq_ix(r1, r2) and not p.leq_ix(v2, v1):
                return False
            if p.leq_ix(r2, r1) and not p.leq_ix(v1, v2):
                return False
            return True
        return antitone
    if system in ("NRM", "J"):
        def exchange(c, r1, v1, r2, v2):
            return p.leq_ix(r1, v2) == p.leq_ix(r2, v1)
        return exchange
    return None  # ESPW, JWV, JWV2 are unary per cell


def system_column_solutions(p: Poset, system: str, sel: LocalSelection | None = None,
                            forced: PartialTable | None = None) -> list[list[tuple]]:
    """All per-column assignments satisfying the system's axioms.

    A table satisfies the system iff it picks one solution per column, so the
    full model set is the cartesian product of the returned lists.  For the SP
    system the column domain is the rows weakly above the column element; all
    other systems are total.  With `forced`, sectioned cells are pinned to the
    given star table (extension enumeration).  The poset must have the
    structure and the selection the system needs, as in check_system.
    """
    if system != "NRMW":
        # the solver has no NRMW constraints yet: it yields every extension,
        # on any poset, and the generate benchmark pins those streams
        require_system(p, system, sel)
    n = p.n
    cand = _cell_candidates(p, system, sel)
    pair = _pair_check(p, system)
    out = []
    for c in range(n):
        rows = [r for r in range(n) if p.leq_ix(c, r)] if system == "SP" else list(range(n))
        masks = []
        for r in rows:
            m = cand[r][c]
            if forced is not None and p.leq_ix(c, r):
                m &= 1 << forced.cells[r][c]
            masks.append(m)
        sols: list[tuple] = []
        vals = [0] * len(rows)

        def rec(k):
            if k == len(rows):
                sols.append(tuple(vals))
                return
            for v in bits(masks[k]):
                if pair is not None:
                    ok = True
                    for t in range(k):
                        if not pair(c, rows[t], vals[t], rows[k], v):
                            ok = False
                            break
                    if not ok:
                        continue
                vals[k] = v
                rec(k + 1)

        rec(0)
        out.append(sols)
    return out


def products_equal(cols_a: list[list[tuple]], cols_b: list[list[tuple]]) -> bool:
    """Whether two column-factored table sets are equal (empty products compare equal)."""
    empty_a = any(not c for c in cols_a)
    empty_b = any(not c for c in cols_b)
    if empty_a or empty_b:
        return empty_a == empty_b
    return [sorted(c) for c in cols_a] == [sorted(c) for c in cols_b]


def table_as_columns(t, rows_per_col=None) -> list[list[tuple]]:
    """A single table viewed as a column-factored singleton set."""
    p = t.owner
    out = []
    for c in range(p.n):
        rows = rows_per_col[c] if rows_per_col is not None else range(p.n)
        out.append([tuple(t.cells[r][c] for r in rows)])
    return out


def enumerate_extensions(s: PartialTable, system: str, sel: LocalSelection | None = None,
                         max_free_cells: int = 25):
    """All total tables extending the star table s that satisfy the given system.

    Streamed deterministically: column assignments vary rightmost-column
    fastest.  Raises SizeCap when the number of free (non-sectioned) cells
    exceeds the budget, and StructureMismatch or MissingSelection when the
    poset lacks the structure or the selection the system needs.
    """
    p = s.owner
    free = sum(1 for x in range(p.n) for y in range(p.n) if not p.leq_ix(y, x))
    if free > max_free_cells:
        raise SizeCap(f"{free} free cells exceed the budget of {max_free_cells}")
    cols = system_column_solutions(p, system, sel=sel, forced=s)
    n = p.n
    for pick in itertools.product(*cols):
        cells = [[0] * n for _ in range(n)]
        for c in range(n):
            for r in range(n):
                cells[r][c] = pick[c][r]
        yield TotalTable(p, cells)


# -- verification reports ---------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    serialized: str
    witness: str


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    max_n: int
    posets_per_n: dict
    instances_per_n: dict
    outcome: str  # "verified" | "counterexample"
    counterexample: Counterexample | None
    elapsed: float
    details: dict = field(default_factory=dict)

    @property
    def posets_checked(self) -> int:
        return sum(self.posets_per_n.values())

    @property
    def instances_checked(self) -> int:
        return sum(self.instances_per_n.values())

    def summary_lines(self) -> list[str]:
        lines = [
            f"claim {self.theorem}: {self.outcome} (n = 1..{self.max_n}, "
            f"{self.posets_checked} posets, {self.instances_checked} instances, "
            f"{self.elapsed:.2f}s)"
        ]
        for n in sorted(self.instances_per_n):
            lines.append(
                f"  n={n}: {self.posets_per_n[n]} posets, {self.instances_per_n[n]} instances")
        for key, val in self.details.items():
            lines.append(f"  {key}: {val}")
        return lines


class _Ctx:
    """Per-poset context with the expensive pieces computed once."""

    __slots__ = ("p", "_rep", "_star")

    def __init__(self, p: Poset):
        self.p = p
        self._rep = None
        self._star = None

    @property
    def rep(self):
        if self._rep is None:
            self._rep = self.p.classify()
        return self._rep

    @property
    def star(self):
        if self._star is None:
            self._star = star_table(self.p)
        return self._star

    @property
    def is_sp(self) -> bool:
        return isinstance(self.star, PartialTable)


def _serialize(p: Poset, tables: dict | None = None) -> str:
    sections = [Section("poset", p.name, p)]
    for name, t in (tables or {}).items():
        sections.append(Section("optable", name, t))
    return emit(Document(tuple(sections)))


def _class_levels(max_n: int):
    """Per n, each isomorphism class as (representative masks, orbit size n!/|Aut|)."""
    for n, level in enumerate(_iso_levels(max_n), 1):
        yield [(masks, math.factorial(n) // automorphism_count(masks)) for masks in level]


def _scan(weighted_posets, hypothesis, check, stop: bool):
    """Visit (poset, weight) pairs in order.

    Returns the weighted (poset, instance) counts and, per failing variant,
    the first counterexample met; with `stop`, ends at the first failure.
    """
    posets = instances = 0
    first: dict[str, Counterexample] = {}
    for p, weight in weighted_posets:
        posets += weight
        ctx = _Ctx(p)
        if not hypothesis(ctx):
            continue
        instances += weight
        for variant, ce in check(ctx).items():
            first.setdefault(variant, ce)
        if stop and first:
            break
    return (posets, instances), first


def _sweep(max_n: int, hypothesis, check, stop: bool):
    """Check every poset with up to max_n elements, one isomorphism class at a time.

    `check(ctx)` maps each claim variant the poset violates to its
    counterexample.  Hypotheses and claims are order-invariant, so each class
    representative stands for its whole orbit and counts n!/|Aut| labeled
    posets.  At the first n where some variant fails, that n is rescanned in
    labeled order (P<n>-0, P<n>-1, ...), so the first counterexample, its name
    and the partial counts are those of a labeled sweep; the class pass and
    the rescan must agree on which variants fail.  With `stop`, the sweep ends
    at the first counterexample.  Returns posets_per_n, instances_per_n and
    the first counterexample per failing variant.
    """
    if max_n > LABELED_CAP:
        raise SizeCap(f"labeled enumeration supports 1 <= n <= {LABELED_CAP}, got {max_n}")
    posets_per_n: dict[int, int] = {}
    instances_per_n: dict[int, int] = {}
    found: dict[str, Counterexample] = {}
    for n, level in enumerate(_class_levels(max_n), 1):
        names = _NAMES[:n]
        classes = ((Poset(f"Q{n}-{k}", names, masks), orbit)
                   for k, (masks, orbit) in enumerate(level))
        counts, first = _scan(classes, hypothesis, check, stop)
        if first.keys() - found.keys():
            labeled = ((p, 1) for p in enumerate_posets(n))
            labeled_counts, labeled_first = _scan(labeled, hypothesis, check, stop)
            if labeled_first.keys() != first.keys() or not stop and labeled_counts != counts:
                raise InternalDisagreement(
                    f"at n={n} the class sweep and the labeled rescan disagree: failing "
                    f"{sorted(first)} vs {sorted(labeled_first)}, counts {counts} vs {labeled_counts}")
            counts, first = labeled_counts, labeled_first
        posets_per_n[n], instances_per_n[n] = counts
        for variant, ce in first.items():
            found.setdefault(variant, ce)
        if stop and found:
            break
    return posets_per_n, instances_per_n, found


def _report(claim: str, max_n: int, hypothesis, check) -> VerificationReport:
    """Sweep for a single-variant claim whose check returns a Counterexample or None."""
    start = time.perf_counter()

    def variants(ctx):
        ce = check(ctx)
        return {} if ce is None else {claim: ce}

    posets_per_n, instances_per_n, found = _sweep(max_n, hypothesis, variants, stop=True)
    ce = found.get(claim)
    return VerificationReport(
        claim, max_n, posets_per_n, instances_per_n,
        "verified" if ce is None else "counterexample", ce, time.perf_counter() - start)


# -- individual theorem checks -----------------------------------------------------


def _expected_singleton_or_empty(ctx: _Ctx, table: TotalTable | None) -> list[list[tuple]]:
    if table is None:
        return [[]]
    return table_as_columns(table)


def _check_spchar(ctx: _Ctx):
    p = ctx.p
    sols = system_column_solutions(p, "SP")
    rows_per_col = [[r for r in range(p.n) if p.leq_ix(c, r)] for c in range(p.n)]
    if ctx.is_sp:
        expected = table_as_columns(ctx.star, rows_per_col)
    else:
        expected = [[]]
    if not products_equal(sols, expected):
        return Counterexample(
            _serialize(p),
            "star tables satisfying the axioms differ from the sectional "
            f"pseudocomplementation (solution counts per column: {[len(c) for c in sols]})")
    return None


def _check_glb(ctx: _Ctx):
    p = ctx.p
    for x in range(p.n):
        for y in range(p.n):
            g = p.greatest_of(p.downs[x] & p.downs[y])
            mlb = p.maximal_of(p.downs[x] & p.downs[y])
            for z in range(p.n):
                a = bool(mlb >> z & 1)
                b = g == z
                c = p.meet_over_ix(x, y, z) == z
                if not (a == b == c):
                    return Counterexample(
                        _serialize(p),
                        f"maximal-lower-bound / meet / local-meet disagree at "
                        f"({p.elements[x]}, {p.elements[y]}, {p.elements[z]})")
    return None


def _min_form_cells(p: Poset, s: PartialTable, second: bool):
    n = p.n
    cells = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if second:
                zmask = (p.downs[x] | p.downs[y]) & p.ups[y]
            else:
                zmask = (p.ups[y] & p.downs[x]) | (1 << y)
            vals = 0
            for z in bits(zmask):
                vals |= 1 << s.cells[z][y]
            cells[x][y] = p.least_of(vals)
    return cells


def _check_nat_eq(ctx: _Ctx):
    p = ctx.p
    nat = natural_extension(ctx.star)
    m1 = _min_form_cells(p, ctx.star, second=False)
    m2 = _min_form_cells(p, ctx.star, second=True)
    for x in range(p.n):
        for y in range(p.n):
            if not (nat.cells[x][y] == m1[x][y] == m2[x][y]):
                return Counterexample(
                    _serialize(p, {"natural": nat}),
                    f"natural extension forms disagree at ({p.elements[x]}, {p.elements[y]})")
    return None


def _check_jext_fin(ctx: _Ctx):
    total = normal_extension(ctx.star).is_total
    if total != ctx.rep.is_upper_semilattice:
        return Counterexample(
            _serialize(ctx.p),
            f"normal extension total={total} but upper semilattice={ctx.rep.is_upper_semilattice}")
    return None


def _check_nrm_impl(ctx: _Ctx):
    t = normal_extension(ctx.star).table
    rep = implicativity(ctx.p, t)
    if not (rep.left.holds and rep.right.holds):
        side = "left" if not rep.left.holds else "right"
        wit = rep.left.witness or rep.right.witness
        return Counterexample(
            _serialize(ctx.p, {"normal": t}),
            f"normal extension not {side}-implicative, witness {wit}")
    return None


def _check_nrm_ax(ctx: _Ctx):
    p = ctx.p
    sols = system_column_solutions(p, "NRM")
    table = None
    if ctx.is_sp:
        ext = normal_extension(ctx.star)
        table = ext.table
    if not products_equal(sols, _expected_singleton_or_empty(ctx, table)):
        return Counterexample(
            _serialize(p),
            "tables satisfying the normality axioms differ from the normal extension "
            f"(solution counts per column: {[len(c) for c in sols]})")
    return None


def _check_str_nrm(ctx: _Ctx):
    p = ctx.p
    for make in (selection_union, selection_frink):
        sel = make(p)
        ext = i_natural_extension(p, sel)
        if not ext.is_total:
            continue
        if not is_strong(p, ext.table).holds:
            continue
        if not is_normal(p, ctx.star, ext.table):
            return Counterexample(
                _serialize(p, {f"inat-{sel.kind}": ext.table}),
                f"strong {sel.kind}-natural table is not normal")
    return None


def _check_nat_implic(ctx: _Ctx):
    p = ctx.p
    nat = natural_extension(ctx.star)
    rep = implicativity(p, nat)
    if rep.left.holds != ctx.rep.all_lower_sections_chains:
        return Counterexample(
            _serialize(p, {"natural": nat}),
            f"left-implicative={rep.left.holds} but all lower sections chains="
            f"{ctx.rep.all_lower_sections_chains}")
    if rep.right.holds != ctx.rep.is_chain:
        return Counterexample(
            _serialize(p, {"natural": nat}),
            f"right-implicative={rep.right.holds} but chain={ctx.rep.is_chain}")
    return None


def _check_j_eq_nrm(ctx: _Ctx):
    p = ctx.p
    sols = system_column_solutions(p, "J")
    table = None
    if ctx.is_sp:
        table = normal_extension(ctx.star).table
    if not products_equal(sols, _expected_singleton_or_empty(ctx, table)):
        return Counterexample(
            _serialize(p),
            "tables satisfying j1-j3 differ from the normal extension "
            f"(solution counts per column: {[len(c) for c in sols]})")
    return None


def _check_lat_f_eq_j(ctx: _Ctx):
    p = ctx.p
    fnat = i_natural_extension(p, selection_frink(p))
    sols = system_column_solutions(p, "JWV2")
    expected = _expected_singleton_or_empty(ctx, fnat.table)
    if not products_equal(sols, expected):
        return Counterexample(
            _serialize(p),
            "tables satisfying the lattice identities differ from the Frink-natural extension "
            f"(solution counts per column: {[len(c) for c in sols]})")
    if fnat.is_total != ctx.is_sp:
        return Counterexample(
            _serialize(p), "Frink-natural extension total but the lattice is not sp-complemented")
    if fnat.is_total:
        jext = normal_extension(ctx.star)
        if not jext.is_total or jext.table != fnat.table:
            return Counterexample(
                _serialize(p, {"fnat": fnat.table}),
                "Frink-natural extension differs from the join extension")
    return None


def _check_mono(ctx: _Ctx):
    p = ctx.p
    union = selection_union(p)
    frink = selection_frink(p)
    for x in range(p.n):
        for y in range(p.n):
            vu = i_natural_cell(p, union, x, y)
            vf = i_natural_cell(p, frink, x, y)
            if vu is None or vf is None:
                continue
            if not p.leq_ix(vf, vu):
                return Counterexample(
                    _serialize(p),
                    f"larger selection did not shrink the value at "
                    f"({p.elements[x]}, {p.elements[y]})")
    return None


def _check_right_impl(ctx: _Ctx):
    # A whole-table counterexample exists iff a single cell admits a value that
    # meets the hypotheses (right-implicative law at that cell, value above the
    # column element) but breaks the left-implicative law: the remaining cells
    # can always be completed with the pure extension, which satisfies both
    # hypotheses everywhere.
    p = ctx.p
    tops = [p.section_top_ix(i) for i in range(p.n)]
    for x in range(p.n):
        for y in range(p.n):
            for v in bits(p.ups[y]):
                if (v == tops[y]) != p.leq_ix(x, y):
                    continue
                if (v == tops[x]) != p.leq_ix(x, y):
                    cells = [list(r) for r in pure_extension(ctx.star).cells]
                    cells[x][y] = v
                    t = TotalTable(p, cells)
                    return Counterexample(
                        _serialize(p, {"arrow": t}),
                        f"right-implicative table with y <= x->y is not left-implicative "
                        f"at ({p.elements[x]}, {p.elements[y]})")
    return None


def _iso_variants(ctx: _Ctx):
    p = ctx.p
    nat = natural_extension(ctx.star)
    fnat = i_natural_extension(p, selection_frink(p))
    if fnat.is_total and fnat.table == nat:
        return {}
    ce = Counterexample(
        _serialize(p, {"natural": nat}),
        "natural table is not the Frink-natural table")
    if is_strong(p, nat).holds:
        return {"up-directed": ce, "up-directed+strong": ce}
    return {"up-directed": ce}


def _verify_iso(max_n: int) -> VerificationReport:
    """Selection-monotonicity corollary, tested under both hypothesis readings.

    Variant "up-directed": every up-directed naturally extended poset is also
    Frink-naturally extended by the same table.  Variant "up-directed+strong"
    adds strongness of the natural table.  The report's outcome follows the
    strong variant; both verdicts are recorded in details.
    """
    start = time.perf_counter()
    posets_per_n, instances_per_n, found = _sweep(
        max_n, lambda ctx: ctx.is_sp and ctx.rep.is_up_directed, _iso_variants, stop=False)
    elapsed = time.perf_counter() - start
    details = {
        "up-directed": "counterexample" if "up-directed" in found else "verified",
        "up-directed+strong": "counterexample" if "up-directed+strong" in found else "verified",
    }
    strong_ce = found.get("up-directed+strong") or found.get("up-directed")
    if "up-directed+strong" in found:
        return VerificationReport("T-ISO", max_n, posets_per_n, instances_per_n,
                                  "counterexample", strong_ce, elapsed, details)
    if "up-directed" in found:
        details["up-directed-first"] = found["up-directed"].serialized.replace("\n", "; ")
    return VerificationReport("T-ISO", max_n, posets_per_n, instances_per_n,
                              "verified", None, elapsed, details)


THEOREMS = {
    "T-SPCHAR": ("star tables satisfying sp1-sp3 are exactly the sectional pseudocomplementation",
                 lambda ctx: True, _check_spchar),
    "T-GLB": ("maximal lower bound = meet = local meet in semilattices",
              lambda ctx: ctx.rep.is_upper_semilattice or ctx.rep.is_lower_semilattice,
              _check_glb),
    "T-NAT-EQ": ("natural extension max form equals both min forms",
                 lambda ctx: ctx.is_sp, _check_nat_eq),
    "T-JEXT-FIN": ("normal extension is total exactly on upper semilattices",
                   lambda ctx: ctx.is_sp, _check_jext_fin),
    "T-NRM-IMPL": ("total normal extensions are implicative",
                   lambda ctx: ctx.is_sp and normal_extension(ctx.star).is_total,
                   _check_nrm_impl),
    "T-NRM-AX": ("tables satisfying nrm0-nrm3 are exactly the total normal extensions",
                 lambda ctx: True, _check_nrm_ax),
    "T-STR-NRM": ("strong selection-natural tables are normal (union and Frink selections)",
                  lambda ctx: ctx.is_sp, _check_str_nrm),
    "T-NAT-IMPLIC": ("natural extension implicativity matches the lower-section structure",
                     lambda ctx: ctx.is_sp, _check_nat_implic),
    "T-J-EQ-NRM": ("on lower semilattices with a greatest element, j1-j3 tables are the normal extensions",
                   lambda ctx: ctx.rep.is_lower_semilattice and ctx.rep.has_greatest,
                   _check_j_eq_nrm),
    "T-LAT-F-EQ-J": ("on lattices the Frink-natural extension is the join extension and the unique "
                     "model of the lattice identities",
                     lambda ctx: ctx.rep.is_lattice, _check_lat_f_eq_j),
    "T-MONO": ("growing the selection shrinks the extension pointwise",
               lambda ctx: ctx.is_sp, _check_mono),
    "T-RIGHT-IMPL": ("right-implicative tables with y <= x->y are left-implicative",
                     lambda ctx: ctx.is_sp, _check_right_impl),
}


def verify_theorem(theorem: str, max_n: int) -> VerificationReport:
    """Check one built-in claim on every poset with up to max_n elements.

    The sweep visits one representative per isomorphism class and weights it
    by its orbit size, so the counts are those of all labeled posets; a
    failing n is rescanned in labeled order, so a counterexample is the first
    labeled one.
    """
    if theorem == "T-ISO":
        return _verify_iso(max_n)
    if theorem not in THEOREMS:
        known = ", ".join(sorted(THEOREMS) + ["T-ISO"])
        raise UnknownTheorem(f"unknown theorem {theorem!r}; known: {known}")
    _, hyp, check = THEOREMS[theorem]
    return _report(theorem, max_n, hyp, check)


def theorem_ids() -> tuple[str, ...]:
    return tuple(sorted(list(THEOREMS) + ["T-ISO"]))


# -- counterexample hunts -----------------------------------------------------------


def _pointwise_table(p: Poset, value_fn) -> TotalTable | None:
    cells = []
    for x in range(p.n):
        row = []
        for y in range(p.n):
            v = value_fn(x, y)
            if v is None:
                return None
            row.append(v)
        cells.append(row)
    return TotalTable(p, cells)


def _rp_table(p: Poset) -> TotalTable | None:
    if p.greatest_of(p.full) is None:
        return None  # x -> x would need a greatest element

    def cell(x, y):
        m = 0
        for u in range(p.n):
            if p.downs[u] & p.downs[x] & ~p.downs[y] == 0:
                m |= 1 << u
        return p.greatest_of(m)

    return _pointwise_table(p, cell)


def _clp_table(p: Poset) -> TotalTable | None:
    def cell(x, y):
        f = p.frink_mask(x, y)
        m = 0
        for u in range(p.n):
            if f & p.downs[u] == p.downs[y]:
                m |= 1 << u
        return p.greatest_of(m)

    return _pointwise_table(p, cell)


def _hunt_rule_to_esp(kind: str):
    """Counterexample check for 'tables of a total pointwise rule are extended
    sectional pseudocomplementations'."""

    def check(ctx: _Ctx):
        p = ctx.p
        t = _rp_table(p) if kind == "rp" else _clp_table(p)
        if t is None:
            return None
        if kind == "rp":
            jrep = check_system(p, t, "J")
            if not jrep.holds:
                raise InternalDisagreement(
                    "a total relative pseudocomplementation violated j1-j3")
        verdict = is_esp(p, t)
        if verdict.holds:
            return None
        wrp_agrees = all(
            t.value(x, y) == wrp_complement(p, x, y)
            for i in range(p.n)
            for j in range(p.n)
            if p.leq_ix(j, i)
            for x, y in [(p.elements[i], p.elements[j])]
        )
        return Counterexample(
            _serialize(p, {kind: t}),
            f"total {kind} table is not an extended sectional pseudocomplementation; "
            f"restriction differs from the sectional pseudocomplement at {verdict.witness}; "
            f"restriction agrees with the weak relative pseudocomplement everywhere: {wrp_agrees}")

    return check


def _hunt_esp_to_j(ctx: _Ctx):
    # An extension leaves every non-sectioned cell free, and each j-axiom
    # instance lives inside one column, so a j-violating extension exists iff
    # some single column admits a violating vector; the other columns are
    # completed with the pure extension.
    p = ctx.p
    n = p.n
    star = ctx.star
    meet = _meets(p)
    j_need = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            w = meet[x][y]
            if w is not None:
                j_need[y][w] |= 1 << x

    for c in range(n):
        masks = [1 << star.cells[r][c] if p.leq_ix(c, r) else p.full for r in range(n)]
        vals = [0] * n
        hit: list[tuple] = []

        def violates(k, v):
            if p.leq_ix(k, v) and not p.leq_ix(k, c):
                return True  # j2
            if j_need[k][c] & ~p.downs[v]:
                return True  # j3
            for t in range(k):
                if p.leq_ix(t, v) != p.leq_ix(k, vals[t]):
                    return True  # j1
            return False

        def rec(k):
            if hit or k == n:
                return
            for v in bits(masks[k]):
                if violates(k, v):
                    vals[k] = v
                    for t in range(k + 1, n):
                        vals[t] = star.cells[t][c] if p.leq_ix(c, t) else c
                    hit.append(tuple(vals))
                    return
                vals[k] = v
                rec(k + 1)
                if hit:
                    return

        rec(0)
        if hit:
            cells = [list(r) for r in pure_extension(star).cells]
            for r in range(n):
                cells[r][c] = hit[0][r]
            t = TotalTable(p, cells)
            jrep = check_system(p, t, "J")
            if jrep.holds or not is_esp(p, t).holds:
                raise InternalDisagreement("hunted table is not the counterexample it should be")
            axiom, wit = jrep.violations[0]
            return Counterexample(
                _serialize(p, {"arrow": t}),
                f"extended sectional pseudocomplementation violating {axiom} at {wit}")
    return None


def _hunt_sp_to_sp(ctx: _Ctx):
    rep = check_system(ctx.p, ctx.star, "SP")
    if rep.holds:
        return None
    return Counterexample(_serialize(ctx.p), f"star table violates {rep.violations[0]}")


PREDICATES = {
    "J⇒ESP": ("total relative pseudocomplementations satisfy j1-j3; are they extended "
              "sectional pseudocomplementations?",
              lambda ctx: True, _hunt_rule_to_esp("rp"), LABELED_CAP),
    "CLP⇒ESP": ("are total sectional pseudocomplements in the greatest-element sense extended "
                "sectional pseudocomplementations?",
                lambda ctx: True, _hunt_rule_to_esp("clp"), LABELED_CAP),
    "ESP⇒J": ("do extended sectional pseudocomplementations satisfy j1-j3?",
              lambda ctx: ctx.is_sp, _hunt_esp_to_j, 5),
    "sp⇒sp": ("sanity: the computed star table satisfies its own axioms",
              lambda ctx: ctx.is_sp, _hunt_sp_to_sp, LABELED_CAP),
}


def normalize_predicate(predicate: str) -> str:
    flat = predicate.replace(" ", "").replace("=>", "⇒")
    for key in PREDICATES:
        if flat.lower() == key.lower():
            return key
    raise UnknownPredicate(
        f"unknown predicate {predicate!r}; known: {', '.join(sorted(PREDICATES))}")


def find_counterexample(predicate: str, max_n: int) -> VerificationReport:
    """First instance, in labeled enumeration order, violating a built-in property.

    Isomorphism classes find the smallest failing n; only that n is scanned
    in labeled order, up to its first counterexample.
    """
    key = normalize_predicate(predicate)
    _, hyp, check, cap = PREDICATES[key]
    if max_n > cap:
        raise SizeCap(f"predicate {key} supports max_n <= {cap}")
    return _report(key, max_n, hyp, check)


def predicate_ids() -> tuple[str, ...]:
    return tuple(sorted(PREDICATES))


# -- exploratory probe for the selection-axiom biconditional -------------------------


def probe_sinat_variants(max_n: int, selection: str = "frink") -> dict:
    """Test 'up-directed arrow posets are selection-natural iff they satisfy
    nat1, nat2 and the selection variant of nat3' under two hypothesis readings.

    Returns, per variant, "verified" or the first counterexample poset name.
    Variant "plain" quantifies over all tables; variant "strong" restricts both
    directions to strong tables.
    """
    make = {"frink": selection_frink, "union": selection_union}[selection]
    out = {"plain": "verified", "strong": "verified"}
    for n in range(1, max_n + 1):
        for p in enumerate_posets(n):
            rep = p.classify()
            if not rep.is_up_directed:
                continue
            sel = make(p)
            sols = system_column_solutions(p, "NATI", sel=sel)
            ext = i_natural_extension(p, sel)
            expected = table_as_columns(ext.table) if ext.is_total else [[]]
            if out["plain"] == "verified" and not products_equal(sols, expected):
                out["plain"] = f"counterexample at n={n}: {p.name}"
            if out["strong"] == "verified":
                strong_sols = set()
                empty = any(not c for c in sols)
                size = 1
                for c in sols:
                    size *= max(len(c), 1)
                if size > 100_000:
                    out["strong"] = f"inconclusive at n={n}: {p.name} ({size} models)"
                    continue
                if not empty:
                    for pick in itertools.product(*sols):
                        cells = [[pick[c][r] for c in range(p.n)] for r in range(p.n)]
                        t = TotalTable(p, cells)
                        if is_strong(p, t).holds:
                            strong_sols.add(t)
                want = {ext.table} if ext.is_total and is_strong(p, ext.table).holds else set()
                if strong_sols != want:
                    out["strong"] = f"counterexample at n={n}: {p.name}"
    return out
