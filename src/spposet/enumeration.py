"""Exhaustive generation of small posets and operation tables, and sweeps that
verify the toolkit's theorems or hunt for counterexamples.

Labeled posets on {0..n-1} are produced by extending each (n-1)-poset with
one new greatest-index element in every consistent way, which yields every
labeled poset exactly once.  An independent naive oracle (filter all n*n-bit
relations through the three order laws, one-point-extended once for n = 5)
re-derives the counts 1, 3, 19, 219, 4231 so the generator never has to be
taken on faith.  Isomorphism classes are built level by level: each
(n-1)-representative gains a new maximal element over one down-set per orbit
of the automorphisms its search found, and the results are deduplicated by
canonical key (Brinkmann & McKay, "Posets on up to 16 points", Order 19,
2002).  The key comes from an individualization-refinement search: equitable refinement of
an ordered partition of the elements, one element of the first cell that is
not a set of twins (incomparable elements with the same strict up- and
down-sets) individualized at each branch, and children skipped when an
automorphism found at two equal leaves maps a searched child onto them.  The
same search yields |Aut(P)| and the automorphisms that prune the next level,
so the cost follows the search tree, not the factorial of the symmetric
blocks.

Every theorem, hunted property and probe is a `Claim` record: a hypothesis,
a check and, for a claim read under several hypotheses, its variants from
weakest to strongest.  One sweep reads them all, on up to ISO_CAP elements
for every claim.  A claim of one variant stops at its first counterexample;
a claim of several sweeps every n, and its report follows the strongest
variant.  Every claim is a statement about order structure, so the sweep
checks one representative per isomorphism class and weights it by its orbit
size n!/|Aut(P)|; the per-n counts are still those of all labeled posets.
At the first n where a claim fails, a descent over the one-point-extension
tree, memoized by class, finds the first labeled counterexample without
listing labeled posets (`_ExtensionTree`), so a reported counterexample, its
P<n>-<k> name and the partial counts are those of a labeled sweep, and a
class failure that the descent does not reach is an InternalDisagreement.
Each completed descent is kept on its claim (`Claim.descents`, by n and
variant) from the claim's first sweep on, since it is a few hundred bytes;
a later sweep of the claim still scans the classes, but reads the kept
descent once its class pass fails.  Each class level is built whole, once
per process, from the level below, into a memo of plain data
(`_memo_level`: masks, |Aut| and automorphisms) that is kept for the life
of the process and read by class enumeration and every sweep; a process
that enumerates or sweeps more than once builds no level twice, and one
that sweeps once builds what it did before.  The memo has a lock of its
own, held while a level is built, and appends a level only once it is
complete.  From the second sweep of a process on, the levels n <= 7 are
also kept for the life of the process as Q<n>-<k> posets named from the
memo, so later sweeps reuse them and the derived tables the claims built
on them (`_class_levels`).  The first sweep keeps no Poset, and level 8
is made into Posets afresh by each sweep that reaches it.  Sweeps take
turns on one lock, which also guards the kept descents.  Class
enumeration (`enumerate_posets`) reads the memo and never that lock, and
makes fresh Posets.

Axiom systems on total tables only couple cells that share their second
argument, so the set of all tables satisfying a system factors into one
solution set per column.  The theorem sweeps exploit that: "the axioms have
exactly the constructed table as model" is decided by comparing per-column
solution sets instead of enumerating the full table space.  A column
search hands out blocks (_column_blocks): a solution reached row by row, or
a free tail, the product of the values of the rows after the last one
linked to a later row.  An extension stream is the product of the columns'
solutions (_product_tables), which reads each column's blocks once and
keeps what it has read for the column's later passes.  The passes run over
the rightmost column with more than one solution; the columns after it are
constants.  Each block of that column gives its tables through one
iterator, whatever its length: a free tail through itertools.product over
per-row templates, paid from the search budget at once (_tail_payment),
and a run of other solutions through one zip that takes its rows n at a
time.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import add

from .axioms import (
    LAWS,
    SYSTEMS,
    check_system,
    implicativity,
    is_esp,
    is_normal,
    is_strong,
    require_system,
    system_laws,
)
from .errors import (
    InternalDisagreement,
    SizeCap,
    StructureMismatch,
    UnknownOption,
    UnknownPredicate,
    UnknownTheorem,
)
from .extensions import (
    LocalSelection,
    i_natural_extension,
    natural_extension,
    natural_forms,
    pure_extension,
    require_owner,
    selection_frink,
    selection_union,
)
from .fileformat import Document, Section, emit
from .poset import Poset, bits, members, transpose
from .pseudo import PartialTable, TotalTable, _star_owner, _total_table, is_sp, star_table, value_ix

LABELED_CAP = 7
ISO_CAP = 8
# values a column solver call, or an extension stream over all its columns, may
# try that lead to no solution: about half a second of search, and nearly six
# hundred times the 169 that the sweeps up to ISO_CAP need at most
SEARCH_BUDGET = 100_000

_NAMES = tuple(str(i) for i in range(ISO_CAP))


# -- generation ---------------------------------------------------------------


def _closed_sets(rel) -> list[int]:
    """Every subset s of {0..m-1}, m = len(rel), that contains rel[i] for each
    member i, in increasing order: the down-sets when rel holds down-masks,
    the up-sets when it holds up-masks."""
    full = 1 << len(rel)
    closure = [0] * full
    for s in range(1, full):
        low = s & -s
        closure[s] = closure[s ^ low] | rel[low.bit_length() - 1]
    return [s for s in range(full) if closure[s] == s]


def _one_point_extensions(base: tuple[int, ...]):
    """All posets obtained from base by adding one new greatest-index element.

    The new element's strict context is a pair (D, U) of a down-set below it
    and an up-set above it, disjoint and with every member of D under every
    member of U; each labeled poset on one more point arises from its
    restriction this way exactly once.
    """
    m = len(base)
    newbit = 1 << m
    up_sets = _closed_sets(base)
    for d in _closed_sets(transpose(base)):
        allowed = newbit - 1
        for i in bits(d):
            allowed &= base[i]
        ups = tuple(base[i] | newbit if d >> i & 1 else base[i] for i in range(m))
        for u in up_sets:
            if not (u & d or u & ~allowed):
                yield ups + (u | newbit,)


def _labeled_masks(n: int):
    """Up-mask tuples of every labeled poset on {0..n-1}, exactly once each."""
    if n == 1:
        yield (1,)
        return
    for base in _labeled_masks(n - 1):
        yield from _one_point_extensions(base)


def _orbit_minima(sets: list[int], perms: list[list[int]], m: int) -> list[int]:
    """The members of `sets` that are the smallest of their orbit under the
    group generated by the permutations `perms` of {0..m-1}, in order; every
    image of a member must be a member."""
    images = []
    for g in perms:
        image = [0] * (1 << m)
        for s in range(1, 1 << m):
            low = s & -s
            image[s] = image[s ^ low] | 1 << g[low.bit_length() - 1]
        images.append(image)
    reached: set[int] = set()
    minima = []
    for s in sets:
        if s in reached:
            continue
        minima.append(s)
        reached.add(s)
        stack = [s]
        while stack:
            t = stack.pop()
            for image in images:
                if image[t] not in reached:
                    reached.add(image[t])
                    stack.append(image[t])
    return minima


def _twins(masks, downs) -> list[int]:
    """For each element v, the mask of its twins, v included: the elements
    with the same strict up- and down-sets as v (which are incomparable)."""
    strict = [(masks[v] ^ 1 << v, downs[v] ^ 1 << v) for v in range(len(masks))]
    same: dict[tuple[int, int], int] = {}
    for v, s in enumerate(strict):
        same[s] = same.get(s, 0) | 1 << v
    return [same[s] for s in strict]


def _maximal_extensions(base: tuple[int, ...], gens: list[list[int]]):
    """Base with one new greatest-index element that is maximal, as (masks,
    down-masks): its strict down-set D runs over the down-sets of base in
    increasing order, and its strict up-set is empty.

    Only the smallest D of each orbit under the automorphisms `gens` of base
    and the transpositions of its twins is used.  An automorphism g of base,
    extended to fix the new element, is an isomorphism from the extension
    over D onto the one over g(D), so a skipped D is isomorphic to a used one
    that comes before it, and the first D of base to reach a class is never
    skipped: the classes reached, and the order they are first reached in,
    are those of every down-set.
    """
    m = len(base)
    newbit = 1 << m
    downs = transpose(base)
    swaps = []
    for v, twins in enumerate(_twins(base, downs)):
        first = (twins & -twins).bit_length() - 1
        if first != v:
            swap = list(range(m))
            swap[first], swap[v] = v, first
            swaps.append(swap)
    for d in _orbit_minima(_closed_sets(downs), gens + swaps, m):
        masks = tuple(base[i] | newbit if d >> i & 1 else base[i] for i in range(m))
        yield masks + (newbit,), downs + [d | newbit]


def _new_classes(bases):
    """The extensions of the representatives `bases`, as (masks, automorphisms
    recorded), by a new maximal element (`_maximal_extensions`, pruned by
    those automorphisms) that start a new class, in order, each as (masks,
    |Aut|, automorphisms recorded) from its one search.  Every class one level
    up is reached: removing a maximal element of any poset leaves one
    isomorphic to a representative in `bases`."""
    seen: set[int] = set()
    for base, gens in bases:
        for masks, downs in _maximal_extensions(base, gens):
            key, aut, found = _search(masks, downs)
            if key not in seen:
                seen.add(key)
                yield masks, aut, found


def _refine(cells: list[int], splitters: list[int], ups, downs) -> list[int]:
    """Split the ordered partition `cells` (bitmasks) until it is equitable.

    Each splitter W divides every cell by the counts |ups[v] & W| and
    |downs[v] & W| of its members v, and the parts replace the cell in
    increasing order of those counts.  All parts but the first largest become
    splitters: counts into the largest are those into the cell minus those
    into the others.  Every step depends on counts and cell positions, never
    on labels, so refining a relabeled poset gives the relabeled partition.
    """
    n = len(ups)
    k = 0
    while k < len(splitters) and len(cells) < n:
        w = splitters[k]
        k += 1
        out = []
        for c in cells:
            if c & (c - 1):
                counted: dict[int, int] = {}
                m = c
                while m:
                    low = m & -m
                    m ^= low
                    v = low.bit_length() - 1
                    s = (ups[v] & w).bit_count() << 16 | (downs[v] & w).bit_count()
                    counted[s] = counted.get(s, 0) | low
                if len(counted) > 1:
                    parts = [counted[s] for s in sorted(counted)]
                    out += parts
                    largest = max(parts, key=int.bit_count)
                    splitters += [p for p in parts if p is not largest]
                    continue
            out.append(c)
        cells = out
    return cells


def _relabeled(order: list[int], ups) -> int:
    """Relation matrix of the poset with element order[p] relabeled p, one row per n bits."""
    n = len(ups)
    place = [0] * n
    for p, v in enumerate(order):
        place[v] = 1 << p
    key = 0
    for v in order:
        row = 0
        m = ups[v]
        while m:
            low = m & -m
            m ^= low
            row |= place[low.bit_length() - 1]
        key = key << n | row
    return key


def _orbit_roots(gens: list[list[int]], fixed: list[int], n: int) -> list[int]:
    """Smallest element of every element's orbit under the group generated by
    the generators that fix every element of `fixed`."""
    root = list(range(n))
    for g in gens:
        if all(g[x] == x for x in fixed):
            for x, y in enumerate(g):
                while root[x] != x:
                    x = root[x]
                while root[y] != y:
                    y = root[y]
                if x < y:
                    root[y] = x
                elif y < x:
                    root[x] = y
    for x in range(n):  # root[x] <= x, so root[root[x]] is already final
        root[x] = root[root[x]]
    return root


def _search(masks, downs=None) -> tuple[int, int, list[list[int]]]:
    """Canonical key, |Aut(P)| and the automorphisms recorded (as image
    lists), from one individualization-refinement search; `downs` are the
    down-masks of `masks` when the caller already has them.

    Twins are incomparable elements with the same strict up- and down-sets;
    any permutation of twins is an automorphism.  The root of the search is
    the equitable refinement of the unit partition.  A node with a cell that
    is not a set of twins has one child per member v of its first such cell:
    v is individualized into a cell of its own, just before the rest of the
    cell, and the partition is refined again.  Every other node is a leaf,
    whose order (cells in turn, each in increasing label order) is a
    relabeling; all orders within its cells give the same matrix.  The key
    is the smallest relabeled relation matrix over the leaves.  Two leaves
    with the same matrix differ by an automorphism; it is recorded, the
    search returns to the two leaves' deepest common node (the abandoned
    subtree is the automorphism's image of one already searched), and at
    every node a child is skipped when a recorded automorphism that fixes
    the node's individualized elements maps an already searched child onto
    it (McKay & Piperno, "Practical graph isomorphism, II", J. Symb. Comput.
    60, 2014).  |Aut(P)| follows by orbit-stabilizer along the first path:
    the product of the orbit sizes of its choices under the recorded
    automorphisms that fix the choices before them, times the permutations
    of the first leaf's cells.
    """
    n = len(masks)
    if downs is None:
        downs = transpose(masks)
    full = (1 << n) - 1
    root = _refine([full] if n else [], [full], masks, downs)
    if len(root) == n:
        return _relabeled([c.bit_length() - 1 for c in root], masks), 1, []
    twins = _twins(masks, downs)
    gens: list[list[int]] = []
    leaves: list[tuple[int, list[int], list[int]]] = []  # (key, order, path): first, best
    aut = 1

    def leaf(cells, path) -> int:
        nonlocal aut
        order = [v for c in cells for v in bits(c)]
        key = _relabeled(order, masks)
        if not leaves:
            leaves.extend([(key, order, path[:])] * 2)
            for c in cells:
                aut *= math.factorial(c.bit_count())
            return len(path)
        for known, known_order, known_path in leaves:
            if key == known:
                image = [0] * n
                for a, b in zip(known_order, order):
                    image[a] = b
                gens.append(image)
                d = 0
                while path[d] == known_path[d]:
                    d += 1
                return d
        if key < leaves[1][0]:
            leaves[1] = (key, order, path[:])
        return len(path)

    def visit(cells, path, first_path) -> int:
        """Search below a node; returns the depth of the node to resume at."""
        nonlocal aut
        depth = len(path)
        for t, cell in enumerate(cells):
            if cell & ~twins[cell.bit_length() - 1]:
                break
        else:
            return leaf(cells, path)
        done: list[int] = []
        orbits, seen_gens = None, 0
        m = cell
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if done and seen_gens != len(gens):
                orbits, seen_gens = _orbit_roots(gens, path, n), len(gens)
            if orbits and any(orbits[v] == orbits[u] for u in done):
                continue
            child = _refine(cells[:t] + [low, cell ^ low] + cells[t + 1:], [low], masks, downs)
            path.append(v)
            resume = visit(child, path, first_path and not done)
            path.pop()
            done.append(v)
            if resume < depth:
                return resume
        if first_path and gens:
            if seen_gens != len(gens):
                orbits = _orbit_roots(gens, path, n)
            aut *= orbits.count(orbits[done[0]])
        return depth

    visit(root, [], True)
    return leaves[1][0], aut, gens


def canonical_key(masks) -> int:
    """Isomorphism-invariant integer key: two posets on the same number of
    elements are isomorphic exactly when their keys are equal.

    It is the smallest relabeled relation matrix over the leaves of the
    individualization-refinement search of `_search`, which prunes children
    that automorphisms found on the way map onto searched ones.
    """
    return _search(masks)[0]


def automorphism_count(masks) -> int:
    """|Aut(P)| for the poset with these up-masks, read off the same search as
    canonical_key: the product of the orbit sizes along its first path."""
    return _search(masks)[1]


def are_isomorphic(p: Poset, q: Poset) -> bool:
    """Whether p and q are isomorphic: the same size and the same canonical key.

    Each key is one pruned individualization-refinement search, so even a
    16-element antichain is settled without trying its 16! relabelings.
    """
    if p.n != q.n:
        return False
    return canonical_key(p.ups) == canonical_key(q.ups)


# The process's class levels, kept for its life: level n at index n - 1, a
# tuple of (masks, |Aut|, automorphisms recorded) per class, appended whole.
_levels: list[tuple] = []
_levels_lock = threading.Lock()


def _memo_level(n: int) -> tuple:
    """Level n of the class memo `_levels`, building each missing level whole
    from the one below it.

    Each level is kept for the life of the process, so class enumeration
    and every sweep after the first reader get it without building it.  A
    level is appended only once it is complete, so no reader ever sees a
    short one, and a build that raises leaves the memo as it was.  The lock
    is held while levels are built: a reader in another thread waits for the
    level being built and then gets all of it.
    """
    with _levels_lock:
        while len(_levels) < n:
            below = [((), [])] if not _levels else (
                (masks, gens) for masks, _, gens in _levels[-1])
            _levels.append(tuple(_new_classes(below)))
        return _levels[n - 1]


def enumerate_posets(n: int, dedup: str = "labeled"):
    """Stream the posets of size n, labeled or one representative per isomorphism class.

    Labeled posets come in one-point-extension order (P<n>-0, P<n>-1, ...).
    Classes come in the order the maximal-element generator of `_class_levels`
    first reaches them (Q<n>-0, Q<n>-1, ...): each (n-1)-representative, in
    its own order, gains a new maximal element over its down-sets in
    increasing order, and down-sets that one of its automorphisms maps onto
    an earlier one are skipped, which reaches the same classes in the same
    order.  The classes are read from the process's class memo
    (`_memo_level`), so only the first call of a process to reach a level
    builds it; each call makes fresh Posets from it.  Class enumeration never
    takes the sweeps' store lock, so it neither waits for a sweep nor hands
    out a sweep's kept posets.
    """
    if dedup not in ("labeled", "up-to-iso"):
        raise UnknownOption(f"dedup must be 'labeled' or 'up-to-iso', got {dedup!r}")
    cap = LABELED_CAP if dedup == "labeled" else ISO_CAP
    if not 1 <= n <= cap:
        raise SizeCap(f"{dedup} enumeration supports 1 <= n <= {cap}, got {n}")
    if dedup == "labeled":
        names = _NAMES[:n]
        for k, masks in enumerate(_labeled_masks(n)):
            yield Poset(f"P{n}-{k}", names, masks)
    else:
        for p, _, _ in _named(n, _memo_level(n)):
            yield p


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
        mask = (1 << m) - 1
        relations = ([packed >> (m * i) & mask for i in range(m)] for packed in range(1 << (m * m)))
        return [rows for rows in relations if is_order(rows, m)]

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


@functools.cache
def _column_laws(system: str) -> tuple[tuple, tuple, tuple]:
    """A system's laws as the column solver reads them: the one-cell laws
    whose column is the last variable, the other one-cell laws, and the
    two-cell laws.  NRMW has none: the solver has no NRMW constraints yet, so
    it yields every extension, on any poset, and the generate benchmark pins
    those streams."""
    groups: tuple[list, list, list] = ([], [], [])
    for law in system_laws(system) if system != "NRMW" else ():
        last = len(law.over) - 1
        (r, k), *second = law.reads
        if law.vectors is None or second and not (
                law.keyed and law.term is None and all(k == last for _, k in law.reads)) or (
                not second and law.term is None and r == k == last):
            raise ValueError("only a law of one cell off the diagonal, or of two cells in one column, "
                             "constrains columns")
        groups[2 if second else 0 if law.term is None and k == last else 1].append(law)
    return tuple(map(tuple, groups))


def _column_setup(e, system: str) -> "_ColumnSetup":
    """The system's column set-up on the law context e, built on the first
    call for the system on e and kept in e.setups for the life of e, so every
    later solver call on the same poset and selection builds nothing.  Two
    threads may both build it, but every reader gets the one that is kept."""
    setup = e.setups.get(system)
    if setup is None:
        setup = e.setups.setdefault(system, _ColumnSetup(e, system))
    return setup


class _ColumnSetup:
    """What a system's laws ask of each column of a total table, on one law
    context (a poset, or a poset and a selection).

    Every law reads one cell, or two cells of the column given by its last
    variable, in rows given by the variables before it, with its conclusion
    indexed by the first cell's value.  Built whole on creation, in one walk
    of each one-cell law's instances (LawContext.prefixes): per column, its
    rows (for the SP system those weakly above the column element; all other
    systems are total) and, per row, the values the one-cell instances allow.
    Where another system's set-up on the same context has one-cell laws that
    are all among these (NRM after SP, ESP after SP), the masks start from a
    copy of that set-up's, and only the laws it lacks are walked.
    The two-cell laws are walked once for all columns on the first read of
    any column's links, and each column's links are filed on its first read
    (`column`), since a search that ends at a column whose one-cell masks
    leave some row empty needs neither.  Nothing kept is changed once read;
    readers that narrow a mask narrow a copy."""

    __slots__ = ("rows", "doms", "laws", "_two", "_kept")

    def __init__(self, e, system: str):
        n, full = e.n, e.full
        by_last, other, self._two = _column_laws(system)
        self.laws = frozenset(by_last + other)
        seed = max((kept for kept in list(e.setups.values()) if kept.laws <= self.laws),
                   key=lambda kept: len(kept.laws), default=None)
        if seed is None:
            doms = [[full] * n for _ in range(n)]
        else:
            doms = [dom[:] for dom in seed.doms]
            by_last = [law for law in by_last if law not in seed.laws]
            other = [law for law in other if law not in seed.laws]
        for law in by_last:
            (r, _), = law.reads
            for pre, mask, allowed, _ in e.prefixes(law):
                row = pre[r]
                if type(allowed) is int:
                    for c in members(mask):
                        doms[c][row] &= allowed
                else:
                    for c in members(mask):
                        doms[c][row] &= allowed[c]
        for law in other:
            (r, k), = law.reads
            for pre, mask, masks, terms in e.prefixes(law):
                for u in members(mask):
                    v = pre + (u, terms[u]) if terms else pre + (u,)
                    if v[-1] is not None:  # an undefined term: the instance holds
                        doms[v[k]][v[r]] &= masks if type(masks) is int else masks[v[-1] if law.keyed else u]
        self.rows = [members(u) for u in e.ups] if system == "SP" else [members(full)] * n
        self.doms = doms
        self._kept: dict = {}  # "links": the link plan; c: column c's masks and links

    def column(self, e, c: int) -> tuple[list[int], list[tuple], int]:
        """Column c's one-cell masks narrowed by the two-cell instances that
        read one cell twice; per row t, the two-cell instances that link it
        to a later row k, as (k, conclusions, whether row t is read first);
        and where among its rows a search walks the rest as one product
        (_product_start).  Built on the first read and kept; rows of links
        that every column shares are one object."""
        kept = self._kept.get(c)
        if kept is None:
            links = self._kept.get("links")
            if links is None:
                links = self._kept.setdefault("links", self._plan_links(e))
            shared, fixed, some = links
            dom, rows = self.doms[c][:], shared
            for t, m in fixed:
                dom[t] &= m
            for cover, t, link in some:
                if cover >> c & 1:
                    if type(link) is int:
                        dom[t] &= link
                    else:
                        if rows is shared:
                            rows = shared[:]
                        rows[t] += (link,)
            kept = self._kept.setdefault(c, (dom, rows, _product_start(self.rows[c], rows)))
        return kept

    def _plan_links(self, e):
        """The two-cell instances of every column: the links shared by all
        columns, per row; the one-cell masks of the instances reading one
        cell twice in all columns; and the rest, each with its columns."""
        n, full = e.n, e.full
        shared: list = [[] for _ in range(n)]
        fixed, some = [], []
        for law in self._two:
            (r1, _), (r2, _) = law.reads
            for pre, cover, masks, _ in e.prefixes(law):
                if type(masks) is int:
                    masks = (masks,) * n
                first, later = pre[r1], pre[r2]
                if first == later:
                    t, link = first, sum([1 << a for a in range(n) if masks[a] >> a & 1])
                    if link == full:
                        continue
                elif first < later:
                    t, link = first, (later, masks, True)
                else:
                    t, link = later, (first, masks, False)
                if cover != full:
                    some.append((cover, t, link))
                elif type(link) is int:
                    fixed.append((t, link))
                else:
                    shared[t].append(link)
        return [tuple(row) for row in shared], fixed, some


class _Columns:
    """One solver call's view of a system's columns on a poset: the column
    set-up kept on the poset's law context (or the selection's), and a
    search budget of its own.

    Each call gets a fresh SEARCH_BUDGET and copies of the masks it narrows;
    the set-up itself is built once per poset, selection and system
    (_column_setup), and `solutions` is the one entry to a column search.
    The poset must have the structure and the selection the system needs,
    as in check_system, and a given selection must be over p.
    """

    def __init__(self, p: Poset, system: str, sel: LocalSelection | None = None):
        if system != "NRMW":
            require_system(p, system, sel)
        else:
            require_owner(p, sel)
        self.p, self.e = p, (p if sel is None else sel).laws
        self.setup = _column_setup(self.e, system)
        self.spare = [SEARCH_BUDGET]

    def rows(self, c: int) -> tuple[int, ...]:
        return self.setup.rows[c]

    def column(self, c: int) -> tuple[list[int], list[tuple]]:
        """Per row r, the values of cell (r, c) that the instances of one
        cell allow, as a copy; and per row, column c's links."""
        dom, links, _ = self.setup.column(self.e, c)
        return dom[:], links

    def solutions(self, c: int, forced: PartialTable | None = None):
        """The solutions of column c, as tuples over its rows, in lexicographic
        order; with `forced`, sectioned cells are pinned to the given star table."""
        return self.blocks(c, forced, True)

    def blocks(self, c: int, forced: PartialTable | None = None, expand: bool = False):
        """The solutions of column c as blocks (_column_blocks), in the order
        of `solutions`; with `expand`, its solutions one at a time."""
        rows, dom = self.setup.rows[c], self.setup.doms[c]
        if forced is not None:
            dom = dom[:]
            for r in members(self.p.ups[c]):
                dom[r] &= 1 << forced.cells[r][c]
        if all(map(dom.__getitem__, rows)):
            narrowed, links, start = self.setup.column(self.e, c)
            if forced is not None:
                narrowed = [a & b for a, b in zip(dom, narrowed)]
            if all(map(narrowed.__getitem__, rows)):
                return _column_blocks(rows, narrowed, links, self.spare, start, expand)
        return iter(())


def _narrowed(dom: list[int], links: list[tuple], v: int, prune: bool = True) -> list[int] | None:
    """dom with each later row linked to the row just given value v narrowed
    to the values the links allow; with `prune`, None once a row has none left."""
    dom = dom[:]
    for k, masks, first in links:
        m = dom[k]
        if first:  # the later row holds masks[v]
            m &= masks[v]
        else:  # the later row holds the b whose masks[b] holds v
            for b in members(m):
                if not masks[b] >> v & 1:
                    m ^= 1 << b
        if prune and not m:
            return None
        dom[k] = m
    return dom


def _product_start(rows, links: list[tuple]) -> int:
    """The position in rows of the first free row, when two or more follow
    the last row linked to a later one; len(rows) otherwise.  Each free row's
    mask is final once the rows before it hold their values, so a column
    search walks them as one product."""
    i = len(rows)
    while i and not links[rows[i - 1]]:
        i -= 1
    return i if len(rows) - i > 1 else len(rows)


def _spent(spare: list[int]) -> SizeCap:
    spare[0] = -1  # where the row-by-row walk stops
    return SizeCap(f"the column search tried {SEARCH_BUDGET} values that lead to no solution")


def _column_blocks(rows, dom: list[int], links: list[list[tuple]], spare: list[int], start: int,
                   expand: bool = False):
    """The solutions of a column search as blocks, values ascending row by
    row: each row takes its value from its mask, assigning a row narrows the
    later rows linked to it, and an empty mask ends that branch.  A solution
    reached row by row is the block (sol, ()).  `start` is
    _product_start(rows, links): a search node that reaches it, with a value
    in every free row and two in some, is the block (head, lists), head the
    values of the rows before start and lists the value tuples of the free
    rows; it holds head + v for every v in the product of lists, the last
    list fastest.  A node there with one value in every free row is the
    solution it holds.  With `expand`, the walk yields each solution
    instead, a free tail walked by _product_tail (_column_search).  The walk
    is one generator over a stack of the rows assigned so far, each with
    its values left, the masks they came from and its links.

    spare[0] counts down the values tried that no solution pays for (each
    solution pays for one per row); SizeCap once it is spent.  A block of
    one solution is paid for when it is handed out, as the row-by-row walk
    pays it; a free tail is handed out unpaid, and its reader pays for its
    solutions (_product_tail, or _tail_payment at once)."""
    vals = [0] * len(dom)
    depth = len(rows)
    stack: list[tuple] = []
    while True:
        i = len(stack)
        # one test per node, as without the product; below a free row with no value
        # the walk reaches no solution (nor depth), and tries what the row walk tries
        if i == start and (i == depth or all(lists := list(map(members, map(dom.__getitem__, rows[i:]))))):
            if i < depth and max(map(len, lists)) > 1:
                head = tuple(map(vals.__getitem__, rows[:i]))
                if expand:
                    yield from _product_tail(head, lists, depth, spare)
                else:
                    yield head, lists
            else:  # one solution; the free rows, if any, hold a value each, tried as the row walk tries it
                if spare[0] < depth - i:
                    raise _spent(spare)
                spare[0] += i
                sol = tuple(map(vals.__getitem__, rows))
                if i < depth:
                    sol = sum(lists, sol[:i])
                yield sol if expand else (sol, ())
        else:
            k = rows[i]
            stack.append((iter(members(dom[k])), dom, links[k], k))
        while stack:  # the deepest row with a value left that the links allow takes it
            left, dom, out, k = stack[-1]
            for v in left:
                spare[0] -= 1
                if spare[0] < 0:
                    raise _spent(spare)
                narrowed = _narrowed(dom, out, v) if out else dom
                if narrowed is not None:
                    break
            else:
                stack.pop()
                continue
            vals[k], dom = v, narrowed
            break
        else:
            return


def _column_search(rows, dom: list[int], links: list[list[tuple]], spare: list[int], start: int):
    """Every vector over rows, values ascending row by row, that takes each
    row's value from its mask: the solutions of the blocks of
    _column_blocks, one at a time, each free tail walked by _product_tail.

    spare[0] is kept as a row-by-row walk keeps it: the same spare[0] at
    every solution, and SizeCap before the same solution."""
    return _column_blocks(rows, dom, links, spare, start, True)


def _product_tail(head: tuple, lists: list[tuple], depth: int, spare: list[int]):
    """head followed by each vector of the product of the value tuples
    `lists` (at least two, none empty), the last one fastest: the solutions
    that a column search of depth rows, with the rows before the free ones
    holding head, finds there, with spare[0] kept as that walk keeps it.

    The walk tries width - j + 1 values to move from one prefix of the
    product (all its tuples but the last, width of them) to the next, j the
    first position that changed: the prefix's new values and the first
    value of the last tuple; and one for each further value of the last
    tuple.  spare[0] is read again after every solution, since the caller
    may spend it on another column in between; SizeCap comes before the
    solution the walk would not reach."""
    *prefixes, last = lists
    width, first, rest, prev = len(prefixes), last[0], last[1:], (None,)
    for pre in itertools.product(*prefixes):
        j = 0
        while pre[j] == prev[j]:
            j += 1
        prev = pre
        s = spare[0] - (width - j + 1)
        if s < 0:
            raise _spent(spare)
        spare[0] = s + depth
        pre = head + pre
        yield pre + (first,)
        for v in rest:
            s = spare[0] - 1
            if s < 0:
                raise _spent(spare)
            spare[0] = s + depth
            yield pre + (v,)


def _tail_payment(lists: list[tuple], depth: int) -> int:
    """What a full walk of a free tail over the value tuples `lists`
    (_product_tail) adds to spare[0] when nothing else reads the budget
    while it walks: depth for each of its solutions, less the values it
    tries, one for each prefix of the product, sum over i < m of the
    product of |lists[t]| for t <= i.  The walk raises SizeCap exactly when
    it starts with spare[0] < len(lists), before its first solution; after
    that solution spare[0] stays at least depth, which no step exceeds."""
    size, tried = 1, 0
    for vals in lists:
        size *= len(vals)
        tried += size
    return size * depth - tried


def system_column_solutions(p: Poset, system: str, sel: LocalSelection | None = None,
                            forced: PartialTable | None = None) -> list[list[tuple]]:
    """All per-column assignments satisfying the system's axioms.

    A table satisfies the system iff it picks one solution per column, so the
    full model set is the cartesian product of the returned lists, each in
    lexicographic order.  For the SP system the column domain is the rows
    weakly above the column element; all other systems are total.  With
    `forced`, sectioned cells are pinned to the given star table: the product
    is what enumerate_extensions streams.  The poset must have the structure
    and the selection the system needs, as in check_system, and a given
    selection must be over p.
    """
    cols = _Columns(p, system, sel)
    return [list(cols.solutions(c, forced)) for c in range(p.n)]


def system_models_are(p: Poset, system: str, table, sel: LocalSelection | None = None) -> bool:
    """Whether the tables satisfying the system are exactly `table`, or there
    are none when table is None.

    The answer is products_equal(system_column_solutions(p, system, sel), e)
    for e the columns of table (over each column's rows for SP) or [[]], found
    column by column: a column's search stops at its first solution when
    nothing is expected, and otherwise at its first solution that differs
    from table's column or at its second one.  With nothing expected the
    answer is known at the first column without a solution.
    """
    cols = _Columns(p, system, sel)
    for c in range(p.n):
        found = cols.solutions(c)
        first = next(found, None)
        if first is None:
            return table is None
        if table is not None and (first != tuple([table.cells[r][c] for r in cols.rows(c)])
                                  or next(found, None) is not None):
            return False
    return table is not None


def products_equal(cols_a: list[list[tuple]], cols_b: list[list[tuple]]) -> bool:
    """Whether two column-factored table sets are equal (empty products compare equal)."""
    empty_a = any(not c for c in cols_a)
    empty_b = any(not c for c in cols_b)
    if empty_a or empty_b:
        return empty_a == empty_b
    return [sorted(c) for c in cols_a] == [sorted(c) for c in cols_b]


def table_as_columns(t, rows_per_col=None) -> list[list[tuple]]:
    """A single table viewed as a column-factored singleton set."""
    n = t.owner.n
    rows = rows_per_col or [range(n)] * n
    return [[tuple(t.cells[r][c] for r in rows[c])] for c in range(n)]


def _product_tables(p: Poset, cols, spare: list[int] | None = None):
    """The cartesian product of the column solutions as total tables, in the
    order of itertools.product over the solutions: rightmost column fastest.
    Each column is read as blocks (_column_blocks) through one iterator:
    its first block, in column order, before the first table, and each
    later one when the product first reaches it.  An empty column ends the
    product.  Every block must hold n values in all, each an int in
    range(n), and a free tail two solutions at least, as _column_blocks
    hands them out.  `spare` is the budget of the search that the columns
    read, from which the solutions of a free tail are paid; without a free
    tail it is not read.

    The passes run over the pass column, the rightmost column with a second
    solution: the product reads it once every column after it has run out
    at its first, and those columns stay fixed.  In a pass the other
    columns are fixed too, so row r of a table is heads[r], row r of the
    columns before the pass column, followed by an end (v,) + afters[r], v
    the pass column's value in row r and afters[r] row r of the columns
    after it.  The pass column keeps only its blocks, each as its ends:
    a free tail as the ends of each row's values (_tail), and a run, the
    solutions between two free tails, as the ends of each solution's rows
    (_run).  Every block gives the tables of a pass through one iterator,
    whatever its length (_cells): itertools.product over the rows'
    templates for a free tail, heads[r] with each of row r's ends, built
    once a pass, so its tables share row tuples; and one zip that takes a
    run's rows n at a time, each row built for its table.  The first pass
    reads the pass column block by block: a solution reached row by row is
    a table of its own, its rows zipped from the columns, and a free tail
    is paid whole (_tail_payment), since nothing else reads the budget
    while its tables are built.  The iterators are lazy, so a pass builds
    no table that the stream does not yield.  The columns before the pass
    column step one solution at a time, a free tail paid per solution
    (_product_tail), since between their solutions the other columns read
    the budget."""
    n, new = p.n, object.__new__
    # per column: its blocks, its first block, its current solution, and the
    # walk (_product_tail) of the free tail that holds that solution, if any
    its, firsts, pick, walks = [], [], [], []
    for col in cols:
        it = iter(col)
        if (block := next(it, None)) is None:
            return
        head, lists = block
        walk = _product_tail(head, lists, n, spare) if lists else None
        its.append(it)
        firsts.append(block)
        pick.append(next(walk) if lists else head)
        walks.append(walk)
    yield TotalTable._from_checked_rows(p, tuple(zip(*pick)))
    for c in range(n - 1, -1, -1):  # every column after the pass column has one solution
        if (more := walks[c] is not None) or (block := next(its[c], None)) is not None:
            break
    else:
        return
    # the first pass, block by block.  blocks keeps the pass column: each free tail
    # (_tail) and each run of the solutions between them (_run), a list until it
    # is whole.  heads and afters are the rows of the columns before and after it
    blocks, run, first = [], [], more  # the first table holds the first block's first solution
    heads = afters = None
    if more:
        head, lists = firsts[c]
    else:
        run.append(pick[c])
        head, lists = block
    while True:
        if lists:
            if first:
                # the first block's solutions after its first: the walk's next step tries
                # the rows from the last one with a second value on, and the rest is paid whole
                j = max(t for t, vals in enumerate(lists) if len(vals) > 1)
                need, gain = len(lists) - j, _tail_payment(lists, n) - (n - len(lists))
            else:
                need, gain = len(lists), _tail_payment(lists, n)
            if spare[0] < need:
                raise _spent(spare)
            spare[0] += gain
            if heads is None:
                heads, afters = _rows_of(pick[:c], n), _rows_of(pick[c + 1:], n)
            if run:
                blocks.append(_run(run, afters))
                run = []
            blocks.append(_tail(head, lists, afters))
            cells_of = _cells(*blocks[-1], heads)
            if first:
                cells_of = itertools.islice(cells_of, 1, None)
        else:  # one solution, one table: its rows zipped from the columns
            run.append(head)
            pick[c] = head
            cells_of = (tuple(zip(*pick)),)
        for cells in cells_of:
            t = new(TotalTable)
            t.owner, t.cells = p, cells
            yield t
        if (block := next(its[c], None)) is None:
            break
        head, lists = block
        first = False
    if not c:
        return
    if run:
        blocks.append(_run(run, afters or _rows_of(pick[c + 1:], n)))
    # the later passes
    seen, at = list(map(list, zip(pick[:c]))), [0] * c
    while True:
        k = c - 1
        while k >= 0:  # the rightmost column with a next solution steps, those to its right start over
            sols, i = seen[k], at[k] + 1
            if i == len(sols):  # read on: the walk of its free tail, or its next block
                sol = walks[k] and next(walks[k], None)
                while sol is None and (block := next(its[k], None)) is not None:
                    sol, lists = block
                    if lists:
                        walks[k] = _product_tail(sol, lists, n, spare)
                        sol = next(walks[k])
                if sol is not None:
                    sols.append(sol)
            if i < len(sols):
                at[k], pick[k] = i, sols[i]
                break
            at[k], pick[k] = 0, sols[0]
            k -= 1
        if k < 0:
            return
        heads = list(zip(*pick[:c]))
        for combine, ends in blocks:
            for cells in _cells(combine, ends, heads):
                t = new(TotalTable)
                t.owner, t.cells = p, cells
                yield t


def _rows_of(cols: list[tuple], n: int) -> list[tuple]:
    """Per row, its values in the columns `cols`, in column order."""
    return list(zip(*cols)) if cols else [()] * n


def _tail(head: tuple, lists: list[tuple], afters: list[tuple]) -> tuple:
    """The free tail (head, lists) of the pass column as a block of a pass:
    (itertools.product, ends), ends[r] the end (v,) + afters[r] of a row of
    a table for each value v that the tail holds in row r, afters[r] row r
    of the columns after the pass column."""
    values = (*zip(head), *lists)
    return itertools.product, list(map(tuple, map(map, itertools.repeat(add), map(zip, values),
                                                  map(itertools.repeat, afters))))


def _run(run: list[tuple], afters: list[tuple]) -> tuple:
    """The pass column's solutions `run` as a block of a pass: (zip, ends),
    the end (v,) + afters[r] of each row r of each solution's table, v the
    solution's value in row r, one tuple for all equal ends."""
    ends = map(add, zip(itertools.chain.from_iterable(run)), itertools.cycle(afters))
    return zip, list(map({}.setdefault, *itertools.tee(ends)))  # setdefault(e, e): the first equal end


def _cells(combine, ends: list, heads: list[tuple]):
    """The cells of the tables of a block (_tail or _run) in a pass, heads[r]
    row r of the columns before the pass column: for a free tail,
    itertools.product over the rows, row r's templates heads[r] + e for each
    end e of ends[r]; for a run, one zip that takes its rows n at a time,
    heads[r] + e for the end e of row r of each solution."""
    if combine is zip:  # n references to one iterator of rows: each table takes the next n
        return zip(*[map(add, itertools.cycle(heads), ends)] * len(heads))
    return combine(*map(map, itertools.repeat(add), map(itertools.repeat, heads), ends))


def _checked_blocks(n: int, blocks):
    """The column blocks `blocks` (_column_blocks), each checked once, when
    read: its head and lists hold n values in all, and each value is an int
    in range(n).  So a bad value anywhere in a free tail raises ValueError
    before any table of the block."""
    is_int, elements = int.__instancecheck__, frozenset(range(n))
    for block in blocks:
        head, lists = block
        if len(head) + len(lists) != n:
            raise ValueError(f"table must be {n}x{n}")
        vals = head + sum(lists, ()) if lists else head
        if not (all(map(is_int, vals)) and elements.issuperset(vals)):
            raise ValueError("total table must map every pair to an element")
        yield block


def _checked(n: int, sols):
    """The column solutions `sols`, each checked once as the block (sol, ())."""
    for sol, _ in _checked_blocks(n, zip(sols, itertools.repeat(()))):
        yield sol


def enumerate_extensions(s: PartialTable, system: str, sel: LocalSelection | None = None):
    """All total tables extending the star table s that satisfy the given system.

    Streamed deterministically: rightmost column fastest, each column's
    solutions in lexicographic order.  Each column is searched only as far as
    the stream reads it, as blocks: a solution reached row by row, or a free
    tail that holds the product of its rows' values (_column_blocks).  Each
    block is checked once, when first read: a bad value raises ValueError
    before any table that holds it.  The passes run over the rightmost
    column with more than one solution, and every pass builds the tables of
    each block through one iterator (_product_tables): a product over
    per-row templates for a free tail, whose tables in one pass share row
    tuples, and a zip that builds a run's rows n at a time.
    Raises SizeCap when the column searches spend their shared SEARCH_BUDGET,
    StructureMismatch for the partial-table system SP, a MissingWitness in
    place of s, a selection over another poset or a poset without the
    structure the system needs, and MissingSelection when the system needs a
    selection and none is given.
    """
    if SYSTEMS.get(system, {}).get("kind") == "partial":
        raise StructureMismatch(f"system {system} needs a partial table; extensions are total")
    p = _star_owner(s)
    cols = _Columns(p, system, sel)
    yield from _product_tables(p, [_checked_blocks(p.n, cols.blocks(c, s)) for c in range(p.n)], cols.spare)


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
        lines = [f"claim {self.theorem}: {self.outcome} (n = 1..{self.max_n}, "
                 f"{self.posets_checked} posets, {self.instances_checked} instances, "
                 f"{self.elapsed:.2f}s)"]
        for n in sorted(self.instances_per_n):
            lines.append(
                f"  n={n}: {self.posets_per_n[n]} posets, {self.instances_per_n[n]} instances")
        for key, val in self.details.items():
            lines.append(f"  {key}: {val}")
        return lines


@dataclass(frozen=True)
class Claim:
    """A statement checked on every poset that satisfies `hypothesis`, on up
    to ISO_CAP elements.  Without `variants`, `check(p)` returns p's
    Counterexample or None; with variants, readings of the claim from weakest
    to strongest, a dict from each variant p violates to its Counterexample.

    `descents` keeps the claim's completed first-counterexample descents,
    (n, variant) -> (that variant's Counterexample, its index k, the
    instances before it), filled by `_sweep` from the claim's first sweep on
    and freed with the claim.  A new or copied claim starts empty, and
    equality and hashing ignore it.
    """

    text: str
    hypothesis: Callable[[Poset], bool]
    check: Callable[[Poset], Counterexample | dict | None]
    variants: tuple[str, ...] = ()
    descents: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def failures(self, p: Poset) -> dict:
        """The variants p violates, each with its counterexample; "" names the
        one variant of a claim without named variants."""
        failed = self.check(p)
        if self.variants:
            return failed
        return {} if failed is None else {"": failed}


def _serialize(p: Poset, tables: dict | None = None) -> str:
    optables = [Section("optable", name, t) for name, t in (tables or {}).items()]
    return emit(Document((Section("poset", p.name, p), *optables)))


# The store: levels 1.._KEPT_LEVELS as Q<n>-<k> posets, kept for the rest of
# the process from its second sweep on, each appended whole, with every
# derived table the claims build on them.  Later sweeps in the same process
# reuse those tables.  Level 8 is never kept as Posets, since its 16999
# classes would hold several times the tables of all lower levels together,
# and the first sweep keeps none, since a process that sweeps once would never
# reuse them.  The class memo `_levels` under the store is plain data and is
# kept from the first read on.
_KEPT_LEVELS = 7
_kept: list[tuple] | None = None  # level n at index n - 1; None until a sweep ends
_store_lock = threading.RLock()  # held by each sweep, so sweeps take turns


def _named(n: int, classes):
    """The level-n classes (masks, |Aut|, automorphisms) as (Poset Q<n>-<k>,
    orbit size n!/|Aut|, automorphisms)."""
    names, labelings = _NAMES[:n], math.factorial(n)
    for k, (masks, aut, gens) in enumerate(classes):
        yield Poset(f"Q{n}-{k}", names, masks), labelings // aut, gens


def _class_levels(max_n: int, kept: list[tuple] | None = None):
    """Per n = 1..max_n, each isomorphism class as (representative Poset
    Q<n>-<k>, orbit size n!/|Aut|, automorphisms recorded), level by level.

    Every n-poset has a maximal element, and removing it leaves a poset
    isomorphic to some (n-1)-representative B; so adding a new maximal
    element to each representative, over each down-set, and deduplicating by
    canonical key reaches every class (`_new_classes`).  Down-sets that an
    automorphism of B maps onto an earlier one are skipped
    (`_maximal_extensions`), which changes neither the classes nor their
    order.  Class order is the order in which this generator first reaches
    each class.  Every level is read whole from the process's class memo
    (`_memo_level`), which builds it once per process.

    With a list `kept` (the process's store, `_kept`), the levels n <=
    _KEPT_LEVELS are kept in it as Posets named from the memo level, each
    appended whole, so every derived table a representative builds serves
    every later reader; a reader of the store holds `_store_lock`.  Every
    other level makes each Poset as it is read, for no one to keep, so the
    derived tables of a class are dropped once the reader moves past it.
    """
    for n in range(1, max_n + 1):
        if kept is None or n > _KEPT_LEVELS:
            yield _named(n, _memo_level(n))
        else:
            if len(kept) < n:
                kept.append(tuple(_named(n, _memo_level(n))))
            yield kept[n - 1]


def _scan(weighted_posets, claim: Claim):
    """Visit (poset, weight) pairs in order.

    Returns the weighted (poset, instance) counts and, per failing variant,
    the first counterexample met; a claim of one variant ends at the first
    failure.
    """
    posets = instances = 0
    first: dict[str, Counterexample] = {}
    for p, weight in weighted_posets:
        posets += weight
        if not claim.hypothesis(p):
            continue
        instances += weight
        for variant, ce in claim.failures(p).items():
            first.setdefault(variant, ce)
        if first and len(claim.variants) < 2:
            break
    return (posets, instances), first


class _ExtensionTree:
    """The labeled n-posets as the leaves of the one-point-extension tree.

    The children of a labeled j-poset, j < n, are its one-point extensions in
    `_one_point_extensions` order, so the leaves come in labeled order
    (P<n>-0, P<n>-1, ...).  Relabeling a j-poset relabels its whole subtree,
    so G, the number of leaves below it, depends only on its class, and so
    does any count of leaves by an order-invariant property.  Both are
    memoized by canonical key (`_search`) for the life of the tree, which is
    one `_descend` call; the tree keeps nothing across calls.  What outlives
    it is the descent's result, which `_sweep` keeps on the claim.
    """

    def __init__(self, n: int):
        self.n = n
        self._sizes: dict[int, int] = {}

    def size(self, masks) -> int:
        """G: how many labeled n-posets restrict to the labeled poset `masks`."""
        if len(masks) == self.n:
            return 1
        key = _search(masks)[0]
        if key not in self._sizes:
            self._sizes[key] = sum(self.size(e) for e in _one_point_extensions(masks))
        return self._sizes[key]

    def rank(self, masks) -> int:
        """The index k of the labeled n-poset `masks` in labeled order (it is
        P<n>-<k>): G summed, level by level, over the extensions of its
        restriction that come before its own."""
        k = 0
        for j in range(1, self.n):
            below, keep = (1 << j) - 1, (1 << j + 1) - 1
            prefix = tuple(m & below for m in masks[:j])
            step = tuple(m & keep for m in masks[:j + 1])
            for e in _one_point_extensions(prefix):
                if e == step:
                    break
                k += self.size(e)
        return k

    def first(self, leaf):
        """The first leaf, in labeled order, that `leaf` marks as a hit, found
        by a descent that expands each class's subtree at most once.

        `leaf(masks, k)` is called on the labeled poset P<n>-<k> and returns
        (instance, hit): whether it counts as an instance, and what the
        descent looks for, if it is that; both must depend on the class only.
        At each level the descent enters the first extension whose subtree
        holds a hit, and adds up G and G_H, the instances among the leaves,
        over the extensions it passes; a subtree without a hit is kept as
        (G, G_H) for its class and never expanded again.  Returns (masks, hit,
        k, instances before it), or None when no leaf is a hit.
        """
        passed: dict[int, tuple[int, int]] = {}
        k = instances = 0

        def walk(masks):
            nonlocal k, instances
            if len(masks) == self.n:
                instance, hit = leaf(masks, k)
                if hit:
                    return masks, hit
                k += 1
                instances += instance
                return None
            key = _search(masks)[0]
            if key in passed:
                g, g_h = passed[key]
                k += g
                instances += g_h
                return None
            start = k, instances
            for e in _one_point_extensions(masks):
                found = walk(e)
                if found:
                    return found
            passed[key] = k - start[0], instances - start[1]
            self._sizes[key] = k - start[0]
            return None

        found = walk((1,))
        return found and (*found, k, instances)


def _descend(n: int, hypothesis, check, variant: str | None):
    """The first labeled n-poset that satisfies the hypothesis and fails
    `variant` of the claim (any variant when None or ""), by rank and descent
    over the class DAG: (its counterexample per failing variant, its index k,
    the instances before it).  It is called where the class pass found such a
    poset, so a descent that reaches none, or whose count of the posets it
    passed differs from the poset's rank by class sizes, is an
    InternalDisagreement.
    """
    names = _NAMES[:n]

    def leaf(masks, k):
        p = Poset(f"P{n}-{k}", names, masks)
        if not hypothesis(p):
            return False, None
        failed = check(p)
        hit = variant in failed if variant else bool(failed)
        return True, failed if hit else None

    tree = _ExtensionTree(n)
    found = tree.first(leaf)
    if found is None:
        raise InternalDisagreement(
            f"at n={n} the class pass fails {variant or 'the claim'} but the descent "
            "reaches no labeled poset that does")
    masks, failed, k, instances = found
    if tree.rank(masks) != k:
        raise InternalDisagreement(
            f"at n={n} the descent passed {k} labeled posets but P{n}-{k} has rank {tree.rank(masks)}")
    return failed, k, instances


def _sweep(max_n: int, claim: Claim):
    """Check every poset with up to max_n <= ISO_CAP elements, one isomorphism
    class at a time.

    Hypotheses and claims are order-invariant, so each class representative
    stands for its whole orbit and counts n!/|Aut| labeled posets.  At the
    first n where some variant of the claim fails, a descent over the
    one-point-extension tree of that n, memoized by class (`_descend`), finds
    the first labeled counterexample (P<n>-<k>) without listing labeled
    posets, once per newly failing variant.  A claim of one variant stops
    there, and the descent also gives the partial counts up to that poset, so
    the name and the counts are those of a labeled sweep.  A claim of several
    variants sweeps every n and keeps the counts of the class pass.  Returns
    posets_per_n, instances_per_n and the first counterexample per failing
    variant.

    A descent's result depends only on the claim, n and the variant, so it
    is kept in `claim.descents` once the descent returns, and a later sweep
    of the claim at that n and variant, whatever its max_n, reads it instead
    of descending again.  Every sweep still scans the classes, and reads a
    kept descent only once its own class pass has found the failing class.
    A descent that raises keeps nothing, so the next sweep descends, and
    checks the index against the rank, again.  Unlike the class levels,
    descents are kept from the first sweep on, since each is a few hundred
    bytes (a counterexample and two ints).

    The classes come from `_class_levels` over the process's store `_kept`,
    and every level of it from the class memo, so a level is built only by
    the first sweep or enumeration of the process that reads it.  The first
    sweep of a process finds the store None and makes its representatives
    for itself alone.  From the second on, for n <= _KEPT_LEVELS they are the
    store's Q<n>-<k> posets, so the derived tables a check builds on one
    (star table, classify(), law plans) serve every later sweep; above that,
    they are made from the memo for the sweep alone.  Sweeps hold
    `_store_lock`, so sweeps in several threads run one at a time, and read
    and fill the claims' kept descents under it.
    """
    global _kept
    if not 1 <= max_n <= ISO_CAP:
        raise SizeCap(f"a sweep supports 1 <= n <= {ISO_CAP}, got {max_n}")
    stop = len(claim.variants) < 2
    posets_per_n: dict[int, int] = {}
    instances_per_n: dict[int, int] = {}
    found: dict[str, Counterexample] = {}
    with _store_lock:
        for n, level in enumerate(_class_levels(max_n, _kept), 1):
            counts, first = _scan(((p, orbit) for p, orbit, _ in level), claim)
            for variant in sorted(first.keys() - found.keys()):
                if (n, variant) not in claim.descents:
                    failed, k, instances = _descend(n, claim.hypothesis, claim.failures, variant)
                    claim.descents[n, variant] = failed[variant], k, instances
                first[variant], k, instances = claim.descents[n, variant]
                if stop:
                    counts = k + 1, instances + 1
            posets_per_n[n], instances_per_n[n] = counts
            for variant, ce in first.items():
                found.setdefault(variant, ce)
            if stop and found:
                break
        if _kept is None:
            _kept = []
    return posets_per_n, instances_per_n, found


def _claim_report(name: str, max_n: int, claim: Claim) -> VerificationReport:
    """Sweep a claim and report on it under `name`.

    The outcome and the counterexample follow the last, strongest variant.
    details gives each named variant's verdict and, when the strongest one
    held, the first counterexample of each weaker one that failed as
    "<variant>-first".
    """
    start = time.perf_counter()
    posets_per_n, instances_per_n, found = _sweep(max_n, claim)
    *weaker, strongest = claim.variants or ("",)
    ce = found.get(strongest)
    details = {v: "counterexample" if v in found else "verified" for v in claim.variants}
    if ce is None:
        details |= {f"{v}-first": found[v].serialized.replace("\n", "; ")
                    for v in weaker if v in found}
    return VerificationReport(name, max_n, posets_per_n, instances_per_n,
                              "verified" if ce is None else "counterexample", ce,
                              time.perf_counter() - start, details)


# -- individual theorem checks -----------------------------------------------------


def _unique_model(p: Poset, system: str, table, text: str):
    """None when the tables satisfying the system on p are exactly `table`,
    or there are none and table is None; otherwise a counterexample that says
    `text` and gives the solution counts per column."""
    if system_models_are(p, system, table):
        return None
    counts = [len(c) for c in system_column_solutions(p, system)]
    return Counterexample(_serialize(p), f"{text} (solution counts per column: {counts})")


def _check_glb(p: Poset):
    """The first (x, y, z), in lexicographic order, where z being a maximal
    lower bound of x and y, being their meet and being their local meet over
    z (meet_over_ix(x, y, z) == z) do not all agree; None where they agree
    everywhere.  Per (x, y) the three readings are whole masks of z: mlbs,
    the meet's bit, and the z whose meet_over_masks[x][z] holds y; the
    lowest bit where they differ is the witness."""
    meets, mlbs, over = p.meets, p.mlbs, p.meet_over_masks
    for x in range(p.n):
        local = transpose(over[x])  # per y: the z with meet_over_ix(x, y, z) == z
        for y, (g, mlb, loc) in enumerate(zip(meets[x], mlbs[x], local)):
            differ = (mlb ^ loc) | (mlb ^ (0 if g is None else 1 << g))
            if differ:
                z = (differ & -differ).bit_length() - 1
                return Counterexample(
                    _serialize(p),
                    f"maximal-lower-bound / meet / local-meet disagree at "
                    f"({p.elements[x]}, {p.elements[y]}, {p.elements[z]})")
    return None


def _check_nat_eq(p: Poset):
    nat, _, _, at = natural_forms(star_table(p))
    if at is None:
        return None
    x, y = at
    return Counterexample(_serialize(p, {"natural": nat}),
                          f"natural extension forms disagree at ({p.elements[x]}, {p.elements[y]})")


def _check_jext_fin(p: Poset):
    total = p.normal_table is not None
    upper = p.classify().is_upper_semilattice
    if total != upper:
        return Counterexample(
            _serialize(p), f"normal extension total={total} but upper semilattice={upper}")
    return None


def _check_nrm_impl(p: Poset):
    t = p.normal_table
    rep = implicativity(p, t)
    if not (rep.left.holds and rep.right.holds):
        side = "left" if not rep.left.holds else "right"
        wit = rep.left.witness or rep.right.witness
        return Counterexample(
            _serialize(p, {"normal": t}),
            f"normal extension not {side}-implicative, witness {wit}")
    return None


def _check_str_nrm(p: Poset):
    for make in (selection_union, selection_frink):
        sel = make(p)
        ext = i_natural_extension(p, sel)
        if ext.is_total and is_strong(p, ext.table).holds and not is_normal(p, ext.table):
            return Counterexample(
                _serialize(p, {f"inat-{sel.kind}": ext.table}),
                f"strong {sel.kind}-natural table is not normal")
    return None


def _check_nat_implic(p: Poset):
    nat = natural_extension(star_table(p))
    rep = implicativity(p, nat)
    structure = p.classify()
    if rep.left.holds != structure.all_lower_sections_chains:
        return Counterexample(
            _serialize(p, {"natural": nat}),
            f"left-implicative={rep.left.holds} but all lower sections chains="
            f"{structure.all_lower_sections_chains}")
    if rep.right.holds != structure.is_chain:
        return Counterexample(
            _serialize(p, {"natural": nat}),
            f"right-implicative={rep.right.holds} but chain={structure.is_chain}")
    return None


def _check_lat_f_eq_j(p: Poset):
    fnat = i_natural_extension(p, selection_frink(p))
    if ce := _unique_model(p, "JWV2", fnat.table, "tables satisfying the lattice identities "
                           "differ from the Frink-natural extension"):
        return ce
    if fnat.is_total != is_sp(p):
        return Counterexample(
            _serialize(p), "Frink-natural extension total but the lattice is not sp-complemented")
    if fnat.is_total and fnat.table != p.normal_table:
        return Counterexample(
            _serialize(p, {"fnat": fnat.table}), "Frink-natural extension differs from the join extension")
    return None


def _check_mono(p: Poset):
    union, frink = selection_union(p).inat_cells, selection_frink(p).inat_cells
    for x in range(p.n):
        for y in range(p.n):
            vu, vf = union[x][y], frink[x][y]
            if vu is not None and vf is not None and not p.leq_ix(vf, vu):
                return Counterexample(
                    _serialize(p),
                    f"larger selection did not shrink the value at "
                    f"({p.elements[x]}, {p.elements[y]})")
    return None


def _check_right_impl(p: Poset):
    # A whole-table counterexample exists iff a single cell admits a value that
    # meets the hypotheses (right-implicative law at that cell, value above the
    # column element) but breaks the left-implicative law: the remaining cells
    # can always be completed with the pure extension, which satisfies both
    # hypotheses everywhere.  Per (x, y), both laws' conclusions are masks of
    # the values of x -> y, and the first bad value is the lowest bit.
    e, ups = p.laws, p.ups
    for (pre, ys, right, _), (_, _, left, _) in zip(e.plan(LAWS["right-implicative"]),
                                                    e.plan(LAWS["left-implicative"])):
        x, = pre
        for y in members(ys):
            if bad := right[y] & ups[y] & ~left[y]:
                cells = [list(r) for r in pure_extension(star_table(p)).cells]
                cells[x][y] = (bad & -bad).bit_length() - 1
                return Counterexample(
                    _serialize(p, {"arrow": TotalTable(p, cells)}),
                    f"right-implicative table with y <= x->y is not left-implicative "
                    f"at ({p.elements[x]}, {p.elements[y]})")
    return None


def _iso_variants(p: Poset):
    """Whether the natural table is the Frink-natural one: "up-directed" asks
    it always, "up-directed+strong" only of a strong natural table."""
    nat = natural_extension(star_table(p))
    fnat = i_natural_extension(p, selection_frink(p))
    if fnat.is_total and fnat.table == nat:
        return {}
    ce = Counterexample(
        _serialize(p, {"natural": nat}),
        "natural table is not the Frink-natural table")
    if is_strong(p, nat).holds:
        return {"up-directed": ce, "up-directed+strong": ce}
    return {"up-directed": ce}


THEOREMS = {
    "T-SPCHAR": Claim(
        "star tables satisfying sp1-sp3 are exactly the sectional pseudocomplementation",
        lambda p: True,
        lambda p: _unique_model(p, "SP", star_table(p) if is_sp(p) else None,
                                "star tables satisfying the axioms differ from the sectional "
                                "pseudocomplementation")),
    "T-GLB": Claim("maximal lower bound = meet = local meet in semilattices",
                   lambda p: p.classify().is_upper_semilattice or p.classify().is_lower_semilattice,
                   _check_glb),
    "T-NAT-EQ": Claim("natural extension max form equals both min forms", is_sp, _check_nat_eq),
    "T-JEXT-FIN": Claim("normal extension is total exactly on upper semilattices",
                        is_sp, _check_jext_fin),
    "T-NRM-IMPL": Claim("total normal extensions are implicative",
                        lambda p: p.normal_table is not None,
                        _check_nrm_impl),
    "T-NRM-AX": Claim(
        "tables satisfying nrm0-nrm3 are exactly the total normal extensions",
        lambda p: True,
        lambda p: _unique_model(p, "NRM", p.normal_table, "tables satisfying the normality axioms "
                                "differ from the normal extension")),
    "T-STR-NRM": Claim("strong selection-natural tables are normal (union and Frink selections)",
                       is_sp, _check_str_nrm),
    "T-NAT-IMPLIC": Claim("natural extension implicativity matches the lower-section structure",
                          is_sp, _check_nat_implic),
    "T-J-EQ-NRM": Claim(
        "on lower semilattices with a greatest element, j1-j3 tables are the normal extensions",
        lambda p: p.classify().is_lower_semilattice and p.classify().has_greatest,
        lambda p: _unique_model(p, "J", p.normal_table,
                                "tables satisfying j1-j3 differ from the normal extension")),
    "T-LAT-F-EQ-J": Claim("on lattices the Frink-natural extension is the join extension and the "
                          "unique model of the lattice identities",
                          lambda p: p.classify().is_lattice, _check_lat_f_eq_j),
    "T-ISO": Claim("on up-directed posets the natural table is the Frink-natural table",
                   lambda p: is_sp(p) and p.classify().is_up_directed, _iso_variants,
                   variants=("up-directed", "up-directed+strong")),
    "T-MONO": Claim("growing the selection shrinks the extension pointwise", is_sp, _check_mono),
    "T-RIGHT-IMPL": Claim("right-implicative tables with y <= x->y are left-implicative",
                          is_sp, _check_right_impl),
}


def verify_theorem(theorem: str, max_n: int) -> VerificationReport:
    """Check one built-in claim on every poset with up to max_n elements.

    The sweep visits one representative per isomorphism class and weights it
    by its orbit size, so the counts are those of all labeled posets; at a
    failing n, rank and descent over the class DAG name the first labeled
    counterexample.
    """
    if theorem not in THEOREMS:
        raise UnknownTheorem(f"unknown theorem {theorem!r}; known: {', '.join(theorem_ids())}")
    return _claim_report(theorem, max_n, THEOREMS[theorem])


def theorem_ids() -> tuple[str, ...]:
    return tuple(sorted(THEOREMS))


# -- counterexample hunts -----------------------------------------------------------


def _hunt_rule_to_esp(kind: str):
    """Counterexample check for 'tables of a total pointwise rule are extended
    sectional pseudocomplementations'."""

    def check(p: Poset):
        t = _total_table(p, kind)
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
        wrp_agrees = all(t.cells[x][y] == value_ix(p, "wrp", x, y)
                         for x in range(p.n) for y in range(p.n) if p.leq_ix(y, x))
        return Counterexample(
            _serialize(p, {kind: t}),
            f"total {kind} table is not an extended sectional pseudocomplementation; "
            f"restriction differs from the sectional pseudocomplement at {verdict.witness}; "
            f"restriction agrees with the weak relative pseudocomplement everywhere: {wrp_agrees}")

    return check


def _hunt_esp_to_j(p: Poset):
    # An extension leaves every non-sectioned cell free, and each j-axiom
    # instance lives inside one column, so a j-violating extension exists iff
    # some single column admits a violating vector; the other columns are
    # completed with the pure extension.
    n = p.n
    star = star_table(p)
    cols = _Columns(p, "J")

    for c in range(n):
        vals = [0] * n
        dom, links = cols.column(c)

        def rec(k, dom):
            # the first vector, rows k.. in order and values ascending, that
            # breaks j1-j3 at row k or later; None when every vector holds
            if k == n:
                return None
            values = 1 << star.cells[k][c] if p.leq_ix(c, k) else p.full
            for v in bits(values):
                vals[k] = v
                if not dom[k] >> v & 1:
                    return vals[:k + 1] + [star.cells[t][c] if p.leq_ix(c, t) else c
                                           for t in range(k + 1, n)]
                hit = rec(k + 1, _narrowed(dom, links[k], v, prune=False))
                if hit:
                    return hit
            return None

        hit = rec(0, dom)
        if hit:
            cells = [list(r) for r in pure_extension(star).cells]
            for r in range(n):
                cells[r][c] = hit[r]
            t = TotalTable(p, cells)
            jrep = check_system(p, t, "J")
            if jrep.holds or not is_esp(p, t).holds:
                raise InternalDisagreement("hunted table is not the counterexample it should be")
            axiom, wit = jrep.violations[0]
            return Counterexample(
                _serialize(p, {"arrow": t}),
                f"extended sectional pseudocomplementation violating {axiom} at {wit}")
    return None


def _hunt_sp_to_sp(p: Poset):
    rep = check_system(p, star_table(p), "SP")
    return None if rep.holds else Counterexample(_serialize(p), f"star table violates {rep.violations[0]}")


PREDICATES = {
    "J⇒ESP": Claim("total relative pseudocomplementations satisfy j1-j3; are they extended "
                   "sectional pseudocomplementations?",
                   lambda p: True, _hunt_rule_to_esp("rp")),
    "CLP⇒ESP": Claim("are total sectional pseudocomplements in the greatest-element sense extended "
                     "sectional pseudocomplementations?",
                     lambda p: True, _hunt_rule_to_esp("clp")),
    "ESP⇒J": Claim("do extended sectional pseudocomplementations satisfy j1-j3?",
                   is_sp, _hunt_esp_to_j),
    "sp⇒sp": Claim("sanity: the computed star table satisfies its own axioms",
                   is_sp, _hunt_sp_to_sp),
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

    Isomorphism classes find the smallest failing n; a descent over that
    n's one-point-extension tree, memoized by class, finds its first labeled
    counterexample and the labeled counts up to it.
    """
    key = normalize_predicate(predicate)
    return _claim_report(key, max_n, PREDICATES[key])


def predicate_ids() -> tuple[str, ...]:
    return tuple(sorted(PREDICATES))


# -- exploratory probe for the selection-axiom biconditional -------------------------


def _sinat_check(make):
    """The probe's check under the selection that `make` builds: each
    variant p violates, with its counterexample."""

    def check(p: Poset):
        sel = make(p)
        sols = system_column_solutions(p, "NATI", sel=sel)
        ext = i_natural_extension(p, sel)
        expected = table_as_columns(ext.table) if ext.is_total else [[]]
        found = {}
        if not products_equal(sols, expected):
            found["plain"] = f"counterexample at n={p.n}: {p.name}"
        size = math.prod(max(len(c), 1) for c in sols)
        if size > 100_000:
            found["strong"] = f"inconclusive at n={p.n}: {p.name} ({size} models)"
        else:
            blocks = [[(sol, ()) for sol in col] for col in sols]
            strong_sols = {t for t in _product_tables(p, blocks) if is_strong(p, t).holds}
            want = {ext.table} if ext.is_total and is_strong(p, ext.table).holds else set()
            if strong_sols != want:
                found["strong"] = f"counterexample at n={p.n}: {p.name}"
        return {variant: Counterexample(_serialize(p), text) for variant, text in found.items()}

    return check


PROBES = {
    selection: Claim("selection-natural iff nat1, nat2 and the selection variant of nat3",
                     lambda p: p.classify().is_up_directed, _sinat_check(make),
                     variants=("plain", "strong"))
    for selection, make in (("frink", selection_frink), ("union", selection_union))
}


def probe_sinat_variants(max_n: int, selection: str = "frink") -> dict:
    """Test 'up-directed arrow posets are selection-natural iff they satisfy
    nat1, nat2 and the selection variant of nat3' under two hypothesis readings.

    Returns, per variant, "verified" or the first counterexample poset name,
    from the same sweep as verify_theorem, over the selection's claim in
    PROBES.  Variant "plain" quantifies over all tables; variant "strong"
    restricts both directions to strong tables, and is "inconclusive" at the
    first poset with more than 100000 models.
    """
    if selection not in PROBES:
        raise UnknownOption(f"selection must be 'frink' or 'union', got {selection!r}")
    claim = PROBES[selection]
    *_, found = _sweep(max_n, claim)
    return {variant: found[variant].witness if variant in found else "verified"
            for variant in claim.variants}
