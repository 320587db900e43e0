"""The selection laws swept as row masks, against the pointwise sweeps they replaced.

The oracles below are the earlier pointwise implementations: LocalSelection
validation through per-pair lookups, natI3, the simplI items a/b and the
NATI cell candidates, each re-running disjoint_over_ix / meet_over_ix for
every z of every I(x, y).  The mask versions must give the same verdicts and
the same first witnesses, on seeded random posets of up to 16 elements with
the Frink, union and custom selections, legal or not.
"""

import random

import pytest

from spposet import (
    LocalSelection,
    TotalTable,
    build_poset,
    check_system,
    selection_frink,
    selection_union,
    verify_lemma_suite,
)
from spposet.enumeration import _Columns, enumerate_posets
from spposet.errors import SelectionAxiomViolation
from spposet.poset import bits


def _oracle_bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _oracle_validate(p, masks):
    def mask_ix(i, j):
        return masks[(i, j) if i <= j else (j, i)]

    els = p.elements
    for i in range(p.n):
        for j in range(i, p.n):
            m = mask_ix(i, j)
            for u in bits(m):
                if p.downs[u] & ~m:
                    raise SelectionAxiomViolation("down-set", (els[i], els[j], els[u]))
            if not (m >> i & 1 and m >> j & 1):
                raise SelectionAxiomViolation("I0", (els[i], els[j]))
            if p.leq_ix(j, i) and m != p.downs[i]:
                raise SelectionAxiomViolation("I2", (els[i], els[j]))
            if p.leq_ix(i, j) and m != p.downs[j]:
                raise SelectionAxiomViolation("I2", (els[i], els[j]))
    for i in range(p.n):
        for j in range(p.n):
            m = mask_ix(i, j)
            for i2 in bits(p.ups[i]):
                if m & ~mask_ix(i2, j):
                    raise SelectionAxiomViolation("I3", (els[i], els[j], els[i2]))
            for z in bits(p.ups[i] & p.ups[j]):
                if m & ~p.downs[z]:
                    raise SelectionAxiomViolation("I4", (els[i], els[j], els[z]))
            if (p.downs[i] | p.downs[j]) & ~m:
                raise SelectionAxiomViolation("I5", (els[i], els[j]))


def _oracle_nati3(p, t, sel):
    n, els, c = p.n, p.elements, t.cells
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if not p.leq_ix(z, x):
                    continue
                if all(p.disjoint_over_ix(x, w, z) for w in bits(sel.mask_ix(y, z))):
                    if not p.leq_ix(x, c[y][z]):
                        return els[x], els[y], els[z]


def _oracle_simpl_i(p, sel):
    n, els = p.n, p.elements

    def item_a():
        for u in range(n):
            for x in range(n):
                for y in range(n):
                    im = sel.mask_ix(x, y)
                    lhs = p.downs[u] & im & p.ups[y] & ~(1 << y) == 0
                    rhs = all(p.disjoint_over_ix(u, z, y) for z in bits(im))
                    if lhs != rhs:
                        return els[u], els[x], els[y]

    def item_b():
        for u in range(n):
            for x in range(n):
                for y in range(n):
                    im = sel.mask_ix(x, y)
                    lhs = p.downs[u] & im & p.ups[y] == 1 << y
                    rhs = all(p.meet_over_ix(u, z, y) == y for z in bits(im & p.ups[y]))
                    if lhs != rhs:
                        return els[u], els[x], els[y]

    return [("a", item_a()), ("b", item_b())]


def _oracle_nati_candidates(p, sel):
    n = p.n
    cand = [[p.full] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            if p.leq_ix(c, r) and r != c:
                cand[r][c] &= ~p.ups[r]
    need = [[0] * n for _ in range(n)]
    for y in range(n):
        for z in range(n):
            im = sel.mask_ix(y, z)
            for x in bits(p.ups[z]):
                if all(p.disjoint_over_ix(x, w, z) for w in bits(im)):
                    need[y][z] |= 1 << x
    for r in range(n):
        for c in range(n):
            if need[r][c]:
                cand[r][c] = sum(1 << v for v in bits(cand[r][c]) if need[r][c] & ~p.downs[v] == 0)
    return cand


# -- inputs -------------------------------------------------------------------------


def _random_poset(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    density = rng.choice((0.1, 0.2, 0.35, 0.6))
    names = [f"e{i}" for i in range(n)]
    pairs = [(names[perm[i]], names[perm[j]]) for j in range(n) for i in range(j)
             if rng.random() < density]
    return build_poset(f"R{n}", names, pairs)


def _posets():
    rng = random.Random(20221018)
    out = [p for n in range(1, 4) for p in enumerate_posets(n)]
    out += [_random_poset(rng, rng.randint(4, 16)) for _ in range(36)]
    out += [_random_poset(rng, 16) for _ in range(4)]
    return out


POSETS = _posets()


def _down(p, m):
    out = 0
    for w in bits(m):
        out |= p.downs[w]
    return out


def _custom_masks(p, rng):
    """A legal selection between the union and the Frink one:
    I(x, y) = (x] u (y] u the down-set of T n L(U({x, y})) for a random T."""
    chosen = sum(1 << v for v in range(p.n) if rng.random() < 0.5)
    return {(i, j): p.downs[i] | p.downs[j] | _down(p, chosen & p.frink_mask(i, j))
            for i in range(p.n) for j in range(i, p.n)}


def _broken_masks(p, rng, law):
    """Custom masks with one pair changed so that `law` fails there; None when
    the poset has no pair to break it at."""
    masks = _custom_masks(p, rng)
    pairs = list(masks)
    rng.shuffle(pairs)
    for i, j in pairs:
        m = masks[(i, j)]
        comparable = p.leq_ix(i, j) or p.leq_ix(j, i)
        if law == "down-set":
            new = [m | 1 << w for w in range(p.n) if p.downs[w] & ~(m | 1 << w)]
        elif law == "I0":
            new = [] if comparable else [p.downs[i], p.downs[j]]
        elif law == "I2":
            new = [m | p.downs[w] for w in range(p.n) if comparable and p.downs[w] & ~m]
        elif law == "I3":
            # shrink to the union: a smaller pair below may now select more
            new = [p.downs[i] | p.downs[j]] if m != p.downs[i] | p.downs[j] else []
        elif law == "I4":
            # grow past a common upper bound
            new = [m | p.downs[w] for w in range(p.n)
                   if not comparable and p.ups[i] & p.ups[j] and p.downs[w] & ~p.frink_mask(i, j)]
        else:  # I5: leave out an element below x or y
            new = [m & ~(1 << w) for w in bits((p.downs[i] | p.downs[j]) & ~(1 << i | 1 << j))]
        if new:
            masks[(i, j)] = rng.choice(new)
            return masks
    return None


def _base_masks(p, rng):
    """The union, Frink and a custom selection's masks."""
    r = range(p.n)
    yield {(i, j): p.downs[i] | p.downs[j] for i in r for j in r if i <= j}
    yield {(i, j): p.frink_mask(i, j) for i in r for j in r if i <= j}
    yield _custom_masks(p, rng)


def _planted_i3(p, masks, rng):
    """masks with I(i, j) grown past I(i2, j), for i < i2 with an element
    strictly between them and j incomparable to both; I(i2, j) shrinks to the
    union's (i2] u (j].  The other laws still hold.  None without such i, i2, j."""
    spots = [(i, i2, j) for i in range(p.n) for i2 in bits(p.ups[i] & ~p.upper_covers[i] & ~(1 << i))
             for j in range(p.n)
             if not (p.leq_ix(i, j) or p.leq_ix(j, i) or p.leq_ix(i2, j) or p.leq_ix(j, i2))]
    if not spots:
        return None
    i, i2, j = rng.choice(spots)
    small = p.downs[i2] | p.downs[j]
    w = rng.choice([w for w in range(p.n) if not small >> w & 1])
    masks = dict(masks)
    masks[min(i2, j), max(i2, j)] = small
    masks[min(i, j), max(i, j)] |= p.downs[w]
    return masks


def _planted_down_set(p, masks, rng):
    """masks with one element u left out of every pair's mask that equals a
    mask shared by several pairs, where u lies below another member.  None
    without such a mask."""
    shared = {}
    for key, m in masks.items():
        shared.setdefault(m, []).append(key)
    spots = [(m, u) for m, keys in shared.items() if len(keys) > 1
             for u in bits(m) if p.ups[u] & m & ~(1 << u)]
    if not spots:
        return None
    m, u = rng.choice(spots)
    return {key: v & ~(1 << u) if v == m else v for key, v in masks.items()}


def _verdict(make):
    try:
        make()
    except SelectionAxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


def _unchecked(p, masks, monkeypatch):
    """A LocalSelection over masks that need not obey the selection laws."""
    with monkeypatch.context() as m:
        m.setattr(LocalSelection, "_validate", lambda self: None)
        return LocalSelection(p, "raw", masks)


def _selections(p, rng, monkeypatch):
    yield selection_frink(p)
    yield selection_union(p)
    yield LocalSelection(p, "custom", _custom_masks(p, rng))
    # masks that are not down-sets or miss laws, so that the lemmas fail too
    raw = {(i, j): rng.getrandbits(p.n) | 1 << i | 1 << j
           for i in range(p.n) for j in range(i, p.n)}
    yield _unchecked(p, raw, monkeypatch)


def _tables(p, rng):
    """A table that often satisfies natI3, and copies of it with cells changed."""
    tops = list(bits(p.maximal_of(p.full)))
    rows = [[rng.choice(tops) if rng.random() < 0.9 else rng.randrange(p.n)
             for _ in range(p.n)] for _ in range(p.n)]
    yield TotalTable(p, rows)
    for _ in range(3):
        rows = [row[:] for row in rows]
        rows[rng.randrange(p.n)][rng.randrange(p.n)] = rng.randrange(p.n)
        yield TotalTable(p, rows)


# -- tests --------------------------------------------------------------------------


def test_bits_matches_the_shift_loop():
    for mask in range(1 << 16):
        assert list(bits(mask)) == list(_oracle_bits(mask))


@pytest.mark.parametrize("p", POSETS, ids=lambda p: f"{p.name}")
def test_row_masks_match_the_pointwise_predicates(p):
    disjoint, meets = p.disjoint_over_masks, p.meet_over_masks
    for u in range(p.n):
        for b in range(p.n):
            for z in range(p.n):
                assert (disjoint[u][b] >> z & 1) == p.disjoint_over_ix(u, z, b)
                assert (meets[u][b] >> z & 1) == (p.meet_over_ix(u, z, b) == b)


def test_selection_validation_matches_the_oracle():
    rng = random.Random(1)
    fired = set()
    for p in POSETS:
        legal = _custom_masks(p, rng)
        assert _verdict(lambda: LocalSelection(p, "custom", legal)) is None
        assert _verdict(lambda: _oracle_validate(p, legal)) is None
        for law in ("down-set", "I0", "I2", "I3", "I4", "I5"):
            for _ in range(3):
                masks = _broken_masks(p, rng, law)
                if masks is None:
                    break
                got = _verdict(lambda: LocalSelection(p, "custom", masks))
                assert got == _verdict(lambda: _oracle_validate(p, masks))
                if got is not None:
                    fired.add(got[0])
    # I4 and I5 are consequences that only the oracle re-checks: a selection
    # that breaks I5 is not a down-set or misses x or y, and one that breaks
    # I4 breaks I3 at the same upper bound first, so only the four primary
    # laws ever fire
    assert fired == {"down-set", "I0", "I2", "I3"}


def test_planted_violations_match_the_oracle():
    # growth is tested along upper covers only, and each distinct mask once
    # for being a down-set: an I3 violation planted between elements that do
    # not cover each other, and a down-set violation that several pairs
    # share, get the pair walk's axiom and first witness
    rng = random.Random(5)
    fired = []
    for p in [p for p in POSETS if p.n == 16]:
        for base in _base_masks(p, rng):
            for plant in (_planted_i3, _planted_down_set):
                for _ in range(3):
                    masks = plant(p, base, rng)
                    if masks is None:
                        break
                    got = _verdict(lambda: LocalSelection(p, "custom", masks))
                    assert got == _verdict(lambda: _oracle_validate(p, masks))
                    fired.append((plant, got[0]))
    assert {axiom for plant, axiom in fired if plant is _planted_i3} == {"I3"}
    assert {axiom for plant, axiom in fired if plant is _planted_down_set} == {"down-set"}
    assert len(fired) >= 60


def test_nati3_matches_the_oracle(monkeypatch):
    rng = random.Random(2)
    outcomes = set()
    for p in POSETS:
        for sel in _selections(p, rng, monkeypatch):
            for t in _tables(p, rng):
                got = dict(check_system(p, t, "NATI", sel=sel).violations).get("natI3")
                assert got == _oracle_nati3(p, t, sel)
                outcomes.add(got is None)
    assert outcomes == {True, False}


def test_simpl_i_matches_the_oracle(monkeypatch):
    rng = random.Random(3)
    outcomes = set()
    for p in POSETS:
        for sel in _selections(p, rng, monkeypatch):
            items = verify_lemma_suite(p, None, "simplI", sel=sel).items
            got = [(item.item, item.witness) for item in items]
            assert got == _oracle_simpl_i(p, sel)
            outcomes.update(w is None for _, w in got)
    assert outcomes == {True, False}


def test_nati_cell_candidates_match_the_oracle(monkeypatch):
    # the NATI candidate masks the column solver derives from the law table:
    # nat2 and natI3, and the nat1 instances with x = y, which read one cell
    # twice and always hold
    rng = random.Random(4)
    for p in POSETS:
        for sel in _selections(p, rng, monkeypatch):
            cols = _Columns(p, "NATI", sel)
            doms = [cols.column(c)[0] for c in range(p.n)]
            assert [list(row) for row in zip(*doms)] == _oracle_nati_candidates(p, sel)
