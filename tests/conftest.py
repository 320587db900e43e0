import importlib.resources
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import tables_data as td  # noqa: E402
from spposet import PartialTable, TotalTable, build_poset, parse_path  # noqa: E402
from spposet.poset import Poset, bits  # noqa: E402


def rows_in_order(table_dict, elements):
    return [table_dict[e] for e in elements]


def corpus_posets():
    """Every poset of the bundled corpus, files in name order."""
    for f in sorted(importlib.resources.files("spposet.corpus").iterdir()):
        if f.name.endswith(".sp"):
            for sec in parse_path(str(f)).sections:
                if sec.kind == "poset":
                    yield sec.obj


def linear(p):
    """Whether no element lies below one with a smaller index, pair by pair."""
    return not any(p.leq_ix(j, i) for i in range(p.n) for j in range(i + 1, p.n))


def relabeled(p, perm):
    """p with element perm[k] of p at index k."""
    pos = {old: new for new, old in enumerate(perm)}
    ups = [sum(1 << pos[j] for j in bits(p.ups[i])) for i in perm]
    return Poset(f"{p.name}~", tuple(p.elements[i] for i in perm), tuple(ups))


def nonlinear_relabeling(rng, p):
    """p under a seeded permutation that is not a linear extension; None for an antichain."""
    if all(up.bit_count() == 1 for up in p.ups):
        return None
    while True:
        q = relabeled(p, rng.sample(range(p.n), p.n))
        if not linear(q):
            return q


def sixteen():
    """The 16-element chain, antichain and Boolean lattice 2^4, each labeled as a linear extension."""
    names = [f"e{k}" for k in range(16)]
    chain = build_poset("chain16", names, list(zip(names, names[1:])))
    antichain = build_poset("antichain16", names, [])
    # element k is the subset k of four atoms, below the subsets that hold it
    cube = build_poset("2^4", names, [(names[k], names[m]) for k in range(16) for m in range(16)
                                      if k & ~m == 0])
    return chain, antichain, cube


@pytest.fixture(scope="session")
def hexagon():
    return build_poset("hex", td.HEXAGON_ELEMENTS, td.HEXAGON_COVERS)


@pytest.fixture(scope="session")
def hexagon_star(hexagon):
    return PartialTable.from_ids(hexagon, rows_in_order(td.HEXAGON_STAR, hexagon.elements))


@pytest.fixture(scope="session")
def hexagon_rp(hexagon):
    return TotalTable.from_ids(hexagon, rows_in_order(td.HEXAGON_RP, hexagon.elements))


@pytest.fixture(scope="session")
def diamond():
    return build_poset("q", td.Q_ELEMENTS, td.Q_COVERS)


@pytest.fixture(scope="session")
def twochains():
    return build_poset("twochains", td.TWOCHAINS_ELEMENTS, td.TWOCHAINS_COVERS)


@pytest.fixture(scope="session")
def chains5():
    return build_poset("chains5", td.CHAINS5_ELEMENTS, td.CHAINS5_COVERS)


@pytest.fixture(scope="session")
def vee():
    # two incomparable elements over a common bottom; not sectionally bounded
    return build_poset("vee", ["0", "a", "b"], [("0", "a"), ("0", "b")])


@pytest.fixture(scope="session")
def chain4():
    return build_poset("chain4", ["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")])
