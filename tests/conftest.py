import importlib.resources
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import tables_data as td  # noqa: E402
from spposet import PartialTable, TotalTable, build_poset, parse_path  # noqa: E402


def rows_in_order(table_dict, elements):
    return [table_dict[e] for e in elements]


def corpus_posets():
    """Every poset of the bundled corpus, files in name order."""
    for f in sorted(importlib.resources.files("spposet.corpus").iterdir()):
        if f.name.endswith(".sp"):
            for sec in parse_path(str(f)).sections:
                if sec.kind == "poset":
                    yield sec.obj


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
