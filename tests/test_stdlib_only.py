"""The runtime and the tools import nothing outside the standard library.

Every module of the package and every script under tools/ is parsed, and
each import in it, at any depth, must be relative (another module of the
package), from __future__, or of a module in sys.stdlib_module_names.
"""

import ast
import sys
from pathlib import Path

import spposet


def outside_imports(sources):
    """The (file name, module) of each import in sources outside the standard library."""
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name != "__future__" and name.split(".")[0] not in sys.stdlib_module_names]
    return outside


def test_the_runtime_imports_only_the_standard_library():
    sources = sorted(Path(spposet.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    assert outside_imports(sources) == []


def test_the_tools_import_only_the_standard_library():
    sources = sorted((Path(__file__).parent.parent / "tools").glob("*.py"))
    assert len(sources) >= 1
    assert outside_imports(sources) == []
