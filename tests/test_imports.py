"""The package stays stdlib-only: every import in src/vlinkhom/ names a
standard-library module or vlinkhom itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vlinkhom"


def imported_roots(tree):
    """The top-level name of each absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"vlinkhom"}
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = [(path.relative_to(PACKAGE).as_posix(), root) for path in modules
               for root in imported_roots(ast.parse(path.read_text(encoding="utf-8")))
               if root not in allowed]
    assert not outside
