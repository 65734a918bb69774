"""The package stays stdlib-only: every import in src/vlinkhom/ names a
standard-library module or vlinkhom itself.  The test oracles stay
independent of the code they check: of vlinkhom they import only the TQFT
blocks.  Every name of the package the benchmark reads exists."""

import ast
import importlib
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vlinkhom"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
PERFBENCH = PACKAGE.parent.parent / "perfbench"


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


def test_the_oracles_import_only_the_blocks_from_vlinkhom():
    # a splice rule, arc table or saddle classifier borrowed from the package
    # would agree with the package whatever it does
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    borrowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            borrowed.update(alias.name for alias in node.names
                            if alias.name.split(".")[0] == "vlinkhom")
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "vlinkhom":
            borrowed.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert borrowed == {"vlinkhom.tqft.elementary_map"}
    # nor do they read a diagram's own tables of arc ends and splices
    assert not {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)} & {"ends", "splices"}


def test_every_name_the_benchmark_reads_exists():
    # perfbench reaches the package as lib.<layer>.<name>, lib being its
    # namespace of vlinkhom modules (a name, or an attribute such as env.lib);
    # a deletion of one of those names would otherwise surface only when the
    # benchmark runs
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
                lib = node.value.value
                name = lib.id if isinstance(lib, ast.Name) else getattr(lib, "attr", None)
                if name == "lib":
                    reads.add((node.value.attr, node.attr))
    assert {("diagram", "cube_edges"), ("homology", "build_complex"),
            ("corpus", "load_r3_pairs")} <= reads
    missing = [f"{layer}.{name}" for layer, name in sorted(reads)
               if not hasattr(importlib.import_module(f"vlinkhom.{layer}"), name)]
    assert not missing
