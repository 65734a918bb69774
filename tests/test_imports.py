"""The package stays stdlib-only: every import in src/vlinkhom/ names a
standard-library module or vlinkhom itself.  The test oracles stay
independent of the code they check: of vlinkhom they import only the TQFT
blocks.  Every name of the package the benchmark reads exists, and so does
every attribute it reads of the cubes the package builds.  A submodule's
name binds the submodule."""

import ast
import importlib
import random
import sys
import types
from pathlib import Path

from vlinkhom import corpus
from vlinkhom.algebra import preset, theory_from_triple
from vlinkhom.fields import QQ
from vlinkhom.homology import build_complex

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


def test_the_benchmark_reads_what_it_needs_of_a_built_cube(monkeypatch):
    # perfbench's traced counters read a complex's edges (kind and twist
    # bits), differentials (entries and ncols), smoothings and dims(), and
    # its anchor flips each state's circle keys; the name check above sees
    # none of these attributes.  Both calls only read.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    stages, jobs = (importlib.import_module(name) for name in ("stages", "jobs"))
    counters = stages.Counters()
    for name, th in (("kishino", preset("f2_row2")),
                     ("trefoil", theory_from_triple(QQ.one, QQ.zero, QQ.one))):
        c = build_complex(corpus.load(name), th)
        counters.add_cube(c, 1)
        assert len(jobs.flip_selectors(c.smoothings, random.Random(1), 3)) == 3
    counts = counters.result()
    assert counts["diagram.states"] == 2 ** 4 + 2 ** 3
    assert all(counts[key] for key in ("diagram.edges", "homology.gens", "homology.nnz",
                                       "linalg.dense_cells", "tqft.distinct_blocks"))


def test_vlinkhom_homology_is_the_module():
    # the package re-exports no function under its submodule's name, so the
    # import binds the module and its functions are attributes
    import vlinkhom.homology as H
    assert H.stream_homology is sys.modules["vlinkhom.homology"].stream_homology
    assert isinstance(H, types.ModuleType)
