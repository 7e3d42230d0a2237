"""The package ships only program code: every public function, class and
method under src/semilind is used by some module of the package other than
``harness/selftest.py`` (the library, the harness or the CLI), or is listed
below with the reason, outside the tests, that it stays.  The selftest is no
caller: it checks program paths, so every name it imports from the package
must be loaded by another module too, and no module imports a name it
never uses.  Test oracles live in tests/oracles.py."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "semilind"
SELFTEST = "harness.selftest"

ALLOWED_UNUSED = {
    "harness.experiments.run_portrait": "perfbench/worker.py imports it; the benchmark moves "
                                        "to run_experiment first",
    "semiclassical.drift_field": "perfbench/tracing.py traces it by name; the symbolic drift "
                                 "is built by _gaussian_fields",
    "gaussian.WignerGrid.to_text": "perfbench/tracing.py traces it by name; frames are written "
                                   "as .npy by compare.write_frame",
}


def _trees():
    return {".".join(path.relative_to(SRC).with_suffix("").parts): ast.parse(path.read_text())
            for path in sorted(SRC.rglob("*.py"))}


def _loaded(trees):
    """Every name loaded, attribute read or name imported by the given modules."""
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    return loaded


def public_names_never_loaded():
    trees = _trees()
    loaded = _loaded({module: tree for module, tree in trees.items() if module != SELFTEST})
    defined = set()  # (qualified name, name) of each top-level def or class and each method
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined.update((f"{module}.{node.name}.{item.name}", item.name)
                               for item in node.body if isinstance(item, ast.FunctionDef))
    return {qual for qual, name in defined if not name.startswith("_") and name not in loaded}


def test_every_public_name_is_used_in_the_package():
    assert public_names_never_loaded() == set(ALLOWED_UNUSED)


def test_selftest_imports_only_program_paths():
    trees = _trees()
    loaded = _loaded({module: tree for module, tree in trees.items() if module != SELFTEST})
    allowed = {qual.rsplit(".", 1)[-1] for qual in ALLOWED_UNUSED}
    imported = {alias.name for node in ast.walk(trees[SELFTEST])
                if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names}
    assert imported
    assert sorted(imported - loaded - allowed) == []


def unused_imports():
    """(module, name) of each name a module imports and never loads; a name
    listed in the module's ``__all__`` counts as loaded."""
    unused = set()
    for module, tree in _trees().items():
        imported, loaded = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                loaded.update(ast.literal_eval(node.value))
        unused.update((module, name) for name in imported - loaded)
    return unused


def test_no_unused_import():
    assert sorted(unused_imports()) == []


def test_harness_import_leaves_out_the_heavy_scipy_packages():
    """Set-up time: the package integrates with its own DOP853 (`semilind.ode`)
    and needs of scipy only sparse matrices, ``expm`` and ``csgraph``; this
    holds for the harness and for every CLI verb, the selftest among them."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    heavy = ("scipy.integrate", "scipy.special", "scipy.optimize")
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, semilind.harness.cli, semilind.harness.selftest; "
                               f"print([m for m in {heavy!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
