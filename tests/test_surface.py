"""The package ships only program code: every public function and class
under src/semilind is used by some module of the package other than
``harness/selftest.py`` (the library, the harness or the CLI), and every
public method and dataclass field is read as an attribute by one, or is
listed below with the reason, outside the tests, that it stays.  The
selftest is no caller: it checks program paths, so every name it imports
from the package must be loaded by another module too, and no module
imports a name it never uses.  Test oracles live in tests/oracles.py."""

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
    "symbols.PolySymbol.eval": "perfbench/tracing.py traces it by name; the package evaluates "
                               "symbols through PolyBatch",
    "quantum.JumpEnsemble.n_traj": "perfbench/tracing.py reads it to count the trajectories "
                                   "of a jump ensemble",
    "ode.OdeResult.dense_steps": "a DOP853 statistic beside nfev, steps and rejected: the "
                                 "interpolants built, which cost 3 of nfev each",
    "gaussian.Moments.beta_block": "with alpha_block the whole mode covariance Sigma of a "
                                   "state, the squeezing block a record of moments carries",
    "semiclassical.FlowClassification.potential": "the potential of a gradient flow is what "
                                                  "classify_flow reports beyond its kind; the "
                                                  "selftest verb checks the drift against its "
                                                  "gradient",
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


def _attributes_read(trees):
    """Every attribute the given modules read, ``obj.name`` in a load."""
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _members(node: ast.ClassDef):
    """Names of the methods of a class and, of a dataclass, its fields."""
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name
        elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and _is_dataclass(node)):
            yield item.target.id


def public_names_never_loaded():
    """Public top-level names that no module of the package loads or
    imports, and public methods and dataclass fields that none reads as an
    attribute: a local variable or a class-body alias such as
    ``__call__ = eval`` of the same name is no use of a member."""
    trees = _trees()
    callers = {module: tree for module, tree in trees.items() if module != SELFTEST}
    loaded, attributes = _loaded(callers), _attributes_read(callers)
    unused = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in loaded:
                unused.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused.update(f"{module}.{node.name}.{name}" for name in _members(node)
                              if name not in attributes)
    return {qual for qual in unused if not qual.rsplit(".", 1)[-1].startswith("_")}


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
    and exponentiates, labels blocks and raises operators to powers with its
    own kernels (`semilind.quantum`), so it needs of scipy only sparse
    matrices; this holds for the harness and for every CLI verb, the selftest
    among them."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    heavy = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.linalg",
             "scipy.sparse.linalg", "scipy.sparse.csgraph")
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, semilind.harness.cli, semilind.harness.selftest; "
                               f"print([m for m in {heavy!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
