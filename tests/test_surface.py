"""The package has no test-only public surface: every public function, class
and method under src/semilind is used by some module of the package (the
library, the harness, the CLI or the selftest), or is listed below with the
reason it stays."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "semilind"

ALLOWED_UNUSED = {
    "harness.experiments.run_portrait": "perfbench/worker.py imports it; the benchmark moves "
                                        "to run_experiment first",
    "semiclassical.drift_complex": "independent mode-chart oracle of the centre drift "
                                   "(TestComplexChart)",
    "semiclassical.rhs_g_complex": "independent mode-chart oracle of the width equation "
                                   "(TestComplexChart)",
}


def public_names_never_loaded():
    trees = {".".join(path.relative_to(SRC).with_suffix("").parts): ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
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
