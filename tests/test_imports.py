"""The package runs on the standard library alone: networkx is a test-only
oracle (for contains_subgraph), never imported by tanglab itself.  Nor does
the package hold an `assert`: runtime invariants raise, since asserts vanish
under `python -O`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tanglab

SRC = Path(tanglab.__file__).parent


def src_nodes():
    """(file name, node) for every AST node of every module of tanglab."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_src_imports_only_the_stdlib():
    outside = []
    for name, node in src_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        outside += [(name, m) for m in modules if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_src_has_no_assert():
    assert [(name, node.lineno) for name, node in src_nodes() if isinstance(node, ast.Assert)] == []


def test_cli_import_leaves_networkx_unloaded():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", "import tanglab.cli, sys; assert 'networkx' not in sys.modules"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_src_imports_no_name_it_never_uses():
    """Every name a module binds by import is read somewhere in it; only
    `__init__.py` imports names to re-export them."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, line, name) for name, line in imported.items() if name not in used]
    assert unused == []


def test_src_private_names_are_all_used():
    """Every module-level `_private` function or class of tanglab is
    referenced somewhere in the package beyond its own definition: code
    that nothing calls belongs in the tests, not in `src/`."""
    defined, used = [], set()
    for name, node in src_nodes():
        if isinstance(node, ast.Module):
            defined += [
                (name, d.name)
                for d in node.body
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and d.name.startswith("_") and not d.name.endswith("__")
            ]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    assert [(name, d) for name, d in defined if d not in used] == []
