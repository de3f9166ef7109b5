import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gpcount"


def test_runtime_imports_only_the_standard_library():
    # pyproject declares `dependencies = []`: every absolute import in the
    # package must name a standard-library module
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside


def test_cli_imports_no_argparse():
    # the command line is read from `cli.COMMANDS`; no parser tree is built
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import gpcount.cli; "
            "print('argparse' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("modules", [
    ("gpcount.cli",),
    # what perfbench/setup_probe.py imports before it builds the objects
    ("gpcount.ehrhart", "gpcount.hypergraph", "gpcount.permutahedron", "gpcount.setfn"),
], ids=["cli", "setup_probe"])
def test_imports_no_dataclasses_or_inspect(modules):
    # the value classes are plain classes (`gpcount.value`): importing the
    # package loads neither `dataclasses` nor the `inspect` it pulls in
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import {', '.join(modules)}; "
            "print([name for name in ('dataclasses', 'inspect') if name in sys.modules])")
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def _unused_imports(tree):
    """The names that the top-level imports of `tree` bind and that nothing
    in it reads, by name or as the base of an attribute; `from __future__`
    binds nothing."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in bound if name not in read)


def test_every_top_level_import_is_used():
    # a deletion that leaves an import behind fails here, not in a linter
    forms = ("from __future__ import annotations\n"
             "import os, os.path\nimport json as j\nfrom . import a, b\n"
             "from .c import d as e, f\n"
             "def g(x: f) -> None:\n    return os.sep + a.x\n")
    assert _unused_imports(ast.parse(forms)) == ["b", "e", "j"]
    unused = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert unused == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _reads(stmt) -> set:
    """The names that `stmt` loads, reads as attributes or imports."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _unread_names(trees: dict) -> list:
    """The names that the modules of `trees` define and that no other
    statement of any of them reads, by name, as an attribute or in an
    import: the private top-level names (one leading underscore, not a
    dunder) and every top-level function and method that is not a dunder,
    public ones included.  Each top-level statement is read as one, but a
    class as its header and each statement of its body, so a method read
    only by itself is unread, as a function calling itself is."""
    defined, read = [], []
    for module, tree in trees.items():
        for stmt in tree.body:
            start = len(read)
            if isinstance(stmt, ast.ClassDef):
                read.append(set().union(*map(_reads, stmt.bases + stmt.keywords
                                             + stmt.decorator_list)))
                for item in stmt.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not _dunder(item.name)):
                        at = range(len(read), len(read) + 1)
                        defined.append((f"{module}: {stmt.name}.{item.name}", item.name, at))
                    read.append(_reads(item))
            else:
                read.append(_reads(stmt))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                names = []
            function = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            defined += [(f"{module}: {name}", name, range(start, len(read))) for name in names
                        if _private(name) or function and not _dunder(name)]
    return [label for label, name, at in defined
            if not any(name in names for i, names in enumerate(read) if i not in at)]


def test_every_private_name_is_read():
    # a deletion that leaves a private helper, a function or a method behind
    # fails here; the three names left are read only by callers outside the
    # package: the tests, the benchmark and the README's examples
    forms = {"a.py": ast.parse("def _f(n):\n    return _f(n - 1)\n_g = 1\n_h = _g\n"
                               "def _i():\n    pass\n__all__ = ['_i']\n"
                               "def k():\n    return l()\ndef l():\n    pass\n"),
             "b.py": ast.parse("from .a import _i\n_j: int = 2\n"
                               "class C:\n    def __init__(self):\n        pass\n"
                               "    def m(self):\n        return self.m() + self.n()\n"
                               "    def n(self):\n        pass\n")}
    assert _unread_names(forms) == ["a.py: _f", "a.py: _h", "a.py: k", "b.py: _j", "b.py: C.m"]
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert _unread_names(trees) == ["ehrhart.py: multiplicity",
                                    "permutahedron.py: Face.vertex_ids",
                                    "setfn.py: standard_perm_setfn"]


def _chain_walks(tree) -> list:
    """The lines of `tree` that call `permutations` with one argument, by
    name or as an attribute: a walk over every ordering of a ground set."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords
            and (getattr(node.func, "id", None) == "permutations"
                 or getattr(node.func, "attr", None) == "permutations")]


def test_only_setfn_walks_every_chain():
    # the d! greedy chains are walked once per set function, in
    # `SetFn.scaled_vertices`; every other reader of the chains reads the
    # vertices or the tight sets
    forms = ("import itertools\nfrom itertools import permutations\n"
             "a = itertools.permutations(range(3))\nb = permutations('ab')\n"
             "c = permutations(range(3), 2)\nd = permutations(range(3), r=2)\n")
    assert _chain_walks(ast.parse(forms)) == [3, 4]
    walks = [path.name for path in sorted(SRC.glob("*.py"))
             for _line in _chain_walks(ast.parse(path.read_text(), str(path)))]
    assert walks == ["setfn.py"]
