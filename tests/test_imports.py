import ast
import subprocess
import sys
from pathlib import Path

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
