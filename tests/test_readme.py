"""The README's library tour runs as written; its CLI lines parse; its module
map has one row per module; the package exports its API and no module; no
library module imports a name it does not use or defines a private helper
that nothing calls."""

import ast
import re
import shlex
from pathlib import Path
from types import ModuleType

import aperiodic
from aperiodic import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_lines_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "aperiodic"]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_module_map_has_one_row_per_module():
    table = README.read_text().split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` ", table, re.M)
    modules = {path.stem for path in (ROOT / "src" / "aperiodic").glob("*.py")}
    assert sorted(rows) == sorted(modules - {"__init__", "__main__"})


def test_package_all_is_the_api():
    assert aperiodic.__all__
    for name in aperiodic.__all__:
        assert not isinstance(getattr(aperiodic, name), ModuleType), name


def test_library_modules_use_every_name_they_import():
    # __init__ re-exports what it imports, so it is exempt
    for path in sorted((ROOT / "src" / "aperiodic").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports {sorted(imported - used)} unused"


def test_library_has_no_private_helper_that_nothing_calls():
    # a module-level _name must be referenced somewhere outside its own def
    statements = [(path.name, stmt)
                  for path in sorted((ROOT / "src" / "aperiodic").glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    references = []
    for _, stmt in statements:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        references.append(names)
    for (module, stmt), own in zip(statements, references):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
            assert any(stmt.name in names for names in references if names is not own), \
                f"{module} defines {stmt.name}, which nothing calls"
