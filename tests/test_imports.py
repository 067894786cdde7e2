"""No module in src/, tests/ or scripts/ imports a name that it never uses,
and every public definition of the package has a reader outside tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _annotation_names(node: ast.expr) -> set[str]:
    """Names in an annotation, including those inside quoted annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval").body)
    return names


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every import in path whose name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return [(line, name) for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # a package's __init__ imports names only to re-export them
    files = [
        p
        for d in ("src", "tests", "scripts")
        for p in sorted((ROOT / d).rglob("*.py"))
        if p.name != "__init__.py"
    ]
    assert len(files) > 10
    unused = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in files for line, name in unused_imports(p)]
    assert unused == []


def test_finds_an_unused_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('import os\nimport sys\nfrom math import pi, tau\n\ndef f(x: "tau") -> int:\n    return sys.argv\n')
    assert unused_imports(src) == [(1, "os"), (3, "pi")]


def _defined_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    return []


def _read_names(node: ast.AST) -> set[str]:
    """Names node reads: as a name, as an attribute or as an imported name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unread_definitions(defining: list[Path], reading: list[Path]) -> list[tuple[Path, str]]:
    """(path, name) of every public top-level definition in `defining` that no
    top-level statement of `reading` reads, other than its own definition."""
    bodies = {p: ast.parse(p.read_text(encoding="utf-8")).body for p in {*defining, *reading}}
    readers = [(p, set(_defined_names(stmt)), _read_names(stmt)) for p in reading for stmt in bodies[p]]
    return [
        (p, name)
        for p in defining
        for stmt in bodies[p]
        for name in _defined_names(stmt)
        if not name.startswith("_")
        and not any(name in reads and not (q == p and name in defs) for q, defs, reads in readers)
    ]


def test_every_public_definition_has_a_reader_outside_tests():
    # the package's __init__ re-exports every name, so it reads nothing
    package = [p for p in sorted((ROOT / "src" / "ifsproj").glob("*.py")) if p.name != "__init__.py"]
    readers = package + [p for d in ("scripts", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    unread = [f"{p.relative_to(ROOT)}: {name}" for p, name in unread_definitions(package, readers)]
    assert len(package) > 5 and unread == []


def test_finds_an_unread_definition(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "import math\nPI = math.pi\nWORD = str\n_HIDDEN = 1\n\ndef used():\n    return WORD\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\nclass Box:\n    pass\n"
    )
    user.write_text("import lib\nfrom lib import used\n\nBox = lib.PI\n")
    assert unread_definitions([lib], [lib, user]) == [(lib, "recursive"), (lib, "Box")]


def test_cli_imports_no_scipy():
    """scipy serves only the test oracles: importing the CLI loads none of it."""
    code = "import sys, ifsproj.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
