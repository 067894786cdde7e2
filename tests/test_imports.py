"""No module in src/, tests/ or scripts/ imports a name that it never uses."""

import ast
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
