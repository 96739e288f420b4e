"""Every module of the package and of the tests uses each name it imports.

A name counts as used when the module reads it anywhere, or re-exports it
through a literal __all__. An import kept for its side effect says so with
the usual "# noqa: F401" on its line. Only the standard library's ast is
needed.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "horolab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        "%s (line %d)" % (name, line)
        for name, line in sorted(imported.items())
        if name not in used and "noqa: F401" not in lines[line - 1]
    ]


def test_scan_finds_unused_names():
    source = (
        "import os\nimport numpy as np\nfrom a.b import c, d as e\nfrom f import g\n"
        "import h  # noqa: F401\n__all__ = ['g']\nprint(np.pi, e)\n"
    )
    assert unused_imports(source) == ["c (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
