"""Every name that a horolab module exports is read by the program.

A name in the literal __all__ of a module of src/horolab counts as read when
a module of src/horolab loads it, as a bare name or as an attribute, outside
its own top-level definition, or when a file of perfbench/ names it at all
(the benchmark also looks names up by their strings). Imports and export
lists are not reads. A name kept for another reason is listed in KEPT with
that reason. Only the standard library's ast is needed.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "horolab").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# exported names that nothing in the program reads, each with its reason
KEPT: dict[str, str] = {}


def exported(tree) -> list[str]:
    """The names of the module's literal __all__, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def definitions(tree) -> dict[str, list[tuple[int, int]]]:
    """Line spans of each top-level def, class and assignment, by name."""
    spans: dict[str, list[tuple[int, int]]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            spans.setdefault(name, []).append((node.lineno, node.end_lineno))
    return spans


def reads(tree, strings: bool = False) -> set[str]:
    """Names the module loads outside their own definitions; with strings,
    also every string constant."""
    spans = definitions(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if not any(lo <= node.lineno <= hi for lo, hi in spans.get(name, ())):
            out.add(name)
    return out


def unread_exports(sources: dict[str, str], bench: list[str]) -> list[str]:
    """'module.name' for each exported name that no source and no benchmark
    file reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    seen = set().union(*(reads(tree) for tree in trees.values()))
    for text in bench:
        seen |= reads(ast.parse(text), strings=True)
    return sorted(
        "%s.%s" % (mod, name)
        for mod, tree in trees.items()
        for name in exported(tree)
        if name not in seen
    )


def test_scan_finds_unread_exports():
    sources = {
        "a": (
            "__all__ = ['used', 'lonely', 'selfish', 'traced', 'reexported']\n"
            "def used():\n    return 1\n"
            "def lonely():\n    return 2\n"
            "def selfish(n):\n    return selfish(n - 1) if n else 0\n"
            "def traced():\n    return 3\n"
            "reexported = 4\n"
        ),
        "b": (
            "from .a import used, lonely, reexported\n"
            "__all__ = ['reexported']\n"
            "print(used())\n"
        ),
    }
    bench = ["SPANS = [('a', 'traced')]\n"]
    assert unread_exports(sources, bench) == ["a.lonely", "a.reexported", "a.selfish", "b.reexported"]
    # an attribute load is a read, and so is a name outside its definition
    sources["b"] += "import a\nprint(a.lonely, a.selfish(2), reexported)\n"
    assert unread_exports(sources, bench) == []


def test_every_export_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    bench = [p.read_text(encoding="utf-8") for p in BENCH]
    # a KEPT entry that is read, or no longer exported, is stale
    assert unread_exports(sources, bench) == sorted(KEPT)
