"""Every name that a horolab module exports, every private top-level name,
every public method and every attribute is read by the program.

A name in the literal __all__ of a module of src/horolab counts as read when
a module of src/horolab loads it, as a bare name or as an attribute, outside
its own definition, or when a file of perfbench/ names it at all (the
benchmark also looks names up by their strings). Imports and export lists
are not reads. The same rule holds for each top-level name with one leading
underscore and each method of a top-level class whose name has none, so a
helper that only the tests call fails too. It also holds for each attribute
assigned on self in a method of a top-level class and each annotated field
of a top-level dataclass, so a field that only the tests read fails; in a
module only an attribute load reads one, not a bare name. The scan matches
by name, not by class: a read of Generator.kind also counts for any other
class's kind. A name kept for another reason is listed in KEPT with that
reason. Only the standard library's ast is needed.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "horolab").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# names that nothing in the program reads, each with its reason
KEPT: dict[str, str] = {
    "groups.LimitSample.width": "the enclosure certificate of a sampled limit "
    "point, which the tests check and run manifests are to report",
}


def exported(tree) -> list[str]:
    """The names of the module's literal __all__, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def methods(tree) -> list[tuple[str, ast.AST]]:
    """(class name, def node) of each method of each top-level class."""
    return [
        (cls.name, node)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def internals(tree) -> list[tuple[str, str]]:
    """(shown, name) of each private top-level name, shown as itself, and of
    each public method of a top-level class, shown as 'Class.method'."""
    private = [
        (name, name) for name in definitions(tree)
        if name.startswith("_") and not name.startswith("__")
    ]
    public = [
        ("%s.%s" % (cls, node.name), node.name)
        for cls, node in methods(tree)
        if not node.name.startswith("_")
    ]
    return private + public


def attributes(tree) -> list[tuple[str, str]]:
    """(shown, name) of each annotated field of a top-level dataclass and of
    each attribute assigned on self in a method of a top-level class, shown
    as 'Class.name'."""
    found = {
        (cls.name, node.target.id)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }
    found |= {
        (cls, node.attr)
        for cls, method in methods(tree)
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    return [("%s.%s" % pair, pair[1]) for pair in sorted(found)]


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
    """Names the module loads outside their own top-level or method
    definitions; with strings, also every string constant."""
    spans = definitions(tree)
    for _, node in methods(tree):
        spans.setdefault(node.name, []).append((node.lineno, node.end_lineno))
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


def unread(sources: dict[str, str], bench: list[str]) -> list[str]:
    """'module.name' for each exported or private top-level name, and
    'module.Class.name' for each public method and each attribute, that no
    source and no benchmark file reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    seen = set().union(*(reads(tree) for tree in trees.values()))
    # only an attribute load reads an attribute, not a local of its name
    loaded = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    for text in bench:
        named = reads(ast.parse(text), strings=True)
        seen |= named
        loaded |= named
    return sorted(
        ["%s.%s" % (mod, shown)
         for mod, tree in trees.items()
         for shown, name in [(n, n) for n in exported(tree)] + internals(tree)
         if name not in seen]
        + ["%s.%s" % (mod, shown)
           for mod, tree in trees.items()
           for shown, name in attributes(tree)
           if name not in loaded]
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
    assert unread(sources, bench) == ["a.lonely", "a.reexported", "a.selfish", "b.reexported"]
    # an attribute load is a read, and so is a name outside its definition
    sources["b"] += "import a\nprint(a.lonely, a.selfish(2), reexported)\n"
    assert unread(sources, bench) == []
    # a dataclass field and an attribute set on self are read as attributes
    # by name, and a bare name does not read them
    sources["c"] = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass Pair:\n    left: int\n    right: int = 0\n"
        "class Walker:\n"
        "    def __init__(self):\n        self.steps = 0\n        self.spare = []\n"
        "right = spare = 1\nprint(Pair(1).left, Walker().steps, right, spare)\n"
    )
    assert unread(sources, bench) == ["c.Pair.right", "c.Walker.spare"]
    sources["c"] += "print(Pair(2).right, Walker().spare)\n"
    assert unread(sources, bench) == []


def test_scan_finds_unread_internals():
    sources = {
        "a": (
            "_LIMIT = 3\n_SPARE = 4\n__version__ = '1'\n"
            "def _helper():\n    return _LIMIT\n"
            "def _loop(n):\n    return _loop(n - 1) if n else 0\n"
            "class Box:\n"
            "    def __init__(self):\n        self.n = _helper()\n"
            "    def size(self):\n        return self.n\n"
            "    def spare(self, k):\n        return self.spare(k - 1) if k else 0\n"
            "    def traced(self):\n        return 0\n"
            "    def _inner(self):\n        return 1\n"
            "print(Box().size())\n"
        ),
    }
    bench = ["METHODS = [('a', 'Box', 'traced')]\n"]
    # a private method is not scanned
    assert unread(sources, bench) == ["a.Box.spare", "a._SPARE", "a._loop"]


def test_every_export_is_read():
    # exports, private top-level names, public methods and attributes alike
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    bench = [p.read_text(encoding="utf-8") for p in BENCH]
    # a KEPT entry that is read, or no longer defined, is stale
    assert unread(sources, bench) == sorted(KEPT)
