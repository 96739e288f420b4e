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
class's kind.

Every option is set by some run: an optional parameter of a top-level
function, or of a method of a top-level class, counts as set when a call in
src/horolab or perfbench/ to a function, method or class of that name (by
bare name or as an attribute) passes it by position or by keyword, or passes
*args or **kwargs. A call that passes a parameter through with its own
default counts as setting it. Dataclass fields are out of the scan's reach:
their __init__ is not written out, so they are not scanned.

Every default is used by some run: an optional parameter counts as used
when a call of that name leaves it out, or passes *args or **kwargs, which
may leave it out. A parameter that every call passes could be required.

A name, option or default kept for another reason is listed in KEPT with
that reason, an option as 'module.function(parameter)' and a default as
'module.function(parameter=)'. Only the standard library's ast is needed.
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
    # public entry points whose default only outside callers use
    "cli.parse_config_text(source=)": "a config text read from no file, named "
    "'<config>' in its errors",
    "geometry.same_leaf(tol=)": "the public leaf test at its documented "
    "tolerance; hamenstadt_distance passes its own",
    "groups.parse_group_text(name=)": "a group text read from no file, named "
    "in no error",
    "groups.FuchsianGroup.__init__(name=)": "a group built from its letters "
    "in a script, which needs no name",
    "io.line_plot_svg(title=)": "a plot of a series that carries no "
    "experiment id",
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


def _options(node, skip):
    """(position among the arguments a call passes, or None for a keyword-only
    parameter; name) of each optional parameter of a def, whose first skip
    positional parameters a call does not pass."""
    a = node.args
    pos = a.posonlyargs + a.args
    out = [(i - skip, x.arg) for i, x in enumerate(pos) if i >= len(pos) - len(a.defaults)]
    return out + [(None, x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def options(tree) -> list[tuple[str, str, int | None, str]]:
    """(shown, callee, position, parameter) of each optional parameter of a
    top-level function or of a method of a top-level class; the callee is the
    name a call uses, the class's own for __init__."""
    out = [
        (node.name, node.name, i, p)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for i, p in _options(node, 0)
    ]
    for cls, m in methods(tree):
        static = any(ast.unparse(d) == "staticmethod" for d in m.decorator_list)
        callee = cls if m.name == "__init__" else m.name
        out += [("%s.%s" % (cls, m.name), callee, i, p) for i, p in _options(m, 0 if static else 1)]
    return out


def spread(call) -> bool:
    """Whether the call passes *args or **kwargs."""
    return any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)


def sets(call, position, param) -> bool:
    """Whether the call passes the parameter, or may through *args/**kwargs."""
    if spread(call) or (position is not None and len(call.args) > position):
        return True
    return any(k.arg == param for k in call.keywords)


def leaves(call, position, param) -> bool:
    """Whether the call leaves the parameter to its default, or may through
    *args/**kwargs."""
    return spread(call) or not sets(call, position, param)


def scan(sources: dict[str, str], bench: list[str], found, shown: str) -> list[str]:
    """shown % (module, function, parameter) for each optional parameter
    for which found(call, position, parameter) holds for no call in the
    sources or the benchmark files."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    calls = {}
    for tree in list(trees.values()) + [ast.parse(text) for text in bench]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return sorted(
        shown % (mod, function, param)
        for mod, tree in trees.items()
        for function, callee, position, param in options(tree)
        if not any(found(c, position, param) for c in calls.get(callee, ()))
    )


def unset(sources: dict[str, str], bench: list[str]) -> list[str]:
    """'module.function(parameter)' for each optional parameter that no call
    in the sources or the benchmark files sets."""
    return scan(sources, bench, sets, "%s.%s(%s)")


def unused_defaults(sources: dict[str, str], bench: list[str]) -> list[str]:
    """'module.function(parameter=)' for each optional parameter whose
    default no call in the sources or the benchmark files leaves it at."""
    return scan(sources, bench, leaves, "%s.%s(%s=)")


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


def test_scan_finds_unset_options():
    sources = {
        "a": (
            "def fit(xs, step=0.5, *, window=None):\n    return xs\n"
            "def plot(xs, title='t'):\n    return xs\n"
            "class Box:\n"
            "    def __init__(self, n, label='box'):\n        self.n = n\n"
            "    def grow(self, k=1, *, by=2):\n        return k\n"
            "    @staticmethod\n    def make(n=3):\n        return n\n"
            "def _nested():\n    def inner(q=1):\n        return q\n    return inner()\n"
            "print(fit([1], 0.25), plot([1]), Box(1).grow(), Box.make())\n"
        ),
    }
    bench = ["import a\na.Box(2, 'b').grow(by=3)\n"]
    # a nested def is not scanned; a method call by position skips self
    assert unset(sources, bench) == [
        "a.Box.grow(k)", "a.Box.make(n)", "a.fit(window)", "a.plot(title)"
    ]
    sources["a"] += "args = ([1],)\nplot(*args)\nfit([1], **{})\nBox(0).grow(2)\nBox.make(n=4)\n"
    assert unset(sources, bench) == []


def test_scan_finds_unused_defaults():
    sources = {
        "a": (
            "def fit(xs, step=0.5, *, window=None):\n    return xs\n"
            "def plot(xs, title='t'):\n    return xs\n"
            "def lonely(q=1):\n    return q\n"
            "class Box:\n"
            "    def __init__(self, n, label='box'):\n        self.n = n\n"
            "    def grow(self, k=1, *, by=2):\n        return k\n"
            "print(fit([1], 0.25, window=2), plot([1], 'p'), Box(1, 'b').grow(by=3))\n"
        ),
    }
    bench = ["import a\na.Box(2, label='c').grow(4)\n"]
    # a def that nothing calls uses none of its defaults
    assert unused_defaults(sources, bench) == [
        "a.Box.__init__(label=)", "a.fit(step=)", "a.fit(window=)", "a.lonely(q=)", "a.plot(title=)"
    ]
    # a call that leaves a parameter out uses its default, and one that
    # spreads *args or **kwargs may
    sources["a"] += "args = ([1],)\nplot(*args)\nfit([1], **{})\nBox(0)\nlonely()\n"
    assert unused_defaults(sources, bench) == []


def _kept(kind: str) -> list[str]:
    """The KEPT entries of one kind: an option ('...(parameter)'), a default
    ('...(parameter=)') or a name (any other)."""
    def of(k):
        return "default" if k.endswith("=)") else "option" if k.endswith(")") else "name"

    return sorted(k for k in KEPT if of(k) == kind)


def test_every_export_is_read():
    # exports, private top-level names, public methods and attributes alike
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    bench = [p.read_text(encoding="utf-8") for p in BENCH]
    # a KEPT entry that is read, or no longer defined, is stale
    assert unread(sources, bench) == _kept("name")


def test_every_option_is_set():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    bench = [p.read_text(encoding="utf-8") for p in BENCH]
    # a KEPT option that some call sets, or that is gone, is stale
    assert unset(sources, bench) == _kept("option")


def test_every_default_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    bench = [p.read_text(encoding="utf-8") for p in BENCH]
    # a KEPT default that some call leaves in place, or that is gone, is stale
    assert unused_defaults(sources, bench) == _kept("default")
