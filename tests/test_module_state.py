"""No module of horolab keeps state that a run can change.

The scan fails on a `global` statement in a module of src/horolab, and on a
module-level numpy array that is still writable after import; an array
constant is made read-only where it is defined. A name kept for another
reason is listed in KEPT with that reason, as 'module.name'. Only the
standard library's ast and importlib, and numpy, are needed.
"""

import ast
import importlib
import pathlib
import types

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# __main__ runs the command line when imported
SOURCES = [p for p in sorted((ROOT / "src" / "horolab").glob("*.py")) if p.stem != "__main__"]

# module-level state kept, each with its reason
KEPT: dict[str, str] = {
    "groups._enumerated_words": "the process-wide count of words formed, which "
    "run manifests report and perfbench's WordMeter reads between operations, "
    "until the count moves into a run context (ROADMAP item 8)",
}


def global_names(source: str) -> list[str]:
    """The names that `global` statements of the source declare."""
    return sorted({
        name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
        for name in node.names
    })


def writable_arrays(module) -> list[str]:
    """The module's top-level names bound to a writable numpy array."""
    return sorted(
        name for name, value in vars(module).items()
        if isinstance(value, np.ndarray) and value.flags.writeable
    )


def test_scans_find_module_state():
    source = "n = 0\ndef bump():\n    global n, m\n    n += 1\n"
    assert global_names(source) == ["m", "n"]
    module = types.ModuleType("fake")
    module.grid = np.arange(3.0)
    module.frozen = np.arange(3.0)
    module.frozen.flags.writeable = False
    assert writable_arrays(module) == ["grid"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_declares_no_globals(path):
    names = global_names(path.read_text(encoding="utf-8"))
    assert [n for n in names if "%s.%s" % (path.stem, n) not in KEPT] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_arrays_are_read_only(path):
    module = importlib.import_module("horolab." + path.stem if path.stem != "__init__" else "horolab")
    names = writable_arrays(module)
    assert [n for n in names if "%s.%s" % (path.stem, n) not in KEPT] == []
