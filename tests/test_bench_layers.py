"""The benchmark's hold on the library: wrapped names and the in-process workloads.

`bench/run.py --trace 1` rebinds every `(module, attr)` in `bench/layers.py`'s
`WRAPPED`. Renaming or deleting one of those functions would only show up in
a traced bench run, so this test reads the list and checks each name here.
The in-process workloads in `bench/workloads.py` also call the library's
constructors and read result fields (`bit_budget(...).payload_bits`,
`CaptureConfig(layer_mode=...)`, `label_components(c).count`, `SliceSpec(...)`);
one setup and two operations of each must pass the workload's own check.
A module may import a name it never uses only when `WRAPPED` lists it for
that module, every module-level private name and every field of a private
NamedTuple or dataclass must be read somewhere in the package, and so
must every public function, class and method but a
listed few that only tests and the benchmark read: with no linter at hand,
`ast` scans stand in for one.
"""

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import sliceseg

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(sliceseg.__file__).resolve().parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WRAPPED = _load("layers").WRAPPED


def test_wrapped_list_is_not_empty():
    assert len(WRAPPED) > 0


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _, _ in WRAPPED], ids=lambda x: getattr(x, "__name__", x)
)
def test_wrapped_name_resolves_to_a_callable(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"


@pytest.mark.parametrize("name", ["plan-suite", "bulk-codec", "loss-report"])
def test_in_process_workload_runs_and_checks(name, tmp_path):
    workload = _load("workloads").make(name, tmp_path)
    state = workload.setup(1)
    first = workload.operate(state)
    second = workload.operate(state)
    assert workload.check(state, second, first) == []


def unused_imports(source: str) -> set[str]:
    """Names the module's imports bind that it never reads; names in `__all__` count as read."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ]:
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_unused_imports_finds_names_bound_and_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport numpy as np\n"
        "from .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f(x: d) -> None:\n    np.zeros(1)\n"
    )
    assert unused_imports(source) == {"os", "b"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_unused_imports_are_wrapped_names(path):
    module = "sliceseg" if path.stem == "__init__" else f"sliceseg.{path.stem}"
    wrapped = {attr for m, attr, _, _ in WRAPPED if m.__name__ == module}
    stray = unused_imports(path.read_text()) - wrapped
    assert not stray, f"{module} imports {sorted(stray)} and never uses them"


def unused_private_names(sources: list[str]) -> set[str]:
    """Module-level `_name`s the sources define that none of them reads.

    A `def`, `class` or assignment at module level whose name starts with
    one underscore is read when any source loads it as a name, reads it as
    an attribute or imports it.
    """
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return {name for name in defined if name.startswith("_") and name[1:2] != "_"} - read


def test_unused_private_names_finds_helpers_no_code_reads():
    module = (
        "import m\n"
        "__all__ = []\n_A = 1\n_B: int = 2\n_C = 3\n"
        "def _used() -> int:\n    return _A + m._attr\n"
        "def _dead():\n    _local = 4\n"
        "class _Gone:\n    def _method(self):\n        pass\n"
        "def public():\n    return _used()\n"
        "_attr = 5\n"
    )
    assert unused_private_names([module]) == {"_B", "_C", "_dead", "_Gone"}
    assert unused_private_names([module, "from .a import _B, _C as c\n"]) == {"_dead", "_Gone"}


def test_every_private_name_in_src_is_read():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    unused = unused_private_names(sources)
    assert not unused, f"sliceseg defines {sorted(unused)} and never reads them"


def unread_private_fields(sources: list[str]) -> set[str]:
    """`_Class.field`s of private NamedTuples and dataclasses that no source reads.

    A module-level class whose name starts with one underscore and that
    derives from `NamedTuple` or is decorated with `dataclass` declares its
    fields as annotated names in its body; a field is read when any source
    reads it as an attribute.
    """

    def name(node) -> str:
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")

    fields, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if (isinstance(node, ast.ClassDef) and node.name.startswith("_")
                    and node.name[1:2] != "_"
                    and ("NamedTuple" in map(name, node.bases)
                         or "dataclass" in map(name, node.decorator_list))):
                fields |= {(node.name, n.target.id) for n in node.body
                           if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return {f"{cls}.{field}" for cls, field in fields if field not in read}


def test_unread_private_fields_finds_fields_no_code_reads():
    module = (
        "import dataclasses\nfrom typing import NamedTuple\n"
        "class _Pair(NamedTuple):\n    first: int\n    second: int\n    UNTYPED = 0\n"
        "@dataclasses.dataclass(frozen=True)\nclass _Box:\n    lo: int\n    hi: int\n"
        "@dataclass\nclass _Plain:\n    size: int\n"
        "class _Other:\n    loose: int\n"
        "class Public(NamedTuple):\n    open: int\n"
        "def use(p, b):\n    b.hi = 1\n    return p.first + b.lo\n"
    )
    assert unread_private_fields([module]) == {"_Pair.second", "_Box.hi", "_Plain.size"}
    assert unread_private_fields([module, "def f(p):\n    return p.second\n"]) == {
        "_Box.hi", "_Plain.size"
    }


def test_every_private_field_in_src_is_read():
    unread = unread_private_fields([path.read_text() for path in sorted(SRC.glob("*.py"))])
    assert not unread, f"sliceseg stores {sorted(unread)} and never reads them"


def unread_public_names(sources: dict[str, str]) -> set[str]:
    """Public module-level functions and classes, and public methods, that no code reads.

    `sources` maps module names to their text. A function or class is read
    when a module loads its name (or the name it imports it as) or reads it
    as an attribute, a method when a module reads it as an attribute.
    Importing a name does not read it.
    Reads inside the definition itself do not count, and neither does
    `__init__`, which only re-exports.
    """

    def reads(node) -> tuple[Counter, Counter]:
        names, attributes = Counter(), Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                attributes[sub.attr] += 1
        for sub in ast.walk(node):
            if isinstance(sub, ast.alias) and sub.asname:
                names[sub.name] += names[sub.asname]
        return names, attributes

    definitions, names, attributes = [], Counter(), Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((node, True))
            if isinstance(node, ast.ClassDef):
                definitions += [(n, False) for n in node.body if isinstance(n, ast.FunctionDef)]
        if module != "__init__":
            module_names, module_attributes = reads(tree)
            names, attributes = names + module_names, attributes + module_attributes
    unread = set()
    for node, module_level in definitions:
        if node.name.startswith("_"):
            continue
        own_names, own_attributes = reads(node)
        outside = attributes[node.name] - own_attributes[node.name]
        if module_level:
            outside += names[node.name] - own_names[node.name]
        if outside <= 0:
            unread.add(node.name)
    return unread


def test_unread_public_names_finds_definitions_only_they_or_the_reexport_read():
    sources = {
        "__init__": "from .a import gone, kept, Shape\n__all__ = ['gone', 'kept', 'Shape']\n",
        "a": (
            "def gone(n):\n    return gone(n - 1)\n"
            "def kept():\n    return 1\n"
            "def _private():\n    return 2\n"
            "class Shape:\n"
            "    def area(self):\n        return self.side()\n"
            "    def side(self):\n        return Shape\n"
            "    def unused(self):\n        return 3\n"
            "    def __len__(self):\n        return 0\n"
            "class Lonely:\n    pass\n"
            "def bound():\n    pass\n"
        ),
        "b": (
            "from . import a\nfrom .a import bound, kept as renamed  # noqa: F401\n"
            "def user(s):\n    return a.Shape, s.area(), renamed\n"
        ),
    }
    assert unread_public_names(sources) == {"gone", "unused", "Lonely", "bound", "user"}


# Public names that nothing in the package reads (tests and the benchmark do).
# The list may only shrink: a name that gains a reader must leave it.
UNREAD_PUBLIC = {
    "extract_range",
    "remove_range",
    "best_plane",
    "plan_loss",
    "same_points",
}


def test_every_public_name_in_src_is_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_public_names(sources) == UNREAD_PUBLIC
