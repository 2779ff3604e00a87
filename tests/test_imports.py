"""Every name a growthlab module imports is used in that module, apart
from the deliberate re-exports below, and every private module-level
function, class or constant and every private method is referenced
somewhere in the package.  So is every public function, class and
method, apart from the few called from outside it.  No linter
is assumed installed, so the check reads the syntax trees itself.
Modules that load others lazily are pinned by what a bare import
leaves in ``sys.modules``.
No module imports ``dataclasses``: it loads ``inspect``, which costs a
short CLI run a tenth of its wall time."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import growthlab

SRC = Path(growthlab.__file__).parent

# names a module imports only so that callers can import them from it;
# the check asserts equality, so it also fails when these go unreported
RE_EXPORTS = {
    "wordops": {"concat_reduce", "free_key_payload", "invert_word",
                "normalize_pairs", "pow_word", "substitute", "word_length"},
    "spectra": {"cyclotomic", "euler_phi"},
}


def unused_imports(tree) -> set:
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported - used


# public names no growthlab module names: argparse calls the parser's
# error method, and perfbench/checks.py reads spectral_radius; asserted
# by equality, like RE_EXPORTS
CALLED_FROM_OUTSIDE = {"error", "spectral_radius"}


def callable_definitions(tree) -> set:
    """Module-level functions and classes, and the methods of
    module-level classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


def private_definitions(tree) -> set:
    """Module-level functions, classes and constants, and the methods of
    module-level classes, named _private (not dunder)."""
    names = callable_definitions(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def referenced_names(tree) -> set:
    """Names read, attributes accessed and names imported in a module;
    a name that is only assigned is not referenced."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def imported_modules(tree) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module.split(".")[0])
    return out


def test_no_unused_imports_in_src():
    found = {}
    dataclass_users = []
    private = {}
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = unused_imports(tree)
        if names:
            found[path.stem] = names
        if "dataclasses" in imported_modules(tree):
            dataclass_users.append(path.stem)
        for name in private_definitions(tree):
            private[name] = path.stem
        referenced |= referenced_names(tree)
    assert found == RE_EXPORTS
    assert dataclass_users == []
    # a private helper nothing in the package names is dead code
    assert {n: m for n, m in private.items() if n not in referenced} == {}


def test_public_names_are_used_in_src():
    public = set()
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        public |= {n for n in callable_definitions(tree) if not n.startswith("_")}
        referenced |= referenced_names(tree)
    # a public name only the tests call belongs in tests/util.py
    assert public - referenced == CALLED_FROM_OUTSIDE


def test_private_definition_finder():
    tree = ast.parse(
        "_LIMIT = 1\n"
        "_DEAD: int = 2\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._x = self._used(_LIMIT)\n"
        "    def _used(self, n):\n"
        "        return n\n"
        "    def _dead_method(self):\n"
        "        return 0\n"
        "def _helper():\n"
        "    pass\n")
    assert callable_definitions(tree) == {
        "A", "__init__", "_used", "_dead_method", "_helper"}
    private = private_definitions(tree)
    assert private == {"_LIMIT", "_DEAD", "_used", "_dead_method", "_helper"}
    # assigning _DEAD and self._x does not count as a reference
    assert private - referenced_names(tree) == {"_DEAD", "_dead_method", "_helper"}


@functools.cache
def loaded_modules(statement: str = "") -> frozenset:
    """``sys.modules`` after `statement` runs in a fresh interpreter."""
    script = f"{statement}\nimport sys\nprint(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


def test_witness_import_loads_no_polynomial_modules():
    # spectra and laurent are imported inside the witness functions that
    # use them, so a free-base search never compiles either module
    loaded = loaded_modules("import growthlab.witness")
    assert not loaded & {"growthlab.spectra", "growthlab.laurent"}


def test_free_base_searches_load_no_polynomial_modules():
    # a periodic-class scan and an analysis over the torus engine decide
    # the return periods with _exact alone, so the cli pcc and witness
    # runs over a free base compile neither module
    loaded = loaded_modules(
        "from growthlab.engines import FreeEngine, SemidirectEngine\n"
        "from growthlab.witness import analyze, pcc_scan\n"
        "eng = SemidirectEngine(FreeEngine(2), {'x': 'y', 'y': 'x y'},\n"
        "                       {'x': 'y x^-1', 'y': 'x'})\n"
        "assert pcc_scan(eng, 8, 4).certificate.n == 2\n"
        "assert analyze(eng, ['t', 'x', 'y'], 3.0, 2).variant == 'NonCyclicPair'")
    assert not loaded & {"growthlab.spectra", "growthlab.laurent"}


@pytest.mark.parametrize("module", ["cli", "growth", "witness", "spectra",
                                    "laurent"])
def test_bare_import_loads_neither_dataclasses_nor_inspect(module):
    added = loaded_modules(f"import growthlab.{module}") - loaded_modules()
    assert not added & {"dataclasses", "inspect"}
    if module == "cli":
        # every library module is imported inside the subcommand that runs it
        assert {m for m in added if m.startswith("growthlab")} == {
            "growthlab", "growthlab.cli"}
