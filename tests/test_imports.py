"""Every name a growthlab module imports is used in that module, apart
from the deliberate re-exports below, and every private module-level
function, class or constant and every private method is used somewhere
in the package.  So is every public function, class and method, apart
from the few called from outside it.  A use is counted, not a spelling:
a method is used only through an attribute access, a function or class
through its name or an attribute, and neither counts inside a function
of the same name (recursion, or a method calling the same method of
another object) or as an import alias (a re-export).  No linter is
assumed installed, so the check reads the syntax trees itself.
Modules that load others lazily are pinned by what a bare import
leaves in ``sys.modules``.
No module imports ``dataclasses``: it loads ``inspect``, which costs a
short CLI run a tenth of its wall time."""

import ast
import functools
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import growthlab

from util import code_lines

SRC = Path(growthlab.__file__).parent

# names a module imports only so that callers can import them from it;
# the check asserts equality, so it also fails when these go unreported
RE_EXPORTS = {
    "wordops": {"concat_reduce", "free_key_payload", "invert_word",
                "pow_word", "substitute"},
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


# public names the package never uses, asserted by equality like
# RE_EXPORTS: argparse calls the parser's error method; perfbench reads
# canonical_key, spectral_radius, is_cyclic_pair and divides (its check
# of a Delta against the relators; a benchmark change may delete or move
# them); tests rebuild the declared automorphism maps for
# reference_auto_power from spec_dict, which a rebuild from the engine's
# levels would turn into a check of level +-1 against itself; tests
# check the errors of parse_group_spec, the validation that
# build_engine runs on the whole spec before it builds
CALLED_FROM_OUTSIDE = {"error", "canonical_key", "spectral_radius",
                       "is_cyclic_pair", "divides", "spec_dict",
                       "parse_group_spec"}


def callable_definitions(tree) -> dict:
    """Module-level functions and classes, and the methods of
    module-level classes, each name mapped to whether it is only a
    method."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = False
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.setdefault(item.name, True)
    return names


def private_definitions(tree) -> dict:
    """``callable_definitions`` and the module-level constants, only the
    names that are _private (not dunder)."""
    names = callable_definitions(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update((t.id, False) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names[node.target.id] = False
    return {n: m for n, m in names.items()
            if n.startswith("_") and not n.startswith("__")}


def references(tree):
    """(names read, attributes accessed) in a module, each outside every
    function of the same name; assignments and import aliases are not
    references."""
    loaded, attributes = set(), set()

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef):
            for child in node.decorator_list + [node.args]:
                visit(child, inside)
            for child in node.body:
                visit(child, inside | {node.name})
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            attributes.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return loaded, attributes


def unused(definitions: dict, loaded: set, attributes: set) -> set:
    """The defined names with no use: a method needs an attribute access,
    anything else its name read or an attribute access."""
    return {n for n, method in definitions.items()
            if n not in attributes and (method or n not in loaded)}


def package_references():
    loaded, attributes = set(), set()
    for path in sorted(SRC.glob("*.py")):
        names, attrs = references(ast.parse(path.read_text(encoding="utf-8")))
        loaded |= names
        attributes |= attrs
    return loaded, attributes


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
    home = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = unused_imports(tree)
        if names:
            found[path.stem] = names
        if "dataclasses" in imported_modules(tree):
            dataclass_users.append(path.stem)
        for name, method in private_definitions(tree).items():
            private[name] = private.get(name, True) and method
            home[name] = path.stem
    assert found == RE_EXPORTS
    assert dataclass_users == []
    # a private helper nothing in the package uses is dead code
    dead = unused(private, *package_references())
    assert {n: home[n] for n in dead} == {}


def test_public_names_are_used_in_src():
    public = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, method in callable_definitions(tree).items():
            if not name.startswith("_"):
                public[name] = public.get(name, True) and method
    # a public name only the tests call belongs in tests/util.py
    assert unused(public, *package_references()) == CALLED_FROM_OUTSIDE


def test_private_definition_finder():
    tree = ast.parse(
        "from elsewhere import _reexported\n"
        "_LIMIT = 1\n"
        "_DEAD: int = 2\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._x = self._used(_LIMIT)\n"
        "    def _used(self, n):\n"
        "        return n\n"
        "    def _dead_method(self):\n"
        "        return 0\n"
        "    def _spelled(self, other):\n"
        "        return other._spelled()\n"
        "def _helper(n):\n"
        "    return _helper(n - 1) if n else _spelled\n"
        "class B:\n"
        "    def length(self):\n"
        "        return 0\n"
        "def rescale(x, length):\n"
        "    return x ** (1 / length)\n")
    assert callable_definitions(tree) == {
        "A": False, "B": False, "rescale": False, "__init__": True,
        "_used": True, "_dead_method": True, "_spelled": True,
        "_helper": False, "length": True}
    private = private_definitions(tree)
    assert private == {"_LIMIT": False, "_DEAD": False, "_used": True,
                       "_dead_method": True, "_spelled": True, "_helper": False}
    loaded, attributes = references(tree)
    # the alias of a re-export is no use of it
    assert "_reexported" not in loaded
    # assigning _DEAD and self._x is no use; _spelled calls only the
    # method of its own name and is read only as a plain name, which
    # does not reach a method; _helper only calls itself
    assert unused(private, loaded, attributes) == {
        "_DEAD", "_dead_method", "_spelled", "_helper"}
    # a parameter spelled like a method is no use of the method
    assert "length" in loaded
    assert unused({"length": True}, loaded, attributes) == {"length"}


def is_family_read(node) -> bool:
    """An attribute named ``family``, a ``.get("family")`` call or a
    ``["family"]`` subscript."""
    def is_key(arg):
        return isinstance(arg, ast.Constant) and arg.value == "family"

    if isinstance(node, ast.Attribute):
        return node.attr == "family"
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Attribute) and node.func.attr == "get"
                and bool(node.args) and is_key(node.args[0]))
    return isinstance(node, ast.Subscript) and is_key(node.slice)


def family_comparisons(tree, skip=()) -> set:
    """(function, operand) for each operand that a family is compared
    with, outside the functions in `skip`: a family is a family read
    (``is_family_read``) or a name bound to one."""
    aliases = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and is_family_read(node.value)
               for t in node.targets if isinstance(t, ast.Name)}

    def is_family(node):
        return (is_family_read(node)
                or isinstance(node, ast.Name) and node.id in aliases)

    found = set()

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            if node.name in skip:
                return
            where = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_family, operands)):
                found.update((where, ast.unparse(o)) for o in operands if not is_family(o))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_family_comparison_finder():
    tree = ast.parse(
        "def guard(engine):\n"
        "    return engine.family != 'semidirect'\n"
        "def branch(engine):\n"
        "    fam = engine.base.family\n"
        "    return fam == 'abelian' or engine.base.family in TABLE\n"
        "def lookup(engine):\n"
        "    return TABLE[engine.base.family]\n"
        "def parse(obj, spec):\n"
        "    family = obj.get('family')\n"
        "    return family in KNOWN or spec['family'] == 'free' or obj.get('rank') == 1\n"
        "def read(spec):\n"
        "    return TABLE.get(spec.get('family')) is None\n")
    assert family_comparisons(tree) == {
        ("guard", "'semidirect'"), ("branch", "'abelian'"), ("branch", "TABLE"),
        ("parse", "KNOWN"), ("parse", "'free'")}
    assert family_comparisons(tree, skip={"branch", "parse"}) == {
        ("guard", "'semidirect'")}


def test_witness_search_tests_no_family():
    # what the search knows about a base is its row of witness._BASES, so
    # outside pcc_scan a family is compared only in the input guards
    tree = ast.parse((SRC / "witness.py").read_text(encoding="utf-8"))
    assert {other for _, other in family_comparisons(tree, skip={"pcc_scan"})} == {
        "'semidirect'"}


def test_one_square_and_multiply_loop():
    # engine, word and matrix powers all call growthlab.binary_power, so
    # the package halves an exponent in one place
    halvings = [path.stem for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)]
    assert halvings == ["__init__"]


def test_level_at_is_one_binary_power():
    # a far level costs the bits of k: level_at calls binary_power and
    # has no loop of its own, such as a walk from the nearest level
    tree = ast.parse((SRC / "engines.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef)
               and n.name == "SemidirectEngine")
    level_at = next(n for n in cls.body if isinstance(n, ast.FunctionDef)
                    and n.name == "level_at")
    nodes = list(ast.walk(level_at))
    assert not [n for n in nodes if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert "binary_power" in {n.func.id for n in nodes
                              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def unit_expansions(tree) -> set:
    """The functions that repeat a sequence display by an ``abs(...)``
    count, the shape of spelling a run g^e as |e| unit letters."""
    def by_abs(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "abs")

    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            found.update(fn.name for n in ast.walk(fn)
                         if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                         and any(isinstance(a, (ast.List, ast.Tuple)) and by_abs(b)
                                 for a, b in ((n.left, n.right), (n.right, n.left))))
    return found


def test_unit_expansion_finder():
    tree = ast.parse(
        "def flat_to_units(flat):\n"
        "    units = []\n"
        "    for i in range(0, len(flat), 2):\n"
        "        units.extend([flat[i] + 1] * abs(flat[i + 1]))\n"
        "    return units\n"
        "def spelled(g, e):\n"
        "    return abs(e) * (g,)\n"
        "def zeros(n, e):\n"
        "    return [0] * n, (1,) * e\n")
    assert unit_expansions(tree) == {"flat_to_units", "spelled"}


def test_no_unit_letter_expansion_in_src():
    # free words stay runs everywhere in the package: conjugacy cuts
    # cores at run ends, and the one spelling left is a rewritten
    # relator printed under laurent.MAX_PRINTED_LETTERS
    found = {path.stem: unit_expansions(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert {m: names for m, names in found.items() if names} == {"laurent": {"format"}}


def test_engines_dispatch_on_no_family():
    # each family's facts sit on its class, which engines._FAMILIES finds
    # by name, so parsing and building make one lookup, and a split
    # extension prints its base by the key "base", not by its family
    tree = ast.parse((SRC / "engines.py").read_text(encoding="utf-8"))
    assert family_comparisons(tree) == set()


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


# one of each kind of line: 14 lines, 7 of them code
CODE_LINES_SNIPPET = '''\
"""A module docstring."""

# a comment
import os


def f(x):
    """A docstring
    on two lines."""
    y = max(x,  # a call over two lines
            1)
    text = """a string in an expression,
    over two lines"""
    return f"{y} {text!r}"
'''


def test_code_lines_counts_by_the_tokenizer_rule(tmp_path):
    # blank, comment and docstring lines are not code; each line of a
    # call or of a string inside an expression is
    path = tmp_path / "snippet.py"
    path.write_text(CODE_LINES_SNIPPET, encoding="utf-8")
    assert code_lines(path) == 7


def perfbench_tracing():
    """``perfbench/tracing.py``, loaded by its path: the names it wraps."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_sit_where_the_benchmark_reads_them():
    # the benchmark's tracer reads each engine method off its class's own
    # __dict__, so a method moved up to _EngineBase ends a --trace run in
    # a KeyError; it rewraps Word.parse as a staticmethod; and it wraps a
    # wordops function only when the function's home is a kernel module,
    # so an alias defined elsewhere, say pow_word, would read 0 calls
    from growthlab import engines, wordops
    from growthlab.words import Word

    tracing = perfbench_tracing()
    for cls_name in tracing.ENGINE_CLASSES.values():
        own = vars(getattr(engines, cls_name))
        assert {m for m in tracing.ENGINE_METHODS if m not in own} == set(), cls_name
    assert "auto_power" in vars(engines.SemidirectEngine)
    assert isinstance(vars(Word)["parse"], staticmethod)
    assert wordops.pow_word.__module__ == "growthlab._purewords"
    kernel = {name: fn.__module__ for name, fn in vars(wordops).items()
              if inspect.isfunction(fn)}
    assert {n for n, home in kernel.items() if home not in tracing.KERNEL_HOMES} == set()
    assert set(kernel) == RE_EXPORTS["wordops"]
