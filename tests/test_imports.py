"""Every name a growthlab module imports is used in that module, apart
from the deliberate re-exports below.  No linter is assumed installed,
so the check reads the syntax trees itself."""

import ast
from pathlib import Path

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


def test_no_unused_imports_in_src():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        names = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            found[path.stem] = names
    assert found == RE_EXPORTS
