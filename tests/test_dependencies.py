"""The package needs nothing at run time beyond the standard library and numpy.

Every import statement of every module under ``src/stringhom`` is read
with ``ast`` (function-level imports included): each must name the
standard library, ``stringhom`` itself (relative imports too) or numpy,
and numpy may appear only in ``chords``.
"""

import ast
import sys
from pathlib import Path

import stringhom

PACKAGE = Path(stringhom.__file__).parent


def imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("stringhom" if node.level else node.module.partition(".")[0])
    return roots


def test_imports_are_stdlib_stringhom_or_numpy_in_chords():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.stem for p in modules} >= {"chords", "cli", "free_dga", "specseq"}
    for path in modules:
        allowed = set(sys.stdlib_module_names) | {"stringhom"}
        if path.stem == "chords":
            allowed.add("numpy")
        assert imported_roots(path) <= allowed, path.name


def test_numpy_is_imported_by_chords():
    assert "numpy" in imported_roots(PACKAGE / "chords.py")
