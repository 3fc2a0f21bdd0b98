"""The package needs nothing at run time beyond the standard library and numpy.

Every import statement of every module under ``src/stringhom`` is read
with ``ast`` (function-level imports included): each must name the
standard library, ``stringhom`` itself (relative imports too) or numpy,
and numpy may appear only in ``chords``.  None may be ``dataclasses`` or
``typing``, and a fresh ``python -S`` that imports ``stringhom.cli`` loads
neither of them nor ``inspect``.

Every top-level function or class and every non-dunder method defined
there must also be named somewhere under ``src/`` outside its own
definition, a method through an attribute access ``x.name``, or be listed
in ``UNUSED_IN_SRC`` with the reason it stays.
"""

import ast
import subprocess
import sys
from collections import Counter
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


def test_no_dataclasses_or_typing_under_src():
    # Each costs start-up: dataclasses pulls in inspect and compiles methods
    # per class, and typing takes milliseconds to import on its own.
    for path in sorted(PACKAGE.glob("*.py")):
        assert not imported_roots(path) & {"dataclasses", "typing"}, path.name


STARTUP = """
import sys
sys.path.insert(0, sys.argv[1])
import stringhom.cli
print(sorted(m for m in ("dataclasses", "inspect", "typing") if m in sys.modules))
sys.path.append(sys.argv[2])
from stringhom import chords
print("dataclasses" in sys.modules)
"""


def test_cli_starts_without_dataclasses_inspect_or_typing():
    # -S keeps site-packages (and any .pth file that imports typing) out; numpy's
    # directory is put on the path only after the CLI import.
    import numpy

    site = str(Path(numpy.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", STARTUP, str(PACKAGE.parent), site],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "False"]


# Definitions under src/stringhom that nothing under src/ names, with the reason.
UNUSED_IN_SRC = {
    "cli.cmd_dga_homology": "dispatched by name from the subcommand in cli.main",
    "cli.cmd_distinguish": "dispatched by name from the subcommand in cli.main",
    "cli.cmd_chords": "dispatched by name from the subcommand in cli.main",
    "cli.cmd_cord": "dispatched by name from the subcommand in cli.main",
    "cli.cmd_specseq": "dispatched by name from the subcommand in cli.main",
    "free_dga.save_dga": "writes the README's DGA input files",
    "specseq.save_complex": "writes the README's filtered-complex input files",
    "cord.save_presentation": "writes the README's presentation input files",
    "specseq.from_dga": "the README's weight-filtered complex of a DGA; perfbench traces it",
    "free_dga.LengthWindow.realizable_sums": "the spectrum that perfbench draws bounds from",
    "exactlin.Subspace": "perfbench's tracer patches its methods by name; "
    "tests/page_oracle.py builds pages with it",
    "exactlin.Subspace.contains": "perfbench's tracer patches it by name",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of every top-level def and non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _names_used(tree: ast.AST, attributes_only: bool = False) -> Counter:
    """Names read, looked up as attributes or imported in ``tree``, with counts.

    With ``attributes_only``, only attribute look-ups ``x.name`` count.
    """
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.alias):
            used[node.name] += 1
    return used


def test_every_definition_is_used_or_listed():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((_names_used(t) for t in trees.values()), Counter())
    attributes = sum((_names_used(t, True) for t in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            qualified = f"{module}.{name}"
            # A method is used only through an attribute access ``x.name``, so
            # a local or a function of the same name does not keep it alive.
            method = "." in name
            counts = attributes if method else everywhere
            # Uses inside the definition itself (recursion) do not count.
            used = counts[node.name] > _names_used(node, method)[node.name]
            if not used and qualified not in UNUSED_IN_SRC:
                dead.append(qualified)
            elif used and qualified in UNUSED_IN_SRC:
                dead.append(f"{qualified} is used; drop it from UNUSED_IN_SRC")
    assert not dead, dead
    defined = {f"{m}.{n}" for m, t in trees.items() for n, _ in _definitions(t)}
    assert set(UNUSED_IN_SRC) <= defined
