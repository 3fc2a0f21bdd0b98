"""The package needs nothing at run time beyond the standard library and numpy.

Every import statement of every module under ``src/stringhom`` is read
with ``ast`` (function-level imports included): each must name the
standard library, ``stringhom`` itself (relative imports too) or numpy,
and numpy may appear only in ``chords``.  None may be ``dataclasses`` or
``typing``, and a fresh ``python -S`` that imports ``stringhom.cli`` loads
neither of them nor ``inspect``.  Running the exact subcommands there loads
none of ``argparse``, ``gettext`` and ``locale``, and a ``chords`` run does
not load ``numpy.ma``.

Every top-level function or class and every non-dunder method defined
there must also be named somewhere under ``src/`` outside its own
definition, a method through an attribute access ``x.name``, or be listed
in ``UNUSED_IN_SRC`` with the reason it stays.  A method name defined on
k classes must be read k times, less its listed definitions: one read of
``x.dim`` keeps one ``dim`` alive, not two.  Every parameter that a
call under ``src/`` gives must take two values there, or be listed in
``ONE_VALUE_IN_SRC``: a parameter only tests set is a constant.
"""

import ast
import json
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


# Runs the commands of argv[3] through cli.main in one fresh interpreter, then
# prints which of the modules of argv[4] it loaded.
RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[2])
from stringhom import cli
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in json.loads(sys.argv[4]) if m in sys.modules))
"""


def _loaded_by(commands, modules, tmp_path):
    import numpy

    site = str(Path(numpy.__file__).parents[1])
    commands = [argv + ["--outdir", str(tmp_path)] for argv in commands]
    proc = subprocess.run([sys.executable, "-S", "-c", RUN, str(PACKAGE.parent), site,
                           json.dumps(commands), json.dumps(modules)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_exact_commands_start_without_argparse_gettext_or_locale(tmp_path):
    # argparse imports gettext, whose first message lookup imports locale:
    # together about 3 ms of every fresh run's first command.
    commands = [["dga-homology", "--builtin", "hopf", "--a", "3.5", "--degree", "0"],
                ["specseq", "--builtin", "hopf", "--a", "3.5", "--rmax", "1"],
                ["cord", "--builtin", "hopf_link", "--wmax", "2"]]
    assert _loaded_by(commands, ["argparse", "gettext", "locale"], tmp_path) == "[]"


def test_chords_run_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call, about 17 ms.
    commands = [["chords", "--builtin", "hopf", "--a", "3.5", "--m", "2"]]
    assert _loaded_by(commands, ["numpy", "numpy.ma"], tmp_path) == "['numpy']"


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
    # Classes defining each method name, and how many of those are listed.
    defined_on = Counter(name.partition(".")[2] for tree in trees.values()
                         for name, _ in _definitions(tree) if "." in name)
    listed = Counter(q.rpartition(".")[2] for q in UNUSED_IN_SRC if q.count(".") == 2)
    dead = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            qualified = f"{module}.{name}"
            # A method is used only through an attribute access ``x.name``, so
            # a local or a function of the same name does not keep it alive.
            method = "." in name
            counts = attributes if method else everywhere
            # The reads a listed definition would need to leave the list.
            needed = (defined_on[node.name] - listed[node.name] + (qualified in UNUSED_IN_SRC)
                      if method else 1)
            # Uses inside the definition itself (recursion) do not count.
            used = counts[node.name] - _names_used(node, method)[node.name] >= needed
            if not used and qualified not in UNUSED_IN_SRC:
                dead.append(qualified)
            elif used and qualified in UNUSED_IN_SRC:
                dead.append(f"{qualified} is used; drop it from UNUSED_IN_SRC")
    assert not dead, dead
    defined = {f"{m}.{n}" for m, t in trees.items() for n, _ in _definitions(t)}
    assert set(UNUSED_IN_SRC) <= defined


# Parameters of functions under src/stringhom that every call under src/
# leaves at one value, with the reason each stays.
ONE_VALUE_IN_SRC = {
    "cli.main.argv": "the perfbench client and the tests pass the command line",
}


def _functions(tree: ast.Module, module: str):
    """(qualified name, def, leading parameters a call does not pass) of every def.

    Nested defs count.  Methods drop ``self`` or ``cls``; a class is called
    through its ``__init__`` or ``__new__``.
    """
    def walk(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                yield f"{prefix}{node.name}", node, int(in_class and not static)
                yield from walk(node.body, f"{prefix}{node.name}.", False)

    yield from walk(tree.body, f"{module}.", False)


def _call_name(call: ast.Call):
    """(callee name, positional arguments) of ``call``; ``partial(f, ...)`` calls f."""
    func, args = call.func, call.args
    if isinstance(func, ast.Name) and func.id == "partial" and args:
        func, args = args[0], args[1:]
    if isinstance(func, ast.Name):
        return func.id, args
    if isinstance(func, ast.Attribute) and not func.attr.startswith("__"):
        return func.attr, args
    return None, args


def _parameter_values(trees: dict) -> dict[str, set]:
    """Per parameter with a call under src/, the values those calls give it.

    A call is matched to every def of its name (a class by its name).  A
    value is the ``ast.dump`` of a literal argument, or of the default
    where the argument is left out; any other argument, or a call with
    ``*args`` or ``**kwargs``, may vary and adds ``None``.
    """
    defs: dict[str, list] = {}
    for module, tree in trees.items():
        for qualified, node, skip in _functions(tree, module):
            parts = qualified.split(".")
            name = parts[-2] if parts[-1] in ("__init__", "__new__") else parts[-1]
            defs.setdefault(name, []).append((qualified, node, skip))
    values: dict[str, set] = {}
    for tree in trees.values():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name, args = _call_name(call)
            for qualified, node, skip in defs.get(name, ()):
                a = node.args
                positional = (a.posonlyargs + a.args)[skip:]
                given = {p.arg: v for p, v in zip(positional, args)}
                given.update((k.arg, k.value) for k in call.keywords if k.arg)
                defaults = dict(zip([p.arg for p in a.posonlyargs + a.args][::-1],
                                    a.defaults[::-1]))
                defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d)
                starred = any(isinstance(v, ast.Starred) for v in args) or any(
                    k.arg is None for k in call.keywords)
                for p in positional + a.kwonlyargs:
                    if starred:
                        value = None
                    elif p.arg in given:
                        value = given[p.arg] if _is_literal(given[p.arg]) else None
                    else:
                        value = defaults.get(p.arg)
                    values.setdefault(f"{qualified}.{p.arg}", set()).add(
                        value if value is None else ast.dump(value))
    return values


def _is_literal(node: ast.AST) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def test_every_parameter_takes_two_values_in_src():
    # A parameter that every call under src/ leaves at its default, or sets
    # to one and the same literal, is set to anything else only by tests:
    # with one value in use, that value is a constant of the function.
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    fixed = {param for param, seen in _parameter_values(trees).items()
             if len(seen) == 1 and None not in seen}
    assert fixed <= set(ONE_VALUE_IN_SRC), sorted(fixed - set(ONE_VALUE_IN_SRC))
    assert set(ONE_VALUE_IN_SRC) <= fixed, "a listed parameter takes two values; unlist it"
