"""Command-line front end.

One executable with five subcommands: dga-homology, distinguish, chords,
cord, specseq.  Their options come from one table, ``COMMANDS``, which
``_parse`` reads each command line against.  Results print as plain tables;
each subcommand takes only the ``--json``/``--csv`` flags it writes, and
every run drops a manifest (command, parameters, versions, wall time, output
paths) into the output directory.  Output paths are checked before the work.
Exit codes: 0 ok, 2 invalid length window, usage error or an
output that cannot be written, 3 malformed DGA input, 4 chord search
failure rate over the threshold, 5 cord truncation instability, 6
parameter out of range or not applicable to the input, 7 a failed
convergence check of specseq's E-oo against homology.
Each error exit prints one ``error:`` line on stderr; the mapping is the
``ERRORS`` table.  Only ``chords`` imports numpy.
"""

from __future__ import annotations

import csv
import os
import sys
import time
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

from . import __version__, cord, free_dga, jsonio, specseq

EXIT_OK = 0
EXIT_WINDOW = 2
EXIT_INVALID_DGA = 3
EXIT_CHORD_FAILURES = 4
EXIT_TRUNCATION = 5
EXIT_PARAMETER = 6
EXIT_CHECK_FAILED = 7

# Exception types to (exit code, message prefix); the first match wins.
ERRORS = (
    ((free_dga.WindowCollision,), EXIT_WINDOW, "invalid length window"),
    ((free_dga.InvalidDGA, free_dga.UnknownGenerator), EXIT_INVALID_DGA, "invalid DGA"),
    (
        (free_dga.ParameterOutOfRange, free_dga.NotApplicable, free_dga.GradingViolation,
         cord.CordError, specseq.FilteredComplexError),
        EXIT_PARAMETER,
        "bad parameter",
    ),
    ((specseq.ConvergenceFailure,), EXIT_CHECK_FAILED, "convergence check failed"),
    # Every file the CLI reads goes through ``jsonio.load``, which raises the
    # loader's own error, so an ``OSError`` here comes from writing output.
    ((OSError,), EXIT_WINDOW, "cannot write output"),
)

FAILURE_RATE_THRESHOLD = 0.2
# Largest ``specseq --rmax`` and ``cord --kmax``: each page is one output
# row per cell class, and the cord presentation grows quadratically in kmax.
MAX_RMAX = 1000
MAX_KMAX = 64


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{text!r} is not an exact rational number") from None


# The options of the five subcommands, each stated once.  A row is (flag,
# type, default, help): the type converts the value text, a tuple of names is
# a choice among them and ``bool`` a switch that takes no value.  A fifth
# field, "append" or 2, makes a flag repeatable or take two values; a sixth
# names the namespace attribute when the flag does not.
D = ("--d", int, 2, "spheres of dimension d-1 in R^(2d-1)")
Z2STAR = ("--z2star", _fraction, Fraction(3), "spacing z > 2 of the unlink")
A = ("--a", _fraction, None, "length window bound")
DGA_BUILTIN = ("--builtin", ("hopf", "unlink"), None, "built-in DGA")
SPEC = ("--spec", str, None, "DGA JSON file")
WMAX = ("--wmax", int, 4, "largest word count of the slices")
OUTDIR = ("--outdir", str, None, "manifest/output directory")
JSON = ("--json", str, None, "write JSON result here")
CSV = ("--csv", str, None, "write CSV result here")
# Subcommand: (help, required, options).  Required is a flag that must be
# given, or two flags of which exactly one must be.
COMMANDS = {
    "dga-homology": ("homology dims of a built-in or JSON DGA", (), (
        DGA_BUILTIN, SPEC, D, Z2STAR, A,
        ("--degree", int, None, "degree to compute; repeatable", "append"),
        ("--degree-range", int, None, "degrees LO to HI", 2, "degree_bounds"),
        ("--h0", bool, False, "also degree-0 word-count slices"), WMAX, OUTDIR, JSON, CSV)),
    "distinguish": ("linked vs spaced pair discriminator", ("--d",),
                    (D, Z2STAR, WMAX, OUTDIR, JSON)),
    "chords": ("binormal chord spectrum search", ("--builtin",), (
        ("--builtin", ("hopf", "unlink", "single"), None, "built-in link"), D,
        ("--z2star", float, None, "spacing z > 2 of the unlink"),
        ("--a", float, None, "length bound"), ("--m", int, 1, "also report m-fold sums"),
        ("--circle-seeds", int, 24, "seeds per circle"),
        ("--sphere-seeds", int, 36, "seeds per sphere"), OUTDIR, JSON, CSV)),
    "cord": ("cord algebra slice dimensions", ("--builtin", "--presentation"), (
        ("--builtin", ("unknot", "hopf_link", "unlink2"), None, "built-in presentation"),
        ("--presentation", str, None, "cord presentation JSON file"), WMAX,
        ("--kmax", int, 2, "truncation of the built-in presentation"),
        ("--compare", bool, False, "compare with DGA H_0"), OUTDIR, JSON, CSV)),
    "specseq": ("weight-filtration spectral sequence pages", (), (
        DGA_BUILTIN, SPEC, ("--complex", str, None,
                                 "filtered complex JSON file, instead of a DGA"),
        D, Z2STAR, A, ("--rmax", int, 3, "last page before E-oo"),
        ("--forget-f", bool, False, "stabilization part only"), OUTDIR, CSV)),
}
HELP = ("-h", "--help")


def _outdir(args) -> str:
    return os.path.abspath(args.outdir or os.environ.get("STRINGHOM_OUTDIR") or ".")


def _manifest(args) -> str:
    return os.path.join(_outdir(args), f"manifest_{args.command.replace('-', '_')}.json")


def _check_outputs(args) -> None:
    """Raise, before any work, the ``OSError`` that writing an output would raise.

    Creates nothing: ``--outdir`` is made after the work, so if it is
    missing, its nearest existing ancestor has to be a directory.
    """
    out = ancestor = _outdir(args)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    files = [getattr(args, "json", None), getattr(args, "csv", None)]
    for path in [p for p in files if p] + [_manifest(args)]:
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not os.path.isdir(ancestor if folder == out else folder):
            raise OSError(f"{path} is a directory" if os.path.isdir(path)
                          else f"{path} is not in a directory")


def _write_results(args, result=None, header=None, rows=()) -> None:
    """Write ``result`` to ``--json``, ``header`` and ``rows`` to ``--csv``, then the manifest.

    Each file is written only if its flag is given; a run that stops early
    passes neither ``result`` nor ``header`` and leaves just the manifest.
    """
    os.makedirs(_outdir(args), exist_ok=True)
    outputs = []
    if result is not None and getattr(args, "json", None):
        jsonio.save(args.json, result)
        outputs.append(args.json)
    if header is not None and getattr(args, "csv", None):
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        outputs.append(args.csv)
    versions = {"stringhom": __version__, "python": sys.version.split()[0]}
    if "numpy" in sys.modules:
        versions["numpy"] = sys.modules["numpy"].__version__
    manifest = {
        "command": args.command,
        "parameters": _params(args),
        "versions": versions,
        "wall_time_s": round(time.perf_counter() - args.started, 3),
        "outputs": outputs,
    }
    jsonio.save(_manifest(args), manifest)


def _load_or_build_dga(args) -> free_dga.DGA:
    if getattr(args, "spec", None):
        return free_dga.load_dga(args.spec)
    if args.builtin == "hopf":
        return free_dga.build_hopf(args.d)
    if args.builtin == "unlink":
        return free_dga.build_unlink(args.d, args.z2star)
    raise free_dga.InvalidDGA("need --builtin or --spec")


def _valid_window(dga: free_dga.DGA, base: Fraction) -> free_dga.LengthWindow:
    """Nudge the bound upward in 1/7 steps until it clears the spectrum."""
    a = base
    for _ in range(64):
        window = free_dga.LengthWindow(a)
        try:
            window.ensure_valid(dga)
            return window
        except free_dga.WindowCollision:
            a += Fraction(1, 7)
    raise free_dga.WindowCollision("could not find a valid default window")


def _auto_window(dga: free_dga.DGA) -> free_dga.LengthWindow:
    """Largest generator length plus one half, nudged off the spectrum."""
    top = max((float(g.length) for g in dga.generators), default=1.0)
    return _valid_window(dga, Fraction(int(2 * top) + 1, 2))


def cmd_dga_homology(args) -> int:
    dga = _load_or_build_dga(args)
    window = free_dga.LengthWindow(args.a) if args.a is not None else _auto_window(dga)
    degrees = args.degree if args.degree else []
    if args.degree_bounds:
        lo, hi = args.degree_bounds
        degrees = list(range(lo, hi + 1))
    dims = free_dga.homology_dims_all(dga, window, degrees)
    rows = [(p, dims[p]) for p in degrees]
    result = {
        "dga": dga.name,
        "window": str(window.bound),
        "homology": [{"degree": p, "dim": d} for p, d in rows],
    }
    for p, d in rows:
        print(f"H_{p} (a={window.bound}) dim = {d}")
    if args.h0:
        dims = free_dga.h0_dims_by_wordcount(dga, window, args.wmax)
        result["h0_by_wordcount"] = dims
        print(f"H_0 word-count slices (w=0..{args.wmax}): {dims}")
    _write_results(args, result, ["degree", "dim"], rows)
    return EXIT_OK


def cmd_distinguish(args) -> int:
    d = args.d
    hopf = free_dga.build_hopf(d)
    unlink = free_dga.build_unlink(d, args.z2star)
    if d == 2:
        wh = _valid_window(hopf, Fraction(2 * args.wmax) + Fraction(1, 2))
        wu = _valid_window(unlink, 2 * args.z2star * args.wmax + Fraction(1, 2))
        left = free_dga.h0_dims_by_wordcount(hopf, wh, args.wmax)
        right = free_dga.h0_dims_by_wordcount(unlink, wu, args.wmax)
        verdict = "DISTINCT" if left != right else "SAME"
        where = next((w for w in range(len(left)) if left[w] != right[w]), None)
        print(f"H_0 slices, linked pair:  {left}")
        print(f"H_0 slices, spaced pair:  {right}")
        print(f"verdict: {verdict}" + (f" (first difference at w = {where})" if where is not None else ""))
        result = {"d": d, "hopf": left, "unlink": right, "verdict": verdict}
    else:
        p = 2 * d - 4
        wh = _valid_window(hopf, Fraction(13, 2))
        wu = _valid_window(unlink, 2 * args.z2star + Fraction(1, 2))
        lh = free_dga.homology_dims_all(hopf, wh, [p])[p]
        lu = free_dga.homology_dims_all(unlink, wu, [p])[p]
        verdict = "DISTINCT" if lh != lu else "SAME"
        print(f"degree {p}: linked pair dim = {lh}, spaced pair dim = {lu}")
        print(f"verdict: {verdict}")
        result = {"d": d, "degree": p, "hopf": lh, "unlink": lu, "verdict": verdict}
    _write_results(args, result)
    return EXIT_OK


def cmd_chords(args) -> int:
    from . import chords

    if args.m > 1 and args.a is None:
        raise chords.ParameterOutOfRange("--m above 1 needs a length bound --a")
    if args.builtin == "single":
        manifold = chords.single_sphere(args.d)
    else:
        manifold = chords.builtin_config(args.builtin, args.d, args.z2star)
    cfg = chords.ChordConfig(
        length_bound=args.a,
        seeds_per_circle=args.circle_seeds,
        seeds_per_sphere=args.sphere_seeds,
    )
    diagnostics: dict = {}
    results = chords.find_spectrum(manifold, cfg, diagnostics)
    lengths = [r.length for r in results]
    print("binormal chords:" if args.a is None else f"binormal chords below a={args.a}:")
    for r in results:
        print(
            f"  length {r.length:.9f}  components {r.comp_source}->{r.comp_target}"
            f"  residual {r.residual:.2e}  multiplicity {r.multiplicity}"
        )
    sums = None
    if args.m > 1:
        sums = chords.chord_sum_spectrum(lengths, args.m, args.a)
        print(f"{args.m}-fold sums below a: {[round(s, 9) for s in sums]}")
    if args.a is not None:
        near = []
        for m in range(1, max(2, args.m) + 1):
            # An (m+1)-fold sum is at least the m-fold sum of its m shortest
            # lengths, so once no m-fold sum lies below a + 1, none larger does.
            if not (sums_m := chords.chord_sum_spectrum(lengths, m, args.a + 1.0)):
                break
            near += [s for s in sums_m if abs(s - args.a) < 1e-6]
        if near:
            print(f"warning: window bound {args.a} sits on the length spectrum {near}")
    rate = diagnostics.get("failure_rate", 0.0)
    print(f"seeds {diagnostics.get('seeds', 0)}, failure rate {rate:.3f}")
    report = {
        "config": {"builtin": args.builtin, "d": args.d, "z2star": args.z2star, "a": args.a},
        "chords": [r.as_json_dict() for r in results],
        "diagnostics": dict(diagnostics),
    }
    if sums is not None:
        report["sum_spectrum"] = sums
    _write_results(
        args, report, ["length", "comp_source", "comp_target", "residual", "multiplicity"],
        ([f"{r.length:.12f}", r.comp_source, r.comp_target, f"{r.residual:.3e}", r.multiplicity]
         for r in results),
    )
    if rate > FAILURE_RATE_THRESHOLD:
        print(f"error: failure rate {rate:.3f} exceeds {FAILURE_RATE_THRESHOLD}", file=sys.stderr)
        return EXIT_CHORD_FAILURES
    return EXIT_OK


def cmd_cord(args) -> int:
    if args.presentation:
        pres = cord.load_presentation(args.presentation)
    else:
        pres = cord.builtin_presentation(args.builtin, args.kmax)
    dims = cord.quotient_dims_by_wordcount(pres, args.wmax)
    print(f"cord algebra slices (w=0..{args.wmax}): {dims}")
    if args.presentation:
        # A file has no kmax to vary and no built-in DGA to compare with.
        print("presentation file: kmax truncation check skipped")
        if args.compare:
            print("presentation file: --compare skipped")
    elif not cord.truncation_stable(args.builtin, args.kmax, dims):
        print("error: slice dims unstable under kmax -> kmax+2", file=sys.stderr)
        _write_results(args)
        return EXIT_TRUNCATION
    rows = None
    if args.compare and not args.presentation:
        if args.builtin == "hopf_link":
            dga = free_dga.build_hopf(2)
            window = free_dga.LengthWindow(Fraction(13, 2))
        elif args.builtin == "unlink2":
            dga = free_dga.build_unlink(2, 3)
            window = free_dga.LengthWindow(Fraction(41, 2))
        else:
            dga = None
        if dga is None:
            print("no built-in DGA counterpart; skipping comparison")
        else:
            match, rows = cord.compare_with_h0(dims, dga, window)
            for w, cdim, hdim, ok in rows:
                print(f"  w={w}: cord {cdim}  H_0 {hdim}  {'ok' if ok else 'DIFF'}")
            print("MATCH" if match else "MISMATCH")
    if args.presentation:
        result = {"presentation": args.presentation, "dims": dims}
    else:
        result = {"builtin": args.builtin, "kmax": args.kmax, "dims": dims}
    if rows is None:
        _write_results(args, result, ["w", "cord_dim"], enumerate(dims))
    else:
        result["comparison"] = [
            {"w": r[0], "cord_dim": r[1], "h0_dim": r[2], "match": r[3]} for r in rows
        ]
        _write_results(args, result, ["w", "cord_dim", "h0_dim", "match"],
                       ((w, c, h, int(ok)) for w, c, h, ok in rows))
    return EXIT_OK


def cmd_specseq(args) -> int:
    if args.complex:
        if args.forget_f or args.a is not None:
            raise free_dga.NotApplicable("--forget-f and --a apply to a DGA, not to --complex")
        tables = specseq.pages(specseq.load_complex(args.complex).barcode(), args.rmax)
    else:
        dga = _load_or_build_dga(args)
        if args.forget_f:
            dga = free_dga.forget_F(dga)
        window = free_dga.LengthWindow(args.a) if args.a is not None else _auto_window(dga)
        tables = specseq.pages(specseq.dga_barcode(dga, window), args.rmax)
    # A failed convergence check has raised before anything is written.
    for t in tables[:-1]:
        print(f"page r={t.r}: " + ", ".join(f"E({p},{q})={d}" for p, q, d in t.nonzero()))
    print("page E-inf: " + ", ".join(f"E({p},{q})={d}" for p, q, d in tables[-1].nonzero()))
    print("convergence to total homology: OK")
    _write_results(args, header=["r", "p", "q", "dim"],
                   rows=(["inf" if t.r < 0 else t.r, p, q, d]
                         for t in tables for p, q, d in t.nonzero()))
    return EXIT_OK


def _params(args) -> dict:
    skip = {"started"}
    return {
        k: (str(v) if isinstance(v, Fraction) else v)
        for k, v in vars(args).items()
        if k not in skip
    }


def _is_flag(token: str) -> bool:
    """An option name, not a value: a negative number such as -1 or -3/2 is a value."""
    return token.startswith("-") and token[1:2] not in "0123456789."


def _usage(command) -> str:
    what = f"{command} [-h] [options]" if command else f"[-h] {{{','.join(COMMANDS)}}} ..."
    return f"usage: stringhom {what}"


def _fail(command, message: str):
    """Print the usage and one ``error:`` line on stderr, as argparse did, and exit 2."""
    prog = "stringhom" if command is None else f"stringhom {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _help(command):
    """Print the subcommands, or one subcommand's options, with their help; exit 0."""
    print(_usage(command))
    rows = COMMANDS[command][2] if command else [(k, str, 0, v[0]) for k, v in COMMANDS.items()]
    for flag, kind, _, text, *_ in rows:
        choices = f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else ""
        print(f"  {flag:<15} {text}{choices}")
    raise SystemExit(0)


def _parse(argv) -> SimpleNamespace:
    """The namespace of one command line, read against ``COMMANDS``.

    Takes ``--flag value`` and ``--flag=value``, full flag names only; the
    last value given wins.  A usage error exits 2 through ``_fail``.
    """
    k = next((k for k, t in enumerate(argv) if not _is_flag(t) or t in HELP), len(argv))
    if k == len(argv):
        _fail(None, "the following arguments are required: command")
    extras, command, tokens = list(argv[:k]), argv[k], iter(argv[k + 1:])
    if command in HELP:
        _help(None)
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} (choose from "
              f"{', '.join(map(repr, COMMANDS))})")
    _, required, rows = COMMANDS[command]
    rows, given = {row[0]: row for row in rows}, {}
    for token in tokens:
        if token in HELP:
            _help(command)
        flag, eq, text = token.partition("=")
        if not _is_flag(token) or flag not in rows:
            extras.append(token)
            continue
        kind, how = rows[flag][1], rows[flag][4] if len(rows[flag]) > 4 else None
        if kind is bool and eq:
            _fail(command, f"argument {flag}: ignored explicit argument {text!r}")
        n = 0 if kind is bool else 2 if how == 2 else 1
        texts = [text] if eq else list(islice(tokens, n))
        if len(texts) < n or not eq and any(map(_is_flag, texts)):
            _fail(command, f"argument {flag}: expected "
                  + ("one argument" if n == 1 else "2 arguments"))
        values = [True] if kind is bool else []
        for text in texts:
            if isinstance(kind, tuple) and text not in kind:
                _fail(command, f"argument {flag}: invalid choice: {text!r} "
                      f"(choose from {', '.join(map(repr, kind))})")
            try:
                values.append(text if isinstance(kind, tuple) else kind(text))
            except ValueError as exc:
                _fail(command, f"argument {flag}: " + (
                    str(exc) if kind is _fraction else f"invalid {kind.__name__} value: {text!r}"))
        if len(required) == 2 and flag in required and (
                other := required[required.index(flag) ^ 1]) in given:
            _fail(command, f"argument {flag}: not allowed with argument {other}")
        if how == "append":
            values = given.get(flag, []) + values
        given[flag] = values if how else values[0]
    if required and not given.keys() & set(required):
        _fail(command, f"the following arguments are required: {required[0]}"
              if len(required) == 1 else f"one of the arguments {' '.join(required)} is required")
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=command, **{
        row[5] if len(row) > 5 else flag[2:].replace("-", "_"): given.get(flag, row[2])
        for flag, row in rows.items()})


def main(argv=None) -> int:
    """Run one command line; return its exit code.

    ``main`` can be called repeatedly in one process: each call reads its
    command line into a fresh namespace, and nothing it does stays behind.
    """
    args = _parse(sys.argv[1:] if argv is None else argv)
    args.started = time.perf_counter()
    if args.command == "dga-homology" and not (args.degree or args.degree_bounds or args.h0):
        _fail(None, "dga-homology needs --degree, --degree-range or --h0")
    if args.command == "specseq" and args.complex and (args.spec or args.builtin):
        _fail(None, "specseq --complex excludes --spec and --builtin")
    try:
        if getattr(args, "wmax", 0) < 0:
            raise free_dga.ParameterOutOfRange("wmax must be nonnegative")
        for name in ("m", "rmax"):
            if getattr(args, name, 1) < 1:
                raise free_dga.ParameterOutOfRange(f"{name} must be at least 1")
        for name, cap in (("rmax", MAX_RMAX), ("kmax", MAX_KMAX)):
            if (value := getattr(args, name, 0)) > cap:
                raise free_dga.ParameterOutOfRange(f"{name} {value} is above the cap of {cap}")
        bounds = getattr(args, "degree_bounds", None)
        if bounds and bounds[0] > bounds[1]:
            raise free_dga.ParameterOutOfRange("--degree-range LO HI needs LO <= HI")
        _check_outputs(args)
        # By name, per call: ``COMMANDS`` holds no function object, so a
        # patched ``cmd_*`` module attribute is the one that runs.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except tuple(t for types, _, _ in ERRORS for t in types) as exc:
        code, what = next((c, w) for types, c, w in ERRORS if isinstance(exc, types))
        print(f"error: {what}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
