"""Command-line front end.

One executable with five subcommands: dga-homology, distinguish, chords,
cord, specseq.  Results print as plain tables; each subcommand takes only
the ``--json``/``--csv`` flags it writes, and every run drops a manifest
(command, parameters, versions, wall time, output paths) into the output
directory.  Exit codes: 0 ok, 2 invalid length window, usage error or an
output that cannot be written, 3 malformed DGA input, 4 chord search
failure rate over the threshold, 5 cord truncation instability, 6
parameter out of range or not applicable to the input, 7 a failed
convergence check of specseq's E-oo against homology.
Each error exit prints one ``error:`` line on stderr; the mapping is the
``ERRORS`` table.  Only ``chords`` imports numpy.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import time
from fractions import Fraction

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
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an exact rational number") from None


def _outdir(args) -> str:
    out = args.outdir or os.environ.get("STRINGHOM_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_results(args, result=None, header=None, rows=()) -> None:
    """Write ``result`` to ``--json``, ``header`` and ``rows`` to ``--csv``, then the manifest.

    Each file is written only if its flag is given; a run that stops early
    passes neither ``result`` nor ``header`` and leaves just the manifest.
    """
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
    jsonio.save(os.path.join(_outdir(args), f"manifest_{args.command.replace('-', '_')}.json"),
                manifest)


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
        lh = free_dga.homology_dim(hopf, p, wh)
        lu = free_dga.homology_dim(unlink, p, wu)
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
        tables = specseq.complex_pages(specseq.load_complex(args.complex), args.rmax)
    else:
        dga = _load_or_build_dga(args)
        if args.forget_f:
            dga = free_dga.forget_F(dga)
        window = free_dga.LengthWindow(args.a) if args.a is not None else _auto_window(dga)
        tables = specseq.dga_pages(dga, window, args.rmax)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringhom",
        description="Homology of length-filtered link algebras, chord spectra, "
        "spectral sequences and cord algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *formats):
        p.add_argument("--outdir", default=None, help="manifest/output directory")
        for fmt in formats:
            p.add_argument(f"--{fmt}", default=None, help=f"write {fmt.upper()} result here")

    p = sub.add_parser("dga-homology", help="homology dims of a built-in or JSON DGA")
    p.add_argument("--builtin", choices=["hopf", "unlink"])
    p.add_argument("--spec", help="DGA JSON file")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--z2star", type=_fraction, default=Fraction(3))
    p.add_argument("--a", type=_fraction, default=None, help="length window bound")
    p.add_argument("--degree", type=int, action="append", help="degree to compute")
    p.add_argument("--degree-range", type=int, nargs=2, metavar=("LO", "HI"),
                   dest="degree_bounds")
    p.add_argument("--h0", action="store_true", help="also degree-0 word-count slices")
    p.add_argument("--wmax", type=int, default=4)
    common(p, "json", "csv")

    p = sub.add_parser("distinguish", help="linked vs spaced pair discriminator")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--z2star", type=_fraction, default=Fraction(3))
    p.add_argument("--wmax", type=int, default=4)
    common(p, "json")

    p = sub.add_parser("chords", help="binormal chord spectrum search")
    p.add_argument("--builtin", choices=["hopf", "unlink", "single"], required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--z2star", type=float, default=None)
    p.add_argument("--a", type=float, default=None, help="length bound")
    p.add_argument("--m", type=int, default=1, help="also report m-fold sums")
    p.add_argument("--circle-seeds", type=int, default=24)
    p.add_argument("--sphere-seeds", type=int, default=36)
    common(p, "json", "csv")

    p = sub.add_parser("cord", help="cord algebra slice dimensions")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", choices=["unknot", "hopf_link", "unlink2"])
    source.add_argument("--presentation", help="cord presentation JSON file")
    p.add_argument("--wmax", type=int, default=4)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--compare", action="store_true", help="compare with DGA H_0")
    common(p, "json", "csv")

    p = sub.add_parser("specseq", help="weight-filtration spectral sequence pages")
    p.add_argument("--builtin", choices=["hopf", "unlink"])
    p.add_argument("--spec", help="DGA JSON file")
    p.add_argument("--complex", help="filtered complex JSON file, instead of a DGA")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--z2star", type=_fraction, default=Fraction(3))
    p.add_argument("--a", type=_fraction, default=None)
    p.add_argument("--rmax", type=int, default=3)
    p.add_argument("--forget-f", action="store_true", help="stabilization part only")
    common(p, "csv")

    return parser


def main(argv=None) -> int:
    """Run one command line; return its exit code.

    ``main`` can be called repeatedly in one process: every call shares the
    one cached parser, and ``parse_args`` gives each call a fresh namespace.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    if args.command == "dga-homology" and not (args.degree or args.degree_bounds or args.h0):
        parser.error("dga-homology needs --degree, --degree-range or --h0")
    if args.command == "specseq" and args.complex and (args.spec or args.builtin):
        parser.error("specseq --complex excludes --spec and --builtin")
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
        # By name, per call: the cached parser holds no function object, so a
        # patched ``cmd_*`` module attribute is the one that runs.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except tuple(t for types, _, _ in ERRORS for t in types) as exc:
        code, what = next((c, w) for types, c, w in ERRORS if isinstance(exc, types))
        print(f"error: {what}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
