"""The argparse parser of the ``stringhom`` command, as the test oracle of ``cli``.

``build_parser`` and ``_fraction`` are the argparse front end that
``stringhom.cli`` used before it read its command lines against one option
table.  ``parse_args`` adds the two checks that ``cli.main`` makes through
``parser.error``.  A valid command line must give the same namespace here as
in ``cli``, and an invalid one the same exit code and last stderr line.
"""

import argparse
import functools
from fractions import Fraction


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an exact rational number") from None


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


def parse_args(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "dga-homology" and not (args.degree or args.degree_bounds or args.h0):
        parser.error("dga-homology needs --degree, --degree-range or --h0")
    if args.command == "specseq" and args.complex and (args.spec or args.builtin):
        parser.error("specseq --complex excludes --spec and --builtin")
    return args
