"""Workloads of the stringhom benchmark: seeded inputs, command lists, digests.

A workload is a fixed list of ``stringhom.cli.main`` argument vectors.  The
seed drives only the generated inputs:

* each built-in DGA is written as a ``--spec`` file after a seeded
  permutation of its generators and a relabelling to fixed-width ids, which
  changes the monomial order (and so every elimination order) but no
  dimension;
* each window bound ``--a`` is a rational drawn inside the same gap of the
  realizable length spectrum as the reference bound, computed exactly from
  ``LengthWindow.realizable_sums``, so the window holds the same words;
* each chord bound ``--a`` is drawn inside a gap of the chord length and
  two-fold sum spectrum, so the reported chords and sums are unchanged.

Outputs are therefore independent of the seed and one reference table
(``reference.json``) serves every seed.  ``digest`` reduces a command's
``--json``/``--csv`` output to the part that the reference fixes.
"""

from __future__ import annotations

import csv
import json
import os
import random
from fractions import Fraction

from stringhom import free_dga
from stringhom.lengths import Surd

WORKLOADS = ("homology", "specseq", "chords")

# Subcommand -> per-subcommand time group reported by the benchmark.
GROUPS = {
    "dga-homology": "dga_homology_s",
    "distinguish": "degree0_s",
    "cord": "degree0_s",
    "specseq": "specseq_s",
    "chords": "chords_s",
}

FLOAT_TOL = 1e-8

# Reference window bounds; a seed moves each one inside its spectrum gap.
HOPF_HOMOLOGY_A = Fraction(11, 2)  # gap (5, 6): 24,757 words
UNLINK_HOMOLOGY_A = Fraction(23, 2)  # gap (4+2*sqrt(13), 8+sqrt(13)): 17,501 words
HOPF_SPECSEQ_A = Fraction(9, 2)  # gap (4, 5): 3,229 cells
UNLINK_SPECSEQ_A = Fraction(19, 2)  # gap (2+2*sqrt(13), 6+sqrt(13)): 2,717 cells
UNLINK_MAX_DEGREE = 10  # highest populated degree of unlink(2, 3) below 23/2

# Chord bounds: (low, high) open intervals free of chord lengths and of
# two-fold sums.  hopf: lengths {1, 2, 3}, sums {2, 3, ...}; unlink z = 3:
# lengths {2, 3, sqrt(13)}, sums {4, 5, ...}.
HOPF_CHORD_GAP = (3.0, 4.0)
UNLINK_CHORD_GAP = (4.0, 5.0)


def relabelled(dga: free_dga.DGA, rng: random.Random) -> free_dga.DGA:
    """Same algebra with generators permuted and renamed ``g00``, ``g01``..."""
    order = list(dga.generators)
    rng.shuffle(order)
    new_id = {g.id: f"g{k:02d}" for k, g in enumerate(order)}
    gens = [
        free_dga.Generator(new_id[g.id], g.degree, g.length, g.weight) for g in order
    ]
    diff = {
        new_id[gid]: free_dga.AlgebraElement(
            {tuple(new_id[x] for x in w): c for w, c in img.terms.items()}
        )
        for gid, img in dga.diff.items()
    }
    return free_dga.DGA(gens, diff, name=dga.name)


def spectrum_gap(dga: free_dga.DGA, ref: Fraction) -> tuple[Surd, Surd]:
    """Exact neighbours (lo, hi) of ``ref`` in the realizable length spectrum."""
    point = Surd.of(ref)
    sums = free_dga.LengthWindow(ref).realizable_sums(dga)
    below = [s for s in sums if s < point]
    above = [s for s in sums if s > point]
    if not below or not above or len(below) + len(above) != len(sums):
        raise ValueError(f"reference bound {ref} is not inside a spectrum gap")
    return max(below, key=float), min(above, key=float)


def bound_in_gap(dga: free_dga.DGA, ref: Fraction, rng: random.Random) -> Fraction:
    """A rational bound drawn in the open gap around ``ref``, checked exactly."""
    lo, hi = spectrum_gap(dga, ref)
    t = Fraction(rng.randint(5, 95), 100)
    a = Fraction(float(lo) + (float(hi) - float(lo)) * t).limit_denominator(1000)
    if not (lo < Surd.of(a) < hi):
        raise ValueError(f"drawn bound {a} left the gap ({lo}, {hi})")
    free_dga.LengthWindow(a).ensure_valid(dga)
    return a


def _chord_bound(gap: tuple[float, float], rng: random.Random) -> str:
    lo, hi = gap
    return f"{lo + (hi - lo) * rng.randint(10, 90) / 100:.3f}"


def _spec(dga: free_dga.DGA, rng: random.Random, path: str) -> str:
    free_dga.save_dga(relabelled(dga, rng), path)
    return path


def commands(workload: str, seed: int, indir: str) -> list[dict]:
    """Generate the seeded inputs under ``indir`` and return the command list.

    Each command is ``{"key", "argv", "out"}``: ``key`` names its reference
    entry and ``out`` is the ``--json``/``--csv`` file name the command
    writes, relative to the pass's output directory.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    cmds: list[dict] = []

    def add(key: str, argv: list[str], out: str) -> None:
        flag = "--csv" if out.endswith(".csv") else "--json"
        cmds.append({"key": key, "argv": argv + [flag, out], "out": out})

    if workload in ("homology", "specseq"):
        hopf = free_dga.build_hopf(2)
        unlink = free_dga.build_unlink(2, 3)
        hopf_spec = _spec(hopf, rng, os.path.join(indir, "hopf2.json"))
        unlink_spec = _spec(unlink, rng, os.path.join(indir, "unlink2_3.json"))

    if workload == "homology":
        a = bound_in_gap(hopf, HOPF_HOMOLOGY_A, rng)
        add("hopf2_homology", ["dga-homology", "--spec", hopf_spec, "--a", str(a),
                               "--degree-range", "0", "6", "--h0", "--wmax", "4"],
            "hopf2_homology.json")
        a = bound_in_gap(unlink, UNLINK_HOMOLOGY_A, rng)
        add("unlink23_homology", ["dga-homology", "--spec", unlink_spec, "--a", str(a),
                                  "--degree-range", "0", str(UNLINK_MAX_DEGREE)],
            "unlink23_homology.json")
        for d in (2, 3, 4):
            add(f"distinguish_d{d}", ["distinguish", "--d", str(d)], f"distinguish_d{d}.json")
        for name in ("hopf_link", "unlink2"):
            add(f"cord_{name}", ["cord", "--builtin", name, "--wmax", "4", "--compare"],
                f"cord_{name}.json")
    elif workload == "specseq":
        a = bound_in_gap(hopf, HOPF_SPECSEQ_A, rng)
        add("hopf2_specseq", ["specseq", "--spec", hopf_spec, "--a", str(a), "--rmax", "3"],
            "hopf2_specseq.csv")
        a = bound_in_gap(unlink, UNLINK_SPECSEQ_A, rng)
        add("unlink23_specseq", ["specseq", "--spec", unlink_spec, "--a", str(a),
                                 "--rmax", "3"],
            "unlink23_specseq.csv")
    else:
        runs = (("hopf_d2", "hopf", 2, HOPF_CHORD_GAP),
                ("unlink_d2", "unlink", 2, UNLINK_CHORD_GAP),
                ("hopf_d3", "hopf", 3, HOPF_CHORD_GAP))
        for key, builtin, d, gap in runs:
            argv = ["chords", "--builtin", builtin, "--d", str(d), "--m", "2",
                    "--a", _chord_bound(gap, rng)]
            if builtin == "unlink":
                argv += ["--z2star", "3"]
            add(key, argv, f"{key}.json")
    return cmds


def digest(argv: list[str], path: str):
    """The part of a command's output that the reference table fixes."""
    sub = argv[0]
    if sub == "specseq":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["r", "p", "q", "dim"]:
            raise ValueError(f"unexpected specseq CSV header {rows[0]}")
        return [[r, int(p), int(q), int(dim)] for r, p, q, dim in rows[1:]]
    with open(path) as fh:
        data = json.load(fh)
    if sub == "dga-homology":
        return {
            "homology": {str(row["degree"]): row["dim"] for row in data["homology"]},
            "h0_by_wordcount": data.get("h0_by_wordcount"),
        }
    if sub == "distinguish":
        return data
    if sub == "cord":
        return {"dims": data["dims"], "comparison": data.get("comparison")}
    if sub == "chords":
        return {
            "chords": [[c["length"], c["components"]] for c in data["chords"]],
            "sum_spectrum": data.get("sum_spectrum"),
        }
    raise ValueError(f"no digest for subcommand {sub!r}")


def matches(got, want) -> bool:
    """Exact equality, except floats, which agree to ``FLOAT_TOL``."""
    if isinstance(want, float) or isinstance(got, float):
        return (
            isinstance(got, (int, float)) and isinstance(want, (int, float))
            and abs(got - want) <= FLOAT_TOL
        )
    if isinstance(want, dict):
        return (
            isinstance(got, dict) and got.keys() == want.keys()
            and all(matches(got[k], want[k]) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list) and len(got) == len(want)
            and all(matches(g, w) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want
