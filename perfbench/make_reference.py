"""Rebuild ``reference.json``, the exact outputs every benchmark run is checked against.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py

Runs each workload once at seed 0, checks the values the paper states
(degree-0 slices ``[1,2,2,2,2]`` against ``[1,2,4,8,16]``, the degree
``2d-4`` discriminator 2 against 4, the cord cross-checks and the chord
spectra ``{1, 2, 3}`` and ``{2, 3, sqrt(13)}``), and writes the table.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run


def paper_checks(ref: dict) -> None:
    h = ref["homology"]
    if h["hopf2_homology"]["h0_by_wordcount"] != [1, 2, 2, 2, 2]:
        raise SystemExit("hopf(2) degree-0 slices differ from [1,2,2,2,2]")
    d2 = h["distinguish_d2"]
    if d2["hopf"] != [1, 2, 2, 2, 2] or d2["unlink"] != [1, 2, 4, 8, 16]:
        raise SystemExit("d=2 discriminator slices differ from the paper")
    for d in (3, 4):
        got = h[f"distinguish_d{d}"]
        if (got["hopf"], got["unlink"], got["verdict"]) != (2, 4, "DISTINCT"):
            raise SystemExit(f"d={d} discriminator differs from 2 vs 4")
    for name in ("cord_hopf_link", "cord_unlink2"):
        if not all(row["match"] for row in h[name]["comparison"]):
            raise SystemExit(f"{name}: cord slices disagree with H_0")
    spectra = {"hopf_d2": [1, 2, 3], "unlink_d2": [2, 3, math.sqrt(13)], "hopf_d3": [1, 2, 3]}
    for key, want in spectra.items():
        got = [length for length, _ in ref["chords"][key]["chords"]]
        if len(got) != len(want) or any(abs(g - w) > 1e-8 for g, w in zip(got, want)):
            raise SystemExit(f"{key}: chord spectrum {got} differs from {want}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS, commands

    ref: dict = {}
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for workload in WORKLOADS:
            result = run.run_pass(
                commands(workload, 0, tmp), Path(tmp), False,
                time.perf_counter() + 3600,
            )
            for r in result["runs"]:
                if r["rc"] != 0 or r["digest"] is None:
                    raise SystemExit(f"{r['key']} failed: {r['stderr_tail']}")
            ref[workload] = {r["key"]: r["digest"] for r in result["runs"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    paper_checks(ref)
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
