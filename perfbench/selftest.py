"""Self-tests of the benchmark itself.

Usage, from the root of a source checkout (takes about two minutes):

    python3 perfbench/selftest.py

Checks that
* every generated bound lies in its reference spectrum gap and passes
  ``LengthWindow.ensure_valid``, and that the seed changes the inputs;
* two seeds give outputs identical to each other and to the reference;
* a corrupted reference entry fails exactly its command, and corrupting
  every entry drives the failed ratio to 1;
* traced outputs equal untraced ones, traced counts repeat exactly, and
  ``Tracer.uninstall`` restores every original function and method.
"""

from __future__ import annotations

import copy
import importlib
import inspect
import json
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import run


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def check_bounds(tmp: Path) -> None:
    from stringhom import free_dga
    import workloads

    refs = {
        "hopf2_homology": workloads.HOPF_HOMOLOGY_A,
        "unlink23_homology": workloads.UNLINK_HOMOLOGY_A,
        "hopf2_specseq": workloads.HOPF_SPECSEQ_A,
        "unlink23_specseq": workloads.UNLINK_SPECSEQ_A,
    }
    specs, bad = set(), []
    for seed in range(20):
        for workload in ("homology", "specseq"):
            indir = Path(tempfile.mkdtemp(dir=tmp))
            for cmd in workloads.commands(workload, seed, str(indir)):
                if cmd["key"] not in refs:
                    continue
                ref = refs[cmd["key"]]
                argv = cmd["argv"]
                spec = argv[argv.index("--spec") + 1]
                a = Fraction(argv[argv.index("--a") + 1])
                dga = free_dga.load_dga(spec)
                free_dga.LengthWindow(a).ensure_valid(dga)
                if workloads.spectrum_gap(dga, a) != workloads.spectrum_gap(dga, ref):
                    bad.append((seed, cmd["key"], a))
                specs.add(Path(spec).read_text())
    check(not bad, f"generated bounds of 20 seeds pass ensure_valid inside the reference gaps {bad}")
    check(len(specs) > 20, "the seed changes the generated DGA specs")


def check_seeds_and_reference(tmp: Path) -> dict:
    import workloads

    reference = json.loads(run.REFERENCE.read_text())
    passes = {}
    for workload in workloads.WORKLOADS:
        got = []
        for seed in (1, 2):
            cmds = workloads.commands(workload, seed, str(tmp))
            got.append(run.run_pass(cmds, tmp, False, time.perf_counter() + 600))
        a, b = ([r["digest"] for r in g["runs"]] for g in got)
        check(a == b, f"{workload}: seeds 1 and 2 give identical outputs")
        check(run.failures(got[0], reference[workload]) == 0, f"{workload}: outputs match the reference")
        passes[workload] = got[0]
    return passes


def check_corruption(passes: dict) -> None:
    reference = json.loads(run.REFERENCE.read_text())
    result = passes["homology"]
    bad = copy.deepcopy(reference["homology"])
    bad["hopf2_homology"]["homology"]["3"] += 1
    check(run.failures(result, bad) == 1, "one corrupted reference entry fails its command")
    bad = {key: {"corrupted": True} for key in reference["homology"]}
    n = len(result["runs"])
    check(run.failures(result, bad) / n == 1.0, "corrupting every entry drives failed_ratio to 1")


def check_tracing(tmp: Path) -> None:
    from tracer import LAYERS, Tracer

    cmds = [
        {"key": "h", "out": "h.json",
         "argv": ["dga-homology", "--builtin", "hopf", "--a", "9/2", "--degree-range", "0", "4",
                  "--h0", "--json", "h.json"]},
        {"key": "s", "out": "s.csv",
         "argv": ["specseq", "--builtin", "hopf", "--a", "7/2", "--rmax", "2", "--csv", "s.csv"]},
        {"key": "c", "out": "c.json",
         "argv": ["chords", "--builtin", "single", "--d", "2", "--json", "c.json"]},
        {"key": "k", "out": "k.json",
         "argv": ["cord", "--builtin", "hopf_link", "--compare", "--json", "k.json"]},
    ]
    deadline = time.perf_counter() + 600
    base = run.run_pass(cmds, tmp, False, deadline)
    traced = [run.run_pass(cmds, tmp, True, deadline) for _ in range(2)]
    digests = [[r["digest"] for r in p["runs"]] for p in [base] + traced]
    check(all(r["rc"] == 0 for p in [base] + traced for r in p["runs"]), "traced commands succeed")
    check(digests[0] == digests[1] == digests[2], "traced outputs equal untraced outputs")
    first, second = (p["layers"] for p in traced)
    counts = [k for k in first if not k.endswith("_s")]
    check(all(first[k] == second[k] for k in counts), "traced counts repeat exactly")
    check(all(first[f"{layer}.calls"] > 0 for layer in LAYERS), "every layer is traced")

    def snapshot():
        out = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"stringhom.{layer}")
            for name, obj in vars(mod).items():
                out[(layer, name)] = obj
                if inspect.isclass(obj):
                    for attr, raw in vars(obj).items():
                        out[(layer, name, attr)] = raw
        return out

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    patched = sum(1 for k, v in snapshot().items() if before.get(k) is not v)
    tracer.uninstall()
    after = snapshot()
    check(patched > 0 and all(after[k] is before[k] for k in before),
          f"uninstall restores all {patched} wrapped functions and methods")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        check_bounds(tmp)
        check_tracing(tmp)
        check_corruption(check_seeds_and_reference(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
