"""Benchmark of the stringhom command line, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: a fresh interpreter
(``client.py``) imports ``stringhom.cli`` from ``src/`` and runs the
workload's command list through ``stringhom.cli.main``, one command after
the other, in one thread (the BLAS/OpenMP thread variables are 1).  Every
output is checked against ``reference.json``; a command that exits nonzero
or whose output differs counts as failed.

``--trace 0`` repeats the pass in new processes until ``--seconds`` would be
exceeded (at least once) and reports medians over passes: ``wall_s`` and
``cpu_s`` of the command list, ``peak_rss_mb`` of the client, and
``setup_s``, the import of ``stringhom.cli``, over at least
``SETUP_SAMPLES`` fresh processes.

``--trace 1`` runs one untraced pass and two traced passes (see
``tracer.py``).  Traced outputs must equal the untraced ones and the counts
of the two traced passes must be identical, or the run is not correct.  It
reports the per-layer metrics, the untraced per-subcommand wall times
(``cmd.*``) and ``trace.overhead_ratio``, traced over untraced wall time.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count commands.  The line before it records the machine and run
facts.  Inputs, outputs and manifests go to a temporary directory inside
the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
SETUP_SAMPLES = 7
# A run must end within 180 s; no client may outlive this budget.
RUN_BUDGET_S = 170.0


class PassError(RuntimeError):
    pass


def run_pass(commands: list[dict], tmp: Path, trace: bool, deadline: float) -> dict:
    """Run the command list once in a fresh client; return its result record.

    Each command record gains ``digest``: its output reduced for comparison,
    or None when the output is missing or unreadable.
    """
    from workloads import digest

    outdir = Path(tempfile.mkdtemp(prefix="pass-", dir=tmp))
    argvs = [
        c["argv"][:-1] + [str(outdir / c["out"]), "--outdir", str(outdir)] for c in commands
    ]
    job, result_path = outdir / "job.json", outdir / "result.json"
    job.write_text(json.dumps({"commands": argvs, "trace": trace}))
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise PassError("run budget exhausted before the pass started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "client.py"), str(SRC), str(job), str(result_path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"client exceeded the run budget: {exc}") from None
    if proc.returncode != 0 or not result_path.exists():
        raise PassError(f"client exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    for cmd, run in zip(commands, result["runs"]):
        run["key"] = cmd["key"]
        run["sub"] = cmd["argv"][0]
        try:
            run["digest"] = digest(cmd["argv"], str(outdir / cmd["out"]))
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            run["digest"] = None
    return result


def failures(result: dict, reference: dict) -> int:
    """Commands of one pass that exited nonzero or differ from the reference."""
    from workloads import matches

    bad = 0
    for run in result["runs"]:
        want = reference.get(run["key"])
        ok = run["rc"] == 0 and want is not None and run["digest"] is not None
        bad += not (ok and matches(run["digest"], want))
    return bad


def group_times(result: dict) -> dict[str, float]:
    """Wall seconds summed per subcommand group (``cmd.dga_homology_s``, ...)."""
    from workloads import GROUPS

    out = {f"cmd.{g}": 0.0 for g in sorted(set(GROUPS.values()))}
    for run in result["runs"]:
        out[f"cmd.{GROUPS[run['sub']]}"] += run["wall_s"]
    return out


def pass_wall(result: dict) -> float:
    return sum(r["wall_s"] for r in result["runs"])


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run facts with sample counts)."""
    from workloads import commands

    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    reference = json.loads(REFERENCE.read_text())[workload]
    indir = Path(tempfile.mkdtemp(prefix="inputs-", dir=tmp))
    cmds = commands(workload, seed, str(indir))
    attempted = failed = 0
    correct = True

    def score(result: dict) -> None:
        nonlocal attempted, failed
        attempted += len(result["runs"])
        failed += failures(result, reference)

    if not trace:
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(cmds, tmp, False, deadline))
            score(passes[-1])
            elapsed = time.perf_counter() - t0
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        setup = [p["setup_s"] for p in passes]
        while len(setup) < SETUP_SAMPLES:
            setup.append(run_pass([], tmp, False, deadline)["setup_s"])
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(pass_wall(p) for p in passes),
            "cpu_s": statistics.median(sum(r["cpu_s"] for r in p["runs"]) for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        samples = {"setup_s": len(setup), "wall_s": len(passes), "cpu_s": len(passes),
                   "peak_rss_mb": len(passes)}
        groups = [group_times(p) for p in passes]
        extra = {"subcommand_s": {g: statistics.median(t[g] for t in groups) for g in groups[0]},
                 "pass_wall_s": [pass_wall(p) for p in passes]}
    else:
        base = run_pass(cmds, tmp, False, deadline)
        traced = [run_pass(cmds, tmp, True, deadline) for _ in range(2)]
        for result in [base] + traced:
            score(result)
        for result in traced:
            for got, want in zip(result["runs"], base["runs"]):
                if got["rc"] != want["rc"] or got["digest"] != want["digest"]:
                    failed += 1
                    print(f"traced output differs from untraced: {got['key']}", file=sys.stderr)
        first, second = (t["layers"] for t in traced)
        unstable = [k for k in first if not k.endswith("_s") and first[k] != second[k]]
        if unstable:
            correct = False
            print(f"traced counts differ between passes: {unstable}", file=sys.stderr)
        metrics = {
            k: (statistics.median([first[k], second[k]]) if k.endswith("_s") else first[k])
            for k in first
        }
        samples = {k: 2 if k.endswith("_s") else 1 for k in metrics}
        metrics["trace.overhead_ratio"] = statistics.median(pass_wall(t) for t in traced) / pass_wall(base)
        samples["trace.overhead_ratio"] = 2
        untraced = group_times(base)
        metrics.update(untraced)
        samples.update(dict.fromkeys(untraced, 1))
        extra = {}
    line = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    extra["samples"] = samples
    return line, extra


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stringhom" / "cli.py").is_file():
        print(f"no stringhom sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    facts = machine_facts()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        line, extra = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except PassError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    facts.update(extra)
    facts.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "failed_ratio": line["failed"] / line["attempted"]})
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
