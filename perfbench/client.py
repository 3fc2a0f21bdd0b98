"""One pass of a benchmark workload, in a fresh interpreter.

Usage: python3 client.py SRC JOB RESULT

SRC is the directory that holds the ``stringhom`` package.  The client
times the import of ``stringhom.cli`` (the program's set-up), then runs each
argument vector of the JOB file through ``stringhom.cli.main`` in order,
timing each in wall and CPU seconds, and writes RESULT as JSON.  With
``"trace": true`` in JOB, the per-layer tracer is installed after the
import and removed after the last command.  An empty command list measures
set-up alone.
"""

import sys
import time


def main() -> int:
    src, job_path, result_path = sys.argv[1:4]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import stringhom.cli as cli
    setup_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import os
    import resource
    import traceback

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(
        os.path.abspath(src), "stringhom"
    ):
        print(f"stringhom imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(job_path) as fh:
        job = json.load(fh)

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runs = []
    try:
        for argv in job["commands"]:
            out, err = io.StringIO(), io.StringIO()
            w0, c0 = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is a failed command, not a failed pass
                    traceback.print_exc(file=err)
                    rc = 1
            runs.append({
                "rc": rc,
                "wall_s": time.perf_counter() - w0,
                "cpu_s": time.process_time() - c0,
                "stderr_tail": err.getvalue()[-400:],
            })
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "setup_s": setup_s,
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": tracer.metrics() if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
