"""One benchmark worker: a fresh process that makes one pass over a
workload's operations.

Usage: python3 worker.py PLAN_FILE TRACE(0|1)

Set-up is everything before the ``READY`` line: interpreter start,
``import matchenum``, writing the region files and, in a traced worker,
installing the tracer.  The worker then reads one command from stdin:
``run`` makes the pass and prints a JSON result line, ``exit`` ends the
process without doing any work.  In a pass, a calibration kernel runs
before the first operation and after each one, so every operation's time
can be rescaled to the reference machine speed (see ``calibration.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import matchenum.cli as cli

import calibration
import workloads


def _peak_rss_mb() -> float:
    """Peak resident memory of this process since it started.

    ``ru_maxrss`` is not used where ``VmHWM`` exists: on Linux it also keeps
    the peak of the address space replaced by ``exec``, which after a
    vfork is the launching benchmark process's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(plan_path: str, traced: bool) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    workdir = os.path.join(os.path.dirname(plan_path), f"worker-{os.getpid()}")
    os.makedirs(workdir)
    for name, doc in plan["regions"].items():
        with open(os.path.join(workdir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    os.chdir(workdir)
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "run":
        return

    runs = []
    calibration.measure()  # warm-up, not used
    cal = calibration.measure()
    for op in plan["ops"]:
        if tracer is not None:
            tracer.begin_op(op["name"])
        out, err = io.StringIO(), io.StringIO()
        c0, t0 = calibration.cpu_s(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.cli_main(op["argv"])
            raised = None
        except (Exception, SystemExit) as exc:  # a raising operation fails
            code, raised = None, f"{type(exc).__name__}: {exc}"
        seconds, cpu = time.perf_counter() - t0, calibration.cpu_s() - c0
        cal_before, cal = cal, calibration.measure()
        scale_wall, scale_cpu = calibration.factor(cal_before, cal)
        runs.append((op, seconds, seconds * scale_wall, cpu * scale_cpu,
                     code, out.getvalue(), raised))
    peak_rss_mb = _peak_rss_mb()

    results = []
    for op, seconds, norm_s, cpu_norm_s, code, stdout, raised in runs:
        error, verdict = (raised, None) if raised else workloads.check(op, code, stdout)
        results.append({"name": op["name"], "seconds": seconds, "norm_s": norm_s,
                        "cpu_norm_s": cpu_norm_s, "error": error, "verdict": verdict})
    print(json.dumps({
        "raw_wall_s": sum(r["seconds"] for r in results),
        "wall_s": sum(r["norm_s"] for r in results),
        "cpu_s": sum(r["cpu_norm_s"] for r in results),
        "peak_rss_mb": peak_rss_mb,
        "ops": results,
        "trace": None if tracer is None else {
            "calls": dict(tracer.calls),
            "metrics": tracer.metrics(),
            "ops": tracer.ops,
        },
    }), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] == "1")
