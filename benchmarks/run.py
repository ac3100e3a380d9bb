"""Benchmark of matchenum, driven the way its users drive it.

A closed loop with one caller issues ``matchenum`` CLI operations in
process through ``cli.cli_main`` on region files it writes.  Every pass is
a fresh worker process with one thread, so no cache outlives a pass and no
operation repeats inside one.  Every stdout is checked against an exact
reference (see ``workloads.py``).

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--out RESULT.json] [--compare PREVIOUS.json]

With ``--trace 0`` the passes run untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported, ``trace.overhead_s`` being the difference
of their median wall times.  Passes repeat until ``--seconds`` have gone
by; set-up time is the median over every worker launched, every other
time the median over passes.  The last line of stdout is the result as
one JSON object; a readable report, the environment and an optional
comparison with a previous result file go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_PASSES = 3       # per kind of pass (untraced, traced)
MIN_SETUPS = 9       # set-up samples behind the median setup_s
STOP_LAUNCHING_S = 120.0   # no new worker after this; the run ends < 180 s
WORKER_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _launch(plan_path: Path, traced: bool, run: bool, env: dict, started: float):
    """Start one worker; return its set-up time, rescaled to the reference
    machine speed by kernel runs just before and after, and, if ``run``,
    its pass."""
    cal_before = calibration.measure()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), "1" if traced else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise BenchError(f"worker did not start (exit code {proc.wait()})")
        setup_s *= calibration.factor(cal_before, calibration.measure())[0]
        remaining = WORKER_TIMEOUT_S - (time.perf_counter() - started)
        out, _ = proc.communicate("run\n" if run else "exit\n", timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup_s, (json.loads(out.splitlines()[-1]) if run else None)


def _environment(seed: int) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc,
            "cpu_model": cpu_model, "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for ``seconds`` and aggregate them into one result."""
    import workloads

    plan = workloads.make_plan(workload, seed)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        started = time.perf_counter()
        untraced, traced, setups = [], [], []
        while True:
            as_traced = trace and len(traced) < len(untraced)
            setup_s, result = _launch(plan_path, as_traced, True, env, started)
            (traced if as_traced else untraced).append(result)
            if not as_traced:  # a traced set-up also installs the tracer
                setups.append(setup_s)
            elapsed = time.perf_counter() - started
            enough = len(untraced) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
            if (elapsed >= seconds and enough) or elapsed >= STOP_LAUNCHING_S:
                break
        while not trace and len(setups) < MIN_SETUPS and (
                time.perf_counter() - started < STOP_LAUNCHING_S):
            setups.append(_launch(plan_path, False, False, env, started)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    passes = untraced + traced
    ops = [op for p in passes for op in p["ops"]]
    failures = [op for op in ops if op["error"] is not None]
    if trace:
        for p in traced:
            for op, run in zip(plan["ops"], p["ops"]):
                reached = p["trace"]["ops"][op["name"]]["layers"]
                missed = [layer for layer in op["layers"] if not reached.get(layer)]
                if missed and run["error"] is None:
                    raise BenchError(f"{op['name']!r} reached no call of {missed}: "
                                     "a call path escaped the tracer")
        # counters depend on the seed only: the first traced pass gives them
        first = traced[0]
        metrics = {
            name: median(p["trace"]["metrics"][name] for p in traced)
            if name.endswith("_s") else value
            for name, value in first["trace"]["metrics"].items()
        }
        metrics["claims.fail_verdicts"] = sum(op["verdict"] == "FAIL" for op in first["ops"])
        metrics["trace.overhead_s"] = (median(p["wall_s"] for p in traced)
                                       - median(p["wall_s"] for p in untraced))
    else:
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(p["wall_s"] for p in untraced),
            "cpu_s": median(p["cpu_s"] for p in untraced),
            "slowest_op_s": median(max(op["norm_s"] for op in p["ops"])
                                   for p in untraced),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
        }
    op_report = {}
    for op in plan["ops"]:
        name = op["name"]
        row = {key: median(o[key] for p in untraced for o in p["ops"] if o["name"] == name)
               for key in ("seconds", "norm_s")}
        if trace:
            row.update(first["trace"]["ops"][name])
            del row["layers"]
        op_report[name] = row
    return {
        "workload": workload, "trace": int(trace), "env": _environment(seed),
        "passes": {"untraced": len(untraced), "traced": len(traced),
                   "setups": len(setups)},
        "measured_wall_s": median(p["raw_wall_s"] for p in untraced),
        "correct": not failures, "attempted": len(ops), "failed": len(failures),
        "errors": sorted({f"{op['name']}: {op['error']}" for op in failures}),
        "metrics": metrics, "ops": op_report,
    }


def _declared(bench: dict, trace: bool) -> dict:
    return {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}


def _print_report(result: dict, declared: dict) -> None:
    import tracer

    err = sys.stderr
    print(f"# {result['workload']} trace={result['trace']} env={json.dumps(result['env'])}",
          file=err)
    print(f"# passes {result['passes']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  measured (not normalized) wall "
          f"{result['measured_wall_s']:.4f} s", file=err)
    for line in result["errors"]:
        print(f"FAILED {line}", file=err)
    for name, row in result["ops"].items():
        extra = ""
        if "det_calls" in row and row["det_calls"]:
            extra = (f"  det calls {row['det_calls']}, repeat share "
                     f"{row['det_repeats'] / row['det_calls']:.3f}")
        print(f"  op {name:<40} {row['seconds']:9.4f} s measured, "
              f"{row['norm_s']:9.4f} s normalized{extra}", file=err)
    for name, value in result["metrics"].items():
        label = " (computed)" if name in tracer.COMPUTED else ""
        print(f"  {name:<32} {value:14.6g} {declared[name]['unit']}{label}", file=err)


def _compare(current: dict, previous: dict, bench: dict) -> None:
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    err = sys.stderr
    for key, entry in sorted(current.items()):
        old = previous.get(key)
        if old is None:
            print(f"# {key}: not in the previous result file", file=err)
            continue
        note = "" if old["env"] == entry["env"] else (
            f"  (environment differs: {json.dumps(old['env'])})")
        print(f"# compare {key}{note}", file=err)
        for name, metric in entry["metrics"].items():
            if name not in old["metrics"]:
                continue
            was, now = old["metrics"][name]["value"], metric["value"]
            change = (now - was) / abs(was) if was else float("nan")
            verdict = "same"
            if now != was:
                improved = (now > was) == (better[name] == "higher")
                verdict = "better" if improved else "worse"
            print(f"  {name:<32} {was:14.6g} -> {now:14.6g}  {change:+8.1%}  {verdict}",
                  file=err)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="matchenum benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="add this result to FILE (JSON, keyed by workload and mode)")
    parser.add_argument("--compare", metavar="FILE",
                        help="print a per-workload, per-metric comparison with FILE")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "matchenum" / "__init__.py").is_file():
        print(f"error: no matchenum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = _declared(bench, bool(args.trace))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(result["metrics"]) != set(declared):
        print(f"error: metrics {sorted(set(result['metrics']) ^ set(declared))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1

    import tracer

    entry = dict(result, metrics={
        name: dict({"value": value, "unit": declared[name]["unit"]},
                   **({"computed": True} if name in tracer.COMPUTED else {}))
        for name, value in result["metrics"].items()
    })
    _print_report(result, declared)
    current = {f"{args.workload}/trace{args.trace}": entry}
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        doc.setdefault("results", {}).update(current)
        out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        current = doc["results"]
    if args.compare:
        previous = json.loads(Path(args.compare).read_text(encoding="utf-8"))
        _compare(current, previous.get("results", {}), bench)

    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in entry["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
