"""venlab benchmark.

    python3 perfbench/run.py --workload {families,generic,lnd} --seed N --seconds S --trace {0,1}

Run from the root of a source tree (``src/venlab`` and ``tests/data`` must
be there).  Each workload runs in its own worker process with one thread;
see worker.py and cases.py, and README.md for why the workloads are what
they are.

``--trace 0`` measures the end-to-end metrics.  Set-up (interpreter start,
``import venlab``, writing the seeded inputs, reading the reference files)
is timed over several worker starts and reported as a median; one worker
then runs the workload's cases in a closed loop for about S seconds of
whole passes.  Times are scaled to a reference machine speed (speed.py).

``--trace 1`` measures the per-layer metrics: one untraced pass, then two
traced passes in two fresh processes.  The first traced pass gives the
figures; every count must match between the two (``trace.count_mismatches``).

The last line of stdout is the result object; the line before it records
the environment, the sample counts and any errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

#: Worker starts timed for set-up.
SETUP_REPEATS = 8

#: Every worker of one run must have finished by then.
DEADLINE_S = 170

#: verdict_s.tail leaves TAIL_BEYOND calls beyond it per TAIL_PASSES passes.
TAIL_BEYOND = 10
TAIL_PASSES = 4


class BenchError(RuntimeError):
    pass


def spawn(worker_args: list, deadline: float):
    """Start a worker; return (seconds until it printed ``ready``, its JSON output)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + worker_args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready_line = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready_line.strip() != "ready" or proc.returncode != 0:
        raise BenchError("worker %s exited with code %s" % (" ".join(worker_args), proc.returncode))
    lines = rest.splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def tail(samples: list, passes: int):
    """(value, percentile, calls beyond) for verdict_s.tail.

    The value is the call time with TAIL_BEYOND * passes / TAIL_PASSES
    calls beyond it (at least TAIL_BEYOND): in a four-pass run, the
    highest percentile with ten calls beyond it.  Scaling with the pass
    count keeps the percentile fixed when the machine fits more or fewer
    passes into a run; a fixed count of ten would move it across the gaps
    between clusters of case times.  With too few calls the maximum is
    reported, with percentile 100 and no calls beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, TAIL_BEYOND * passes // TAIL_PASSES)
    if n > beyond:
        return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond
    return ordered[-1], 100.0, 0


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    return "count"


def measure(seconds: float, common: list, deadline: float):
    """End-to-end metrics; returns (metrics, record, attempted, case errors, wrappers seen).

    Times are scaled to the reference speed (see speed.py): set-up by
    kernel timings taken just before and after each start, each call by
    the kernel times the worker measured around it.  A pass's time is the
    sum of its scaled calls.
    """
    kernels, raw_setups = [speed.calibrate()], []
    for _ in range(SETUP_REPEATS):
        raw_setups.append(spawn(common + ["--mode", "setup"], deadline)[0])
        kernels.append(speed.calibrate())
    setups = [t * speed.REFERENCE_KERNEL_S / ((a + b) / 2)
              for t, a, b in zip(raw_setups, kernels, kernels[1:])]
    _, res = spawn(common + ["--mode", "plain", "--seconds", str(seconds)], deadline)
    names = res["case_names"]
    samples = [t * speed.REFERENCE_KERNEL_S / k for t, k in zip(res["samples"], res["kernels"])]
    walls = [sum(samples[i:i + len(names)]) for i in range(0, len(samples), len(names))]
    case_p50 = {n: statistics.median(samples[i::len(names)]) for i, n in enumerate(names)}
    tail_value, tail_pct, beyond = tail(samples, len(walls))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "verdict_s.p50": (statistics.median(case_p50.values()), "s"),
        "verdict_s.tail": (tail_value, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    record = {
        "input_digest": res["input_digest"], "cases_per_pass": len(names),
        "setup_samples": setups, "pass_walls": walls, "case_p50_s": case_p50,
        "verdict_samples": len(samples), "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "raw": {"setup_s": statistics.median(raw_setups), "wall_s": statistics.median(res["walls"]),
                "pass_walls": res["walls"], "kernel_s": statistics.median(res["kernels"])},
    }
    return metrics, record, res["attempted"], res["errors"], res["wrapped_sites"]


def measure_traced(common: list, deadline: float, spans: Path):
    """Per-layer metrics; returns the same tuple as `measure`."""
    _, base = spawn(common + ["--mode", "plain", "--seconds", "0"], deadline)
    _, first = spawn(common + ["--mode", "traced", "--spans", str(spans)], deadline)
    _, second = spawn(common + ["--mode", "traced"], deadline)
    differing = sorted(k for k, v in first["metrics"].items()
                       if unit(k) != "s" and second["metrics"][k] != v)
    metrics = {k: (v, unit(k)) for k, v in first["metrics"].items()}
    metrics["trace.overhead_s"] = (first["wall"] - base["walls"][0], "s")
    metrics["trace.coverage"] = (first["coverage"], "ratio")
    metrics["trace.count_mismatches"] = (len(differing), "count")
    metrics["trace.wrappers_in_untraced"] = (base["wrapped_sites"], "count")
    errors = base["errors"] + first["errors"] + second["errors"]
    if first["input_digest"] != second["input_digest"]:
        errors.append("the two traced runs saw different inputs")
    record = {
        "input_digest": first["input_digest"], "cases_per_pass": len(first["case_names"]),
        "untraced_wall_s": base["walls"][0], "traced_wall_s": first["wall"],
        "second_traced_wall_s": second["wall"], "differing_counts": differing,
        "spans_file": str(spans.relative_to(ROOT)),
    }
    attempted = base["attempted"] + first["attempted"] + second["attempted"]
    return metrics, record, attempted, errors, base["wrapped_sites"]


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "venlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def declared_metrics(trace: bool) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="venlab benchmark")
    ap.add_argument("--workload", required=True, choices=("families", "generic", "lnd"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "venlab" / "__init__.py", ROOT / "tests" / "data" / "schema1"):
        if not needed.exists():
            print("perfbench: %s is missing; run from a venlab source tree" % needed, file=sys.stderr)
            return 2

    deadline = perf_counter() + DEADLINE_S
    work = ROOT / ".bench_run"
    inputs = work / ("inputs-%d" % os.getpid())
    common = ["--workload", args.workload, "--seed", str(args.seed), "--inputs", str(inputs)]
    try:
        if args.trace:
            spans = work / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
            metrics, record, attempted, errors, wrapped = measure_traced(common, deadline, spans)
        else:
            metrics, record, attempted, errors, wrapped = measure(args.seconds, common, deadline)
        undeclared = declared_metrics(bool(args.trace)) ^ set(metrics)
        if undeclared:
            raise BenchError("metrics differ from BENCHMARK.json: %s" % sorted(undeclared))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, python=platform.python_version(),
                  nproc=len(os.sched_getaffinity(0)), git_commit=git_commit(),
                  source_digest=source_digest(), error_ratio=len(errors) / attempted,
                  errors=errors, wrappers_in_timed_runs=wrapped)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not errors and not wrapped, "attempted": attempted, "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
