"""One workload process, started by run.py.

    python3 perfbench/worker.py --workload W --seed N --inputs DIR
                                --mode {setup,plain,traced} [--seconds S] [--spans FILE]

The process imports venlab from ``src/``, generates the seeded inputs
(writing any input files to DIR), reads the reference files, and prints
``ready`` on its own line: run.py times process start to that line as
set-up.  Mode ``setup`` stops there.  Mode ``plain`` then runs every case of
the workload, one after another in one thread, in whole passes for about S
seconds: it stops when one more pass of average length (probe and checks
included) would end after S, so it runs at least one pass.  Meanwhile
``speed.SpeedProbe`` times a calibration kernel every 0.5 s; each call
reports the median kernel time around it, and the probe's own time is
left out of every timing.  Mode ``traced`` runs one pass with the tracer's
wrappers installed.  Each output is checked after its pass, outside the
timed region, and the process prints its figures as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def run_pass(workload, run_case, overhead=lambda: 0.0):
    """Run every case once; returns ([(start, end, seconds)], [(case, exit code or exception, stdout)]).

    `overhead()` is a running total of time spent outside the cases (the
    speed probe's handler), subtracted from each case's seconds.
    """
    timings, results = [], []
    for case in workload.cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            before = overhead()
            start = perf_counter()
            try:
                code = run_case(case)
            except Exception as exc:  # a raising case is a counted error, not a crash
                code = exc
            end = perf_counter()
            timings.append((start, end, end - start - (overhead() - before)))
        results.append((case, code, out.getvalue()))
    return timings, results


def verify(results, checked: dict) -> list:
    """Error messages for the results; `checked` maps outputs already checked to their message.

    A case's check depends only on its exit code and stdout, so an output
    identical to one checked in an earlier pass gets the same answer.
    """
    errors = []
    for case, code, out in results:
        if isinstance(code, Exception):
            msg = "raised %r" % code
        else:
            key = (case.name, code, out)
            if key not in checked:
                try:
                    checked[key] = case.check(code, out.splitlines())
                except (ValueError, KeyError, TypeError) as exc:  # malformed report
                    checked[key] = "unreadable report: %r" % exc
            msg = checked[key]
        if msg:
            errors.append("%s: %s" % (case.name, msg))
    return errors


def input_digest(workload, inputs: Path) -> str:
    """sha256 of every case's arguments and input file, independent of DIR."""
    cases = [[c.name, [a.replace(str(inputs), "<inputs>") for a in c.argv] if c.argv else None]
             for c in workload.cases]
    blob = json.dumps({"cases": cases, "files": workload.files}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import cases
    import speed
    import tracer

    inputs = Path(args.inputs)
    inputs.mkdir(parents=True, exist_ok=True)
    workload = cases.build(args.workload, args.seed, ROOT, inputs)
    sites = tracer.binding_sites()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    out = {"input_digest": input_digest(workload, inputs),
           "case_names": [case.name for case in workload.cases]}
    if args.mode == "plain":
        walls, timings, errors, attempted, wrapped, checked = [], [], [], 0, 0, {}
        with speed.SpeedProbe() as probe:
            begin = perf_counter()
            while True:
                wrapped += tracer.wrapped_sites(sites)
                spent, start = probe.spent, perf_counter()
                pass_timings, results = run_pass(workload, lambda case: case.run(),
                                                 lambda: probe.spent)
                end = perf_counter()
                walls.append(end - start - (probe.spent - spent))
                wrapped += tracer.wrapped_sites(sites)
                timings += pass_timings
                attempted += len(results)
                errors += verify(results, checked)
                if perf_counter() - begin + (end - begin) / len(walls) > args.seconds:
                    break
        out.update(walls=walls, samples=[t for _, _, t in timings],
                   kernels=[probe.speed(a - speed.WINDOW_S, b + speed.WINDOW_S)
                            for a, b, _ in timings],
                   attempted=attempted, errors=errors, wrapped_sites=wrapped,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        tr = tracer.Tracer()
        tr.install(sites)
        try:
            start = perf_counter()
            _, results = run_pass(workload, lambda case: tr.run_case(case.name, case.run))
            wall = perf_counter() - start
        finally:
            tr.uninstall()
        out.update(wall=wall, metrics=tr.metrics(), coverage=tr.covered / tr.case_wall,
                   attempted=len(results), errors=verify(results, {}))
        if args.spans:
            t0 = tr.spans[0][1]
            with open(args.spans, "w") as fh:
                for name, start, end, parent in tr.spans:
                    fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                         "parent": parent}) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
