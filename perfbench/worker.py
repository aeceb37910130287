"""One workload run in a fresh process; started by perfbench/run.py.

Set-up is what a CLI user pays on every call (importing hardyrp) plus
writing this run's generated input files; "READY" on stdout marks its end.
Then every task runs in-process through hardyrp.cli.run (compositions
through the library, which has no subcommand for them), timed one by one
with its output going to a file, each after a timing of the calibration
kernel (calibration.py).  Answers are checked afterwards by the
launcher, outside this process.  With --trace 1 every round runs twice:
untraced, then traced on a second jitter of the same problems.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter


class TaskTimeLimit(Exception):
    """A task ran past its workload's TASK_LIMIT_S (twice that when traced);
    it counts as failed."""


def _stop_task(signum, frame):
    raise TaskTimeLimit("stopped at the workload's task time limit")


def _run_composition(pick, task, d):
    f, F, g = (pick.load_pick(f"{d}/{task['id']}-{k}.json") for k in "fFg")
    m = pick.multiplicity_winding(pick.compose_scalar(f, F, g))
    Path(f"{d}/{task['id']}.out").write_text(f"{m}\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import hardyrp.cli as cli
    from hardyrp import hankel, hardy, kernels, measures, numerics, pick, symbols
    from calibration import kernel_seconds
    from workloads import TASK_LIMIT_S, build_tasks

    signal.signal(signal.SIGALRM, _stop_task)

    d = Path(args.dir)
    d.mkdir(parents=True, exist_ok=True)
    tasks = build_tasks(args.workload, args.seed, args.rounds)
    if args.trace:
        # each round untraced, then the same problems traced
        traced = build_tasks(args.workload, args.seed, args.rounds, traced=True)
        tasks = sorted(tasks + traced, key=lambda t: (t["round"], t["traced"]))
    for task in tasks:
        for name, obj in task["inputs"].items():
            (d / name).write_text(json.dumps(obj))
    (d / "tasks.json").write_text(json.dumps(tasks))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        pkg = {"cli": cli, "measures": measures, "symbols": symbols, "hankel": hankel,
               "pick": pick, "numerics": numerics, "hardy": hardy, "kernels": kernels}

    results = []
    for task in tasks:
        if not results or task["round"] != results[-1]["round"]:
            gc.collect()   # between rounds, outside the timed region
        kernel_s = kernel_seconds()   # the machine's speed next to this task
        traced = task["traced"]
        if traced:
            tracer.task = task["id"]
            tracer.install(pkg)
        argv = [a.replace("{dir}", str(d)) for a in task["argv"]]
        error = None
        stderr = io.StringIO()
        t0 = perf_counter()
        try:
            try:
                # tracing slows a task by up to ~1.5x; it must not turn a slow
                # answer into a timeout
                signal.setitimer(signal.ITIMER_REAL,
                                 TASK_LIMIT_S[args.workload] * (2 if traced else 1))
                with contextlib.redirect_stderr(stderr):
                    if task["cmd"] == "composition":
                        rc = _run_composition(pick, task, d)
                    else:
                        rc = cli.run(argv + ["--out", f"{d}/{task['id']}.out"])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:  # a raising task is a failed task, not a crash
            rc, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if rc not in (0, 1) and error is None:
            lines = stderr.getvalue().strip().splitlines()
            error = lines[-1] if lines else ""
        if traced:
            tracer.uninstall()
        results.append({"id": task["id"], "round": task["round"], "traced": traced,
                        "rc": rc, "seconds": dt, "kernel_s": kernel_s, "error": error})

    out = {"tasks": results,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        out["layers"] = tracer.layer_metrics(args.rounds)
        if args.spans:
            tracer.write_spans(args.spans)
    (d / "results.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
