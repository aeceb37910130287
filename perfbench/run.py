"""hardyrp benchmark: one workload from a seed, every answer checked.

    python3 perfbench/run.py --workload density-cold --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): density-cold, atomic-grid,
pick-degree.  Each run starts fresh worker processes with one BLAS/OpenMP
thread; --seconds sets the length of the task list.  Set-up is timed on
SETUP_SAMPLES fresh processes and reported as their median.  After the
worker exits, every output is checked against its oracle (oracles.py), so
reference work is outside both set-up and the timed tasks.

A round is the workload's fixed task list with its own inputs: wall_s is
the time to solution of one round (every answer checked, checking not
timed), as the median over the run's rounds.  task_s_p50 and task_s_tail
pool the tasks of all rounds; task_s_tail is the highest percentile with
TAIL_BEYOND tasks beyond it.  Every time is reported at the reference
speed: scaled by the machine speed measured next to it (calibration.py).
The report also prints the wall-clock figures.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from a
run whose odd rounds are traced.  Every metric is printed by name with its
unit; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 without a result means the run
could not be made (no hardyrp source next to the benchmark, worker crash).
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
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import REFERENCE_S, kernel_seconds, scales  # noqa: E402
from oracles import check, expected_exit, known_failure, reference  # noqa: E402
from workloads import WORKLOADS, round_count  # noqa: E402

SETUP_SAMPLES = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DEADLINE = 165.0   # seconds; the workers must leave time for the checks
TAIL_BEYOND = 10   # task_s_tail: the highest percentile with this many tasks beyond it


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], env: dict, log) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the seconds until it reported READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], env=env,
                            stdout=subprocess.PIPE, stderr=log, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker set-up failed (exit {proc.returncode}); see {log.name}")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float, log) -> None:
    try:
        proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker still running at the {RUN_DEADLINE:.0f} s run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}; see {log.name}")


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "mpmath": metadata.version("mpmath"),
            "nproc": len(os.sched_getaffinity(0)),
            **{v: "1" for v in THREAD_VARS}}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND tasks beyond it."""
    s = sorted(times)
    k = max(0, len(s) - TAIL_BEYOND - 1)
    return s[k], 100.0 * (k + 1) / len(s)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    if not (ROOT / "src" / "hardyrp" / "cli.py").is_file():
        raise BenchError(f"no hardyrp source under {ROOT / 'src'}")
    rounds = round_count(workload, seconds)
    if trace:
        rounds = max(1, rounds // 2)   # every round runs untraced and traced
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               **{v: "1" for v in THREAD_VARS})
    base = ROOT / ".perfbench"
    run_dir = base / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed), "--rounds", str(rounds)]
    setups, setup_kernels = [], []
    try:
        with open(base / f"worker-{workload}.log", "w") as log:
            for i in range(SETUP_SAMPLES - 1):
                setup_kernels.append(statistics.median(kernel_seconds() for _ in range(3)))
                proc, ready = _worker([*common, "--dir", str(run_dir / f"probe{i}"),
                                       "--setup-only"], env, log)
                _finish(proc, RUN_DEADLINE - (time.monotonic() - start), log)
                setups.append(ready)
            inputs = run_dir / "inputs"
            setup_kernels.append(statistics.median(kernel_seconds() for _ in range(3)))
            proc, ready = _worker([*common, "--dir", str(inputs), "--trace", str(int(trace)),
                                   "--spans", str(base / f"spans-{workload}.jsonl")], env, log)
            setups.append(ready)
            _finish(proc, RUN_DEADLINE - (time.monotonic() - start), log)
        tasks = json.loads((inputs / "tasks.json").read_text())
        out = json.loads((inputs / "results.json").read_text())
        t0 = time.perf_counter()
        checked = [_check(task, res, inputs) for task, res in zip(tasks, out["tasks"])]
        oracle_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # every time at the reference speed (calibration.py); wall-clock in the report
    kernels = [r["kernel_s"] for r in out["tasks"]]
    times = [r["seconds"] * f for r, f in zip(out["tasks"], scales(kernels))]
    setup_times = [t * REFERENCE_S / k for t, k in zip(setups, setup_kernels)]
    misses = [c for c in checked if c["miss"]]
    _recorded(misses)
    # recorded defects stay out of the accuracy figure, so it shows drift elsewhere
    known = {m["id"] for m in misses if m["known"]}
    errs = [c["err"] for c in checked if c["err"] is not None and c["id"] not in known]
    known_errs = [c["err"] for c in checked if c["err"] is not None and c["id"] in known]
    summary = {
        "workload": workload, "seed": seed, "rounds": rounds, "trace": trace,
        "attempted": len(checked), "failed": len(misses),
        "correct": all(c["known"] for c in misses),
        "known_failed": sum(bool(c["known"]) for c in misses),
        "fail_ratio": len(misses) / len(checked),
        "worst_err_over_tol": max(errs) if errs else 0.0,
        "worst_known_err_over_tol": max(known_errs) if known_errs else None,
        "oracle_s": oracle_s, "setup_samples": setups, "misses": misses,
        "speed": REFERENCE_S / statistics.median(kernels + setup_kernels),
    }
    if trace:
        plain = sum(t for r, t in zip(out["tasks"], times) if not r["traced"])
        traced = sum(t for r, t in zip(out["tasks"], times) if r["traced"])
        metrics = {"trace.overhead": (traced / plain, "ratio"),
                   **{k: tuple(v) for k, v in out["layers"].items()},
                   "check.worst_err_over_tol": (summary["worst_err_over_tol"], "ratio")}
    else:
        summary["tail_percentile"] = tail(times)[1]
        summary["wall_clock"] = _timings(setups, out["tasks"],
                                         [r["seconds"] for r in out["tasks"]])
        metrics = {**_timings(setup_times, out["tasks"], times),
                   "peak_rss_mb": (out["peak_rss_mb"], "MB")}
    summary["metrics"] = metrics
    return summary


def _timings(setups: list[float], tasks: list[dict], times: list[float]) -> dict:
    """setup_s, wall_s (median over rounds), task_s_p50 and task_s_tail."""
    per_round: dict[int, float] = {}
    for r, t in zip(tasks, times):
        per_round[r["round"]] = per_round.get(r["round"], 0.0) + t
    return {"setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(per_round.values()), "s"),
            "task_s_p50": (statistics.median(times), "s"),
            "task_s_tail": (tail(times)[0], "s")}


def _check(task: dict, res: dict, inputs: Path) -> dict:
    """Compare one output with its oracle; a miss gets a kind and, if recorded, its defect."""
    rc = res["rc"]
    c = {"id": task["id"], "cmd": task["cmd"], "family": task["family"], "rc": rc,
         "err": None, "miss": True, "kind": f"exit {rc}: {res['error']}"}
    text = None
    if rc in (0, 1):
        try:
            text = (inputs / f"{task['id']}.out").read_text()
            c["err"] = float(check(task, reference(task), text, rc))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            c["kind"] = f"unreadable output: {type(exc).__name__}: {exc}"
        else:
            c["miss"] = c["err"] > 1.0 or rc != expected_exit(task)
            c["kind"] = f"exit {rc}" if rc != expected_exit(task) else "accuracy"
    c["defect"] = known_failure(task, c["kind"], text, c["err"]) if c["miss"] else None
    return c


def _recorded(misses: list[dict]) -> None:
    """Set each miss's "known" to its defect's description, or None when the
    miss matches no recorded defect or exceeds that defect's per-run count."""
    seen: Counter = Counter()
    for m in misses:
        d = m.pop("defect")
        m["known"] = None
        if d is None:
            continue
        seen[d] += 1
        if d.per_run is not None and seen[d] > d.per_run:
            m["kind"] += f" (more than the seed's {d.per_run} per run)"
        else:
            m["known"] = d.why


def report(s: dict) -> None:
    print(f"hardyrp benchmark: workload {s['workload']}, seed {s['seed']}, "
          f"{s['rounds']} rounds, {s['attempted']} tasks, trace {int(s['trace'])}")
    print(f"environment: {json.dumps(environment())}")
    for name, (value, unit) in s["metrics"].items():
        print(f"  {name:44s} {value:.6g} {unit}")
    if "tail_percentile" in s:
        print(f"  task_s_tail is p{s['tail_percentile']:.1f} of {s['attempted']} tasks "
              f"({TAIL_BEYOND} beyond it)")
        print("  times above are at the reference speed; wall-clock: "
              + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in s["wall_clock"].items()))
    print(f"  machine speed {s['speed']:.3f} of the reference (calibration.py)")
    in_known = ("" if s["worst_known_err_over_tol"] is None
                else f", {s['worst_known_err_over_tol']:.3g} in them")
    print(f"  fail_ratio {s['fail_ratio']:.6g} ({s['failed']} of {s['attempted']}, "
          f"{s['known_failed']} of them recorded seed defects); "
          f"worst error/tolerance {s['worst_err_over_tol']:.3g} outside recorded defects"
          f"{in_known}; set-up samples {['%.4f' % v for v in s['setup_samples']]}; "
          f"oracle {s['oracle_s']:.1f} s")
    for m in s["misses"]:
        err = "n/a" if m["err"] is None else f"{m['err']:.3g}"
        print(f"  miss {m['id']} {m['cmd']}/{m['family']} [{m['kind']}] err/tol {err}: "
              f"{m['known'] or 'NOT A RECORDED DEFECT'}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        s = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(s)
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in s["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
