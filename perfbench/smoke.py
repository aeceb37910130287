"""Smoke test of the benchmark itself; run from the repository root:

    python3 perfbench/smoke.py

For every workload, in both the untraced and the traced mode, one short run
must print, as its last line, the result object with every metric that
BENCHMARK.json declares for that mode, each with its declared unit, and the
readable report must carry fail_ratio.  A run whose oracle is deliberately
wrong for one task must count that task in `failed` and report itself
incorrect, and so must a miss that goes beyond a recorded seed defect's
signature or per-run count.  Without the hardyrp source next to it the
benchmark must exit non-zero without printing a result.  Exits 1 on the
first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SEED = 7
SECONDS = "0.1"   # one round (two when traced)


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _expect(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_metrics(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = _bench(["--workload", workload, "--seed", str(SEED),
                        "--seconds", SECONDS, "--trace", str(trace)])
            _expect(p.returncode == 0, f"{workload} trace {trace} exits 0 ({p.stderr[-300:]})")
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            _expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{workload} trace {trace} result keys")
            _expect(result["correct"] and result["attempted"] >= 1,
                    f"{workload} trace {trace} correct, {result['attempted']} attempted")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _expect(got == want, f"{workload} trace {trace} emits every {key} metric "
                                 f"with its unit (missing {set(want) - set(got)}, "
                                 f"extra {set(got) - set(want)})")
            _expect(all(isinstance(v["value"], (int, float))
                        for v in result["metrics"].values()),
                    f"{workload} trace {trace} values are numbers")
            _expect(any("fail_ratio" in line for line in lines[:-1]),
                    f"{workload} trace {trace} reports fail_ratio")


def check_wrong_oracle():
    reference = bench.reference
    target = {}

    def wrong(task):
        ref = reference(task)
        if not target and task["cmd"] == "degree":
            target["id"] = task["id"]
            ref = dict(ref, degree=ref["degree"] + 1)
        return ref

    bench.reference = wrong
    try:
        s = bench.run("pick-degree", SEED, float(SECONDS), False)
    finally:
        bench.reference = reference
    missed = [m["id"] for m in s["misses"]]
    _expect(missed == [target["id"]] and s["failed"] == 1 and not s["correct"]
            and s["fail_ratio"] == 1 / s["attempted"],
            f"a wrong oracle value is counted in failed and fail_ratio ({missed})")


def check_recorded_defects():
    """A seed defect is recorded only with its seed signature and up to its
    per-run count; any other miss of the same task makes the run incorrect."""
    comp = {"cmd": "composition", "family": "callable", "ref": {"degree": 2}}
    table = {"cmd": "psi", "family": "table", "ref": {}}

    def known(task, text, err, kind="accuracy"):
        misses = [{"id": "t", "kind": kind,
                   "defect": bench.known_failure(task, kind, text, err)}]
        bench._recorded(misses)
        return misses[0]["known"] is not None

    _expect(known(comp, "1\n", 2.0) and not known(comp, "0\n", 4.0)
            and not known(comp, "3\n", 2.0),
            "a composition miss is recorded only as a count of a*b*c - 1")
    _expect(known(table, None, 5.0) and not known(table, None, 50.0),
            "a table accuracy miss is recorded only within 10x its tolerance")
    _expect(not known(table, None, None, kind="exit 2: error"),
            "a table task that gives no answer is not a recorded defect")
    timeout = bench.known_failure(comp, "exit None: TaskTimeLimit", None, None)
    misses = [{"id": str(i), "kind": "exit None: TaskTimeLimit", "defect": timeout}
              for i in range(timeout.per_run + 1)]
    bench._recorded(misses)
    _expect([m["known"] is not None for m in misses][-2:] == [True, False],
            f"more than {timeout.per_run} timed-out compositions in a run are not recorded")


def check_bare_directory():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        p = _bench(["--workload", "pick-degree", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _expect(p.returncode != 0 and not p.stdout.strip(),
            f"without hardyrp the benchmark fails without a result (exit {p.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_recorded_defects()
    check_bare_directory()
    check_wrong_oracle()
    check_metrics(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
