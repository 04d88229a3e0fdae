"""Steadiness check: do two sets of runs of the same code agree?

    python3 benchmarks/steady.py

Runs ``benchmarks/run.py`` ten times per workload and set, each run with
its own seed (1-10, then 11-20), workload after workload, with a pause of
60 seconds between the two sets.  For every end-to-end metric it prints
each set's median and quartiles and the spread (q3 - q1) / median, and how
far the second median moved from the first (positive when it is worse).
The sets agree when, for every metric of BENCHMARK.json on every
workload, each set's spread and the size of the move, in either
direction, are within the metric's bound, and the share of failed
commands is identical in every run.  A summary goes to benchmarks/out/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10  # per workload and set
GAP_S = 60  # pause between the sets, so that they are taken apart in time


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets: list[dict[str, list[dict]]] = []
    for index in range(SETS):
        if index:
            time.sleep(GAP_S)
        runs: dict[str, list[dict]] = {}
        for workload in workloads:
            runs[workload] = []
            for run in range(RUNS):
                seed = 1 + index * RUNS + run
                runs[workload].append(_run(workload, seed, spec["run_seconds"]))
        sets.append(runs)

    agree = True
    summary = {"seconds": spec["run_seconds"], "runs": RUNS, "sets": []}
    for runs in sets:
        summary["sets"].append({w: _stats(r, bounds) for w, r in runs.items()})
    print(f"{'workload':12} {'metric':14} " + "  ".join(
        f"{'set ' + str(i + 1) + ' median [q1, q3] spread':>44}" for i in range(len(sets)))
        + "   moved  bound  ok")
    for workload in workloads:
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs[workload]}
        same_share = len(shares) == 1
        agree &= same_share
        for name, metric in bounds.items():
            stats = [s[workload][name] for s in summary["sets"]]
            cells = "  ".join(
                f"{st['median']:>12.6g} [{st['q1']:.6g}, {st['q3']:.6g}] {st['spread']:6.1%}"
                for st in stats)
            moved = _worse_by(stats[0]["median"], stats[1]["median"], metric["better"])
            ok = abs(moved) <= metric["bound"] and all(st["spread"] <= metric["bound"] for st in stats)
            agree &= ok
            print(f"{workload:12} {name:14} {cells}  {moved:6.1%} {metric['bound']:6.1%}  {'yes' if ok else 'NO'}")
        print(f"{workload:12} failed share {', '.join(str(s) for s in sorted(shares))}"
              f"  {'identical' if same_share else 'DIFFERS'}")
    summary["agree"] = agree
    (HERE / "out").mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    (HERE / "out" / f"steady-{stamp}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print("sets agree within the bounds" if agree else "sets DO NOT agree within the bounds")
    return 0 if agree else 1


def _run(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed: {done.stderr.strip()[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, "
          + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
          file=sys.stderr, flush=True)
    return result


def _stats(runs: list[dict], bounds: dict) -> dict:
    stats = {}
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        stats[name] = {"median": median, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / median, "values": values}
    stats["wall_s"] = [r["wall_s"] for r in runs]
    return stats


def _worse_by(first: float, second: float, better: str) -> float:
    """Relative change from first to second, positive when second is worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


if __name__ == "__main__":
    sys.exit(main())
