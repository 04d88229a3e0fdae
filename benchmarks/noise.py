"""Does the harness add noise to a run, or is it the machine?

    python3 benchmarks/noise.py --workload dist-tables

Runs 24 passes of one workload (seed 1) in one process, after a pass that
checks every output.  The fresh-interpreter launches of an untraced run
come before every other pass only.  It prints:

- the median ratio of a command's latency in a pass without launches to
  its latency in the pass just before, which had them (1 when the
  launches do not disturb the passes);
- the spread (q3 - q1) / median over blocks of four passes of the pooled
  median latency and of the median of per-command median latencies (the
  same when pooling the commands adds nothing);
- each command's spread over the passes, in wall time and in CPU time.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path
from time import thread_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import runlength.cli as cli  # noqa: E402
from run import THREADS_ENV, Bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PASSES = 24
BLOCK = 4


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    workload = WORKLOADS[parser.parse_args().workload](1)
    order = workload.order(1)
    os.environ.pop(THREADS_ENV, None)  # the default single worker, as in a run
    bench = Bench(cli)
    bench._fresh_launch(workload.cold)
    for command in order:
        bench._call(command)  # checks every output once
    wall: list[dict[str, float]] = []
    cpu: list[dict[str, float]] = []
    for index in range(PASSES):
        if index % 2 == 0:
            bench._fresh_launch(workload.cold)
        wall.append({})
        cpu.append({})
        for command in order:
            start = thread_time()
            seconds, ok, _ = bench._call(command)
            if ok:
                name = " ".join(command.argv)
                wall[-1][name] = seconds
                cpu[-1][name] = thread_time() - start
    names = list(wall[0])
    ratios = [wall[i + 1][n] / wall[i][n] for i in range(0, PASSES, 2) for n in names]
    print(f"no launches / launches: {statistics.median(ratios):.3f}")
    blocks = [wall[i:i + BLOCK] for i in range(0, PASSES, BLOCK)]
    pooled = [statistics.median(t for p in b for t in p.values()) for b in blocks]
    per_command = [statistics.median(statistics.median(p[n] for p in b) for n in names)
                   for b in blocks]
    print(f"blocks of {BLOCK} passes, spread of the pooled median {_spread(pooled):.1%},"
          f" of the median of per-command medians {_spread(per_command):.1%}")
    for n in names:
        print(f"{n:60.60} wall {1e3 * statistics.median(p[n] for p in wall):8.1f} ms"
              f" {_spread([p[n] for p in wall]):6.1%}   cpu {_spread([p[n] for p in cpu]):6.1%}")
    return 0


def _spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


if __name__ == "__main__":
    sys.exit(main())
