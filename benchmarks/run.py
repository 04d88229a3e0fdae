"""End-to-end benchmark of the `runlength` command line.

    python3 benchmarks/run.py --workload dist-tables --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/`.  One process calls ``runlength.cli.main(argv)`` for each command
of the workload, one after another (a closed loop with one caller), in
whole passes until ``--seconds`` of command time have been measured.
Every output is checked outside the timed region.  In an untraced run,
two fresh interpreters started before each pass give one import time and
one cold-start time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics; it also
writes every span to ``benchmarks/out/``.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from checks import CheckError, check_output
from spans import PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

IMPORTTIME_LAUNCHES = 3
CHILD_TIMEOUT_S = 60
THREADS_ENV = "RUNLENGTH_THREADS"
SETUP_CODE = (
    "import time; t = time.perf_counter(); import runlength, runlength.cli; "
    "print(time.perf_counter() - t)"
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "runlength" / "cli.py").is_file():
        print(f"error: no runlength package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(THREADS_ENV, None)  # the default single worker
    sys.path.insert(0, str(SRC))
    import runlength.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: runlength imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    bench = Bench(cli)
    try:
        metrics = bench.run(workload, args.seed, args.seconds, bool(args.trace))
    except CheckError as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(bench.attempted, 1),
                          "failed": bench.failed, "metrics": {}}))
        return 1
    OUT.mkdir(exist_ok=True)
    if args.trace:
        bench.tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    result = {
        "correct": True,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


class Sink:
    """Collects what a command writes, without copying it into a buffer."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.write = self.parts.append

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return "".join(self.parts)


class Bench:
    def __init__(self, cli) -> None:
        self.cli = cli
        self.tracer = Tracer()
        self.digests: dict[tuple[str, ...], str] = {}
        self.attempted = 0
        self.failed = 0
        self.env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
        self.env["PYTHONPATH"] = str(SRC)
        # numpy's OpenBLAS starts a thread pool at import; on a 2-vCPU guest
        # its spinning workers made start-up flip between 0.14 s and 0.21 s
        # for tens of minutes at a time, depending on where the host ran them
        self.env["OPENBLAS_NUM_THREADS"] = "1"

    def run(self, workload, seed: int, seconds: float, traced: bool) -> dict:
        order = workload.order(seed)
        setup: list[float] = []
        cold: list[float] = []
        if traced:
            layers = self._import_breakdown()
        else:
            self._fresh_launch(workload.cold)  # warms the file cache and bytecode
        plain: list[float] = []  # latencies of successful commands, untraced
        traced_latencies: list[float] = []
        rates: list[float] = []  # successful commands per second, per untraced pass
        busy = 0.0  # command time over all passes
        passes = 0
        output_bytes = 0
        while busy < seconds or (traced and passes % 2):
            tracing = traced and passes % 2 == 1
            if not traced:
                # start-up samples spread over the run, like the passes
                setup_s, cold_s = self._fresh_launch(workload.cold)
                setup.append(setup_s)
                cold.append(cold_s)
            if tracing:
                self.tracer.install()
            pass_busy = 0.0
            pass_ok = 0
            try:
                for command in order:
                    seconds_taken, succeeded, size = self._call(command)
                    pass_busy += seconds_taken
                    if succeeded:
                        pass_ok += 1
                        (traced_latencies if tracing else plain).append(seconds_taken)
                        if tracing:
                            output_bytes += size
            finally:
                self.tracer.remove()
            busy += pass_busy
            passes += 1
            if not tracing:
                rates.append(pass_ok / pass_busy)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if any(c.argv[0] == "simulate" for c in workload.commands):
            self._repeat_with_two_workers(workload.commands)
        if traced:
            layers.update(self.tracer.layer_metrics(passes // 2, output_bytes))
            layers["trace.overhead_ms"] = 1e3 * (
                statistics.median(traced_latencies) - statistics.median(plain))
            return {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        return {
            "setup_s": (statistics.median(setup), "s"),
            "cli_cold_s": (statistics.median(cold), "s"),
            "queries_per_s": (statistics.median(rates), "1/s"),
            "query_p50_ms": (1e3 * statistics.median(plain), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def _call(self, command: Command) -> tuple[float, bool, int]:
        """Run one command in process; check it; return (seconds, ok, bytes)."""
        gc.collect()
        out, err = Sink(), Sink()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(list(command.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # counted as a failed command, reported below
                code = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        self.attempted += 1
        text = out.getvalue()
        succeeded = self._judge(command, code, text, err.getvalue())
        if not succeeded:
            self.failed += 1
        return seconds, succeeded, len(text.encode())

    def _judge(self, command: Command, code, text: str, err: str) -> bool:
        if code != 0:
            known_fault = command.fault is not None and (
                code == command.fault[0] and command.fault[1] in err)
            if not known_fault:
                print(f"unexpected failure of {' '.join(command.argv)}: {code} {err.strip()}",
                      file=sys.stderr)
            return False
        digest = hashlib.sha256(text.encode()).hexdigest()
        known = self.digests.get(command.argv)
        if known is None:
            check_output(list(command.argv), text)
            self.digests[command.argv] = digest
        elif digest != known:
            raise CheckError(f"{' '.join(command.argv)} printed a different output on a repeat")
        return True

    def _repeat_with_two_workers(self, commands) -> None:
        """The simulator promises the same histogram for any worker count."""
        counted = self.attempted, self.failed
        os.environ[THREADS_ENV] = "2"
        try:
            for command in commands:
                if not self._call(command)[1]:
                    raise CheckError(f"{' '.join(command.argv)} failed with two workers")
        finally:
            os.environ.pop(THREADS_ENV)
        self.attempted, self.failed = counted  # a check, not part of the passes

    def _launch(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)

    def _fresh_launch(self, cold: Command) -> tuple[float, float]:
        """Import time and cold command time, each in a fresh interpreter."""
        setup = float(self._launch(["-c", SETUP_CODE]).stdout)
        start = perf_counter()
        done = self._launch(["-m", "runlength.cli", *cold.argv])
        elapsed = perf_counter() - start
        if not self._judge(cold, done.returncode, done.stdout, done.stderr):
            raise CheckError(f"cold launch of {' '.join(cold.argv)} failed")
        return setup, elapsed

    def _import_breakdown(self) -> dict:
        """numpy and runlength import times from `python -X importtime`."""
        numpy_ms, own_ms = [], []
        for launch in range(IMPORTTIME_LAUNCHES + 1):
            lines = self._launch(["-X", "importtime", "-c", "import runlength, runlength.cli"]).stderr
            numpy_us = own_us = 0
            for line in lines.splitlines():
                if not line.startswith("import time:") or "cumulative" in line:
                    continue
                own, cumulative, name = (part.strip() for part in line[12:].split("|"))
                if name == "numpy":
                    numpy_us = int(cumulative)
                elif name.split(".")[0] == "runlength":
                    own_us += int(own)
            if launch:
                numpy_ms.append(numpy_us / 1e3)
                own_ms.append(own_us / 1e3)
        return {"setup.numpy_import_ms": statistics.median(numpy_ms),
                "setup.runlength_import_ms": statistics.median(own_ms)}


if __name__ == "__main__":
    sys.exit(main())
