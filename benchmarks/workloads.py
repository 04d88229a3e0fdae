"""The benchmark's three workloads: fixed command lists made from a seed.

Each workload is one pass of commands, run again and again.  The seed
only picks how inputs are spelled (the tail bound as a decimal, a ratio
or an exponent), the simulator seeds and the order of the commands in a
pass, so every run does the same mix of work and each percentile lands
on the same command from run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI call.  ``fault`` names a known fault: the exit code and a
    piece of the error message with which the call fails until it is fixed."""

    argv: tuple[str, ...]
    fault: tuple[int, str] | None = None


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    cold: Command  # a light command, also timed as a fresh `python -m runlength.cli`

    def order(self, seed: int) -> list[Command]:
        """The commands in the seeded order that every pass of a run follows."""
        return random.Random(f"order-{seed}").sample(self.commands, len(self.commands))


# (m, n, tail exponent, format): every cell takes about 0.05 s to 0.6 s
# today; the three middle cells cost about the same, so the median latency
# is taken over all three rather than over one command's samples
_DIST_CELLS = (
    (2, 4, 9, "json"),
    (2, 5, 9, "csv"),
    (2, 6, 3, "table"),
    (2, 6, 6, "json"),
    (3, 4, 3, "table"),
    (3, 4, 6, "table"),
    (4, 2, 9, "csv"),
    (4, 3, 3, "csv"),
    (4, 3, 6, "json"),
    (5, 2, 9, "table"),
    (5, 3, 3, "json"),
)


def dist_tables(seed: int) -> Workload:
    rng = random.Random(f"dist-tables-{seed}")
    commands = []
    for m, n, exponent, fmt in _DIST_CELLS:
        tail = rng.choice((f"1e-{exponent}", f"1/{10**exponent}", f"{10.0**-exponent:.{exponent}f}"))
        commands.append(Command(("distribution", str(m), str(n), "--tail", tail, "--format", fmt)))
    light = next(c for c in commands if c.argv[1:3] == ("4", "2"))
    return Workload(tuple(commands), light)


def cell_routes(seed: int) -> Workload:
    del seed  # every input here is fixed; only the pass order follows the seed
    argvs = (
        "moments 2 30 --method both --format json",
        "moments 2 20 --method both",
        "moments 3 20 --method both --format json",
        "moments 5 12 --method both",
        "moments 7 25 --method both --format csv",
        "tree 2 10 --method all --format json",
        "tree 3 6 --method all",
        "tree 4 5 --method all --format csv",
        "tree 7 3 --method all --format json",
        "spectrum 2 20 --format json",
        "spectrum 2 40",
        "spectrum 3 16 --format csv",
        "spectrum 5 10 --format json",
        "verify 4 6",
        "verify 6 8 --format json",
        "sequence A286778 40 --format json",
        "sequence A286778 30",
    )
    commands = [Command(tuple(a.split())) for a in argvs]
    # float Aberth returns |root| == m, so a bound that holds reads as violated
    commands.append(Command(("spectrum", "2", "60"), fault=(3, "root bound violated")))
    # EDGE_CONTRIB_NODE_CAP refuses an O(n) route at 11 111 111 nodes
    commands.append(
        Command(("tree", "10", "7", "--method", "edge"), fault=(4, "edge contribution capped"))
    )
    light = next(c for c in commands if c.argv[0] == "sequence")
    return Workload(tuple(commands), light)


# (m, n, trials, format): m = 2 strings average 62 and 126 symbols, m = 7,
# n = 1 strings 7; m = 10, n = 2 averages 110.  Runs above 8192 trials
# span two simulator blocks, so the two-worker repeat has work to split.
# The three middle cells take about 0.2 s each, for a pooled median.
_SIM_CELLS = (
    (2, 5, 7000, "json"),
    (2, 6, 9000, "table"),
    (2, 6, 4000, "json"),
    (7, 1, 20000, "csv"),
    (7, 1, 50000, "json"),
    (10, 2, 9000, "table"),
    (10, 2, 6000, "csv"),
)


def monte_carlo(seed: int) -> Workload:
    rng = random.Random(f"monte-carlo-{seed}")
    commands = tuple(
        Command(("simulate", str(m), str(n), str(trials), str(rng.randrange(2**32)), "--format", fmt))
        for m, n, trials, fmt in _SIM_CELLS
    )
    light = next(c for c in commands if c.argv[1:4] == ("7", "1", "20000"))
    return Workload(commands, light)


WORKLOADS = {
    "dist-tables": dist_tables,
    "cell-routes": cell_routes,
    "monte-carlo": monte_carlo,
}
