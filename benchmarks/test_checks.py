"""The benchmark's own checks catch corrupted envelopes.

    python3 -m pytest benchmarks/test_checks.py -q

Kept beside the benchmark, outside the package's test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import runlength.cli as cli  # noqa: E402
from checks import CheckError, check_output, first_step_moments  # noqa: E402


def output(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


def corrupt_json(text: str, mutate) -> str:
    envelope = json.loads(text)
    mutate(envelope["results"])
    return json.dumps(envelope, indent=2) + "\n"


def bump_exact(value: str) -> str:
    num, _, den = value.partition("/")
    return f"{int(num) + 1}/{den}" if den else str(int(num) + 1)


def set_row(rows: list, index: int, key: str, change) -> None:
    rows[index][key] = change(rows[index][key])


JSON_CORRUPTIONS = {
    "distribution p_k": (
        "distribution 2 3 --tail 1e-4",
        lambda r: set_row(r["rows"], 5, "exact", bump_exact)),
    "distribution row dropped": (
        "distribution 3 2 --tail 1e-4",
        lambda r: r["rows"].pop()),
    "distribution tail": (
        "distribution 2 3 --tail 1e-4",
        lambda r: r.update(tail=bump_exact(r["tail"]))),
    "distribution float": (
        "distribution 2 3 --tail 1e-4",
        lambda r: set_row(r["rows"], 2, "float", lambda x: x * (1 + 2**-50))),
    "moments variance": (
        "moments 3 7 --method both",
        lambda r: r.update(variance=bump_exact(r["variance"]))),
    "tree path sum": (
        "tree 3 3 --method all",
        lambda r: r.update(path_sum=bump_exact(r["path_sum"]))),
    "tree per-depth pairs": (
        "tree 2 9 --method all",
        lambda r: set_row(r["per_depth"], 1, "pairs", lambda x: x + 1)),
    "spectrum root": (
        "spectrum 3 8",
        lambda r: set_row(r["roots"], 0, "re", lambda x: x + 1e-4)),
    "spectrum radius": (
        "spectrum 2 12",
        lambda r: r.update(rho_estimate=r["rho_estimate"] * 1.001)),
    "simulate histogram": (
        "simulate 2 3 500 7",
        lambda r: set_row(r["histogram"], 0, "count", lambda x: x + 1)),
    "simulate mean": (
        "simulate 7 1 500 7",
        lambda r: r.update(mean=r["mean"] + 1e-9)),
    "sequence term": (
        "sequence A286778 12",
        lambda r: set_row(r["terms"], 11, "value", bump_exact)),
    "verify cell": (
        "verify 3 4",
        lambda r: set_row(r["cells"], 6, "matrix_ok", lambda x: None)),
}


@pytest.mark.parametrize("label", sorted(JSON_CORRUPTIONS))
def test_corrupted_json_envelope_is_caught(label):
    command, mutate = JSON_CORRUPTIONS[label]
    argv = [*command.split(), "--format", "json"]
    text = output(argv)
    check_output(argv, text)
    with pytest.raises(CheckError):
        check_output(argv, corrupt_json(text, mutate))


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_corrupted_text_formats_are_caught(fmt):
    argv = ["distribution", "2", "4", "--tail", "1/1000", "--format", fmt]
    text = output(argv)
    check_output(argv, text)
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.split(",")[0].strip() == "9"
               or line.split()[:1] == ["9"])
    lines[row] = lines[row].replace("/", "1/", 1)
    with pytest.raises(CheckError):
        check_output(argv, "\n".join(lines) + "\n")


def test_first_step_moments_match_small_cells():
    # E = m(m^n - 1)/(m - 1); m = 2, n = 2 has E[L^2] = 58 (variance 22)
    assert first_step_moments(2, 2) == (6, 58)
    assert first_step_moments(10, 1) == (10, 190)


def test_bare_directory_is_refused(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cell-routes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
