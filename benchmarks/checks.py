"""Independent checks of `runlength` command outputs.

Every check here recomputes what a command printed by a route that shares
no code with the program: an integer recurrence over run lengths for the
distribution, a first-step analysis solved in Fractions for the moments,
brute-force or node-by-node tree counts for T and S, Horner evaluation
for root residuals, and a recount of the Monte Carlo histogram.  A wrong
output raises ``CheckError``.
"""

from __future__ import annotations

import ast
import csv
import json
import math
from fractions import Fraction

ROOT_RESIDUAL_TOL = 1e-9  # the residual bound `spectrum` promises by default
RADIUS_AGREEMENT_TOL = 1e-6  # power iteration versus max|root| / m
VIETA_TOL = 1e-6  # sum of n float roots versus the exact m - 1
SAMPLE_MEAN_SE = 6  # sample mean within this many standard errors
BRUTE_FORCE_NODES = 400  # trees up to this size are checked over all pairs
COUNTED_NODES = 100_000  # larger trees are checked by level sums alone


class CheckError(AssertionError):
    """A command printed a value that the independent route contradicts."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ------------------------------------------------------------------ parsing


def parse(text: str, fmt: str) -> tuple[dict, list[dict]]:
    """Split one command's output into its scalar fields and its row table.

    JSON keeps its types, the table format is read back with
    ``ast.literal_eval`` where the value is a Python literal, and CSV
    holds strings only.  CSV carries the row table alone when the result
    has one, so ``fields`` is then empty.
    """
    if fmt == "json":
        envelope = json.loads(text)
        fields = dict(envelope["results"])
        fields["command"] = envelope["command"]
        fields["params"] = envelope["params"]
        rows = []
        for key in ("rows", "terms", "cells", "roots", "histogram", "per_depth"):
            value = fields.get(key)
            if isinstance(value, list) and value and isinstance(value[0], dict):
                rows = fields.pop(key)
                break
        return fields, rows
    if fmt == "csv":
        records = list(csv.reader(text.splitlines()))
        require(len(records) >= 1, "empty CSV output")
        header, body = records[0], records[1:]
        if header == ["field", "value"]:
            return {key: value for key, value in body}, []
        return {}, [dict(zip(header, record, strict=True)) for record in body]
    return _parse_table(text)


def _parse_table(text: str) -> tuple[dict, list[dict]]:
    lines = text.rstrip("\n").split("\n")
    command, _, params = lines[0].partition(" (")
    fields: dict = {
        "command": command,
        "params": {
            key: _literal(value)
            for key, _, value in (item.partition("=") for item in params[:-1].split())
        },
    }
    rows: list[dict] = []
    header: list[str] | None = None
    for line in lines[1:]:
        if line.startswith("    "):
            cells = line.split()
            if header is None:
                header = cells
            else:
                rows.append({h: _literal(c) for h, c in zip(header, cells, strict=True)})
        else:
            key, _, value = line.strip().partition(":")
            if value:
                fields[key] = _literal(value.strip())
    return fields, rows


def _literal(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def ratio(value) -> tuple[int, int]:
    """An exact value printed as ``p`` or ``p/q``, as a pair of integers."""
    num, _, den = str(value).partition("/")
    return int(num), int(den) if den else 1


def exact(value) -> Fraction:
    num, den = ratio(value)
    return Fraction(num, den)


def as_bool(value) -> bool:
    require(value in (True, False, "True", "False"), f"not a boolean: {value!r}")
    return value in (True, "True")


def _same(label: str, printed, expected) -> None:
    require(printed == expected, f"{label}: printed {printed!r}, expected {expected!r}")


def _check_header(fields: dict, command: str, params: dict) -> None:
    if "command" in fields:
        _same("command", fields["command"], command)
        _same("params", {k: int(v) for k, v in fields["params"].items()}, params)


# --------------------------------------------------- independent computations


def first_step_moments(m: int, n: int) -> tuple[Fraction, Fraction]:
    """E[L] and E[L^2] from a first-step analysis, solved by back-substitution.

    From run state j the next symbol moves to state j+1 with probability
    1/m and back to state 0 otherwise; state n ends the string.  Writing
    e_j = a_j + b_j e_0 and s_j = c_j + d_j s_0 from j = n down to 0
    gives e_0 and s_0 = E[L^2] without any matrix.
    """
    up, back = Fraction(1, m), Fraction(m - 1, m)
    a, b = Fraction(0), Fraction(0)  # e_j = a + b * e_0, starting at j = n
    coeffs = []
    for _ in range(n):
        a, b = 1 + up * a, up * b + back
        coeffs.append((a, b))
    mean = a / (1 - b)
    # E[(1 + R)^2] = 1 + 2 E[R] + E[R^2] for the remaining time R
    c, d = Fraction(0), Fraction(0)  # s_j = c + d * s_0
    e_next = Fraction(0)
    for a_j, b_j in coeffs:
        c = 1 + up * (2 * e_next + c) + back * 2 * mean
        d = up * d + back
        e_next = a_j + b_j * mean
    second = c / (1 - d)
    return mean, second


def level_tree_counts(m: int, n: int) -> tuple[int, list[int]]:
    """Edges T and, per depth d, the ordered pairs sharing a depth-d ancestor.

    Counted level by level: the m^d nodes at depth d each root a subtree of
    1 + m + ... + m^(n-d) nodes, and a pair shares that node's root path
    exactly when both members lie in its subtree.
    """
    edges = sum(m**d for d in range(1, n + 1))
    at_least = [m**d * sum(m**i for i in range(n - d + 1)) ** 2 for d in range(1, n + 1)]
    return edges, at_least


def counted_tree(m: int, n: int) -> tuple[int, list[int]]:
    """T and per-depth shared-ancestor pair counts, counted on the tree itself.

    Small trees are checked over every ordered pair by walking both nodes
    up to their lowest common ancestor; larger ones by subtree sizes summed
    node by node.  Nodes are generated as children lists, not from a
    level-order index formula.
    """
    children: list[list[int]] = [[]]
    depth = [0]
    frontier = [0]
    for level in range(1, n + 1):
        nxt = []
        for node in frontier:
            for _ in range(m):
                children.append([])
                depth.append(level)
                children[node].append(len(depth) - 1)
                nxt.append(len(depth) - 1)
        frontier = nxt
    size = len(depth)
    at_least = [0] * n
    if size <= BRUTE_FORCE_NODES:
        parent = [0] * size
        for node, kids in enumerate(children):
            for kid in kids:
                parent[kid] = node
        for a in range(size):
            for b in range(size):
                x, y = a, b
                while depth[x] > depth[y]:
                    x = parent[x]
                while depth[y] > depth[x]:
                    y = parent[y]
                while x != y:
                    x, y = parent[x], parent[y]
                for d in range(1, depth[x] + 1):
                    at_least[d - 1] += 1
    else:
        subtree = [1] * size
        for node in range(size - 1, -1, -1):
            subtree[node] += sum(subtree[kid] for kid in children[node])
        for node in range(1, size):
            at_least[depth[node] - 1] += subtree[node] ** 2
    return size - 1, at_least


def walk_counts(m: int, n: int, tail: Fraction) -> tuple[list[tuple[int, int]], int, int]:
    """Completion counts c_k (p_k = c_k / m^k) down to the tail bound.

    ``live[j]`` counts strings of the current length that have not yet
    finished and end in exactly j marked symbols.  Returns the rows
    (k, c_k) for k >= n, the last step K and the still-live count at K,
    so the tail is live / m^K.
    """
    live = [1] + [0] * (n - 1)
    rows = []
    k, total, scale = 0, 1, 1
    while total * tail.denominator > tail.numerator * scale:
        k += 1
        scale *= m
        done = live[-1]
        live = [(m - 1) * total] + live[:-1]
        total = sum(live)
        if k >= n:
            rows.append((k, done))
        else:
            require(done == 0, "walk completed before n steps")
    return rows, k, total


# ------------------------------------------------------------ per command


def check_distribution(fields: dict, rows: list[dict], m: int, n: int, tail_bound: Fraction) -> None:
    _check_header(fields, "distribution", {"m": m, "n": n})
    expected, last_k, live = walk_counts(m, n, tail_bound)
    _same("row count", len(rows), len(expected))
    scale = m**last_k
    mass = 0  # sum of p_k, in units of 1 / m^K
    weighted = 0  # sum of k * p_k, same units
    for row, (k, count) in zip(rows, expected):
        _same("k", int(row["k"]), k)
        num, den = ratio(row["exact"])
        require(
            num * m**k == count * den and math.gcd(num, den) == 1 and den > 0,
            f"p_{k}: printed {row['exact']}, expected {count}/{m}^{k} in lowest terms",
        )
        _same(f"p_{k} float", float(row["float"]), count / m**k)
        mass += count * m ** (last_k - k)
        weighted += k * count * m ** (last_k - k)
    tail = Fraction(live, scale)
    require(mass + live == scale, "tail plus the listed p_k is not exactly 1")
    mean, _ = first_step_moments(m, n)
    truncated = Fraction(weighted, scale)
    gap = tail * (last_k + mean)
    require(truncated <= mean <= truncated + gap, "mean outside [truncated, truncated + gap]")
    if "tail" in fields:
        _same("tail", exact(fields["tail"]), tail)
        _same("tail_bound", exact(fields["tail_bound"]), tail_bound)
        _same("tail_float", float(fields["tail_float"]), float(tail))
        _same("cumulative", exact(fields["cumulative"]), 1 - tail)
        _same("truncated_mean", exact(fields["truncated_mean"]), truncated)
        _same("expectation", exact(fields["expectation"]), mean)
        _same("mean_gap_bound", exact(fields["mean_gap_bound"]), gap)
        require(as_bool(fields["mean_within_bound"]), "mean_within_bound is false")


def check_moments(fields: dict, rows: list[dict], m: int, n: int) -> None:
    _check_header(fields, "moments", {"m": m, "n": n})
    mean, second = first_step_moments(m, n)
    variance = second - mean**2
    _same("expectation", exact(fields["expectation"]), mean)
    _same("second_moment", exact(fields["second_moment"]), second)
    _same("variance", exact(fields["variance"]), variance)
    if fields.get("method") == "both" and m >= 2:
        require(as_bool(fields["routes_agree"]), "routes_agree is false")
    edges, at_least = level_tree_counts(m, n)
    require(mean == edges, f"mean {mean} != T {edges} at m={m}, n={n}")
    require(variance == (m - 1) * sum(at_least), f"Var != (m-1) S at m={m}, n={n}")


def check_tree(fields: dict, rows: list[dict], m: int, n: int) -> None:
    _check_header(fields, "tree", {"m": m, "n": n})
    if sum(m**d for d in range(n + 1)) <= COUNTED_NODES:
        edges, at_least = counted_tree(m, n)
    else:
        edges, at_least = level_tree_counts(m, n)
    path_sum = sum(at_least)
    if "edge_count" in fields:
        _same("edge_count", int(fields["edge_count"]), edges)
        _same("path_sum", int(fields["path_sum"]), path_sum)
        if fields.get("method") == "all":
            require(as_bool(fields["methods_agree"]), "methods_agree is false")
    per_depth = at_least[:] + [0]
    expected = [(d, per_depth[d - 1] - per_depth[d]) for d in range(1, n + 1)]
    _same("per_depth", [(int(r["depth"]), int(r["pairs"])) for r in rows], expected)
    mean, second = first_step_moments(m, n)
    require(mean == edges, f"mean {mean} != T {edges} at m={m}, n={n}")
    require(second - mean**2 == (m - 1) * path_sum, f"Var != (m-1) S at m={m}, n={n}")


def check_verify(fields: dict, rows: list[dict], m_max: int, n_max: int, matrix_cap: int = 8) -> None:
    _check_header(fields, "verify", {"m_max": m_max, "n_max": n_max})
    cells = [(m, n) for m in range(1, m_max + 1) for n in range(1, n_max + 1)]
    _same("cells", [(int(r["m"]), int(r["n"])) for r in rows], cells)
    for row, (m, n) in zip(rows, cells):
        require(as_bool(row["closed_ok"]) and as_bool(row["ok"]), f"cell ({m}, {n}) not ok")
        matrix_ok = row["matrix_ok"]
        if m == 1 or n > matrix_cap:
            require(matrix_ok in (None, "None", ""), f"cell ({m}, {n}) ran the matrix route")
        else:
            require(as_bool(matrix_ok), f"cell ({m}, {n}) matrix route not ok")
        if m >= 2:
            mean, second = first_step_moments(m, n)
            edges, at_least = level_tree_counts(m, n)
            require(mean == edges and second - mean**2 == (m - 1) * sum(at_least),
                    f"identities fail at ({m}, {n})")
    if "checked" in fields:
        _same("checked", int(fields["checked"]), len(cells))
        _same("failures", int(fields["failures"]), 0)
        require(as_bool(fields["all_ok"]), "all_ok is false")


def check_sequence(fields: dict, rows: list[dict], name: str, count: int) -> None:
    _check_header(fields, "sequence", {"count": count})
    require(name == "A286778", f"no independent check for sequence {name}")
    expected = []
    for n in range(1, count + 1):
        mean, second = first_step_moments(2, n)
        expected.append((n, second - mean**2))
    _same("terms", [(int(r["n"]), exact(r["value"])) for r in rows], expected)


def check_spectrum(fields: dict, rows: list[dict], m: int, n: int) -> None:
    _check_header(fields, "spectrum", {"m": m, "n": n})
    coeffs = [1] + [-(m - 1)] * n
    if "char_coeffs" in fields:
        _same("char_coeffs", list(fields["char_coeffs"]), coeffs)
        _same("transformed_coeffs", list(fields["transformed_coeffs"]),
              [-1, m] + [0] * (n - 1) + [-(m - 1)])
    _same("root count", len(rows), n)
    roots = [complex(float(r["re"]), float(r["im"])) for r in rows]
    for row, z in zip(rows, roots):
        value = 0j
        for c in coeffs:
            value = value * z + c
        bound = ROOT_RESIDUAL_TOL * (1.0 + abs(z) ** (n + 1))
        require(abs(value) <= bound, f"root {z}: |p(z)| = {abs(value):.3e} above {bound:.3e}")
        require(float(row["residual"]) <= bound, f"root {z}: printed residual above {bound:.3e}")
        _same("modulus", float(row["modulus"]), abs(z))
    total = sum(roots)
    require(abs(total - (m - 1)) <= VIETA_TOL, f"root sum {total} != m - 1 = {m - 1}")
    top = max(abs(z) for z in roots)
    if "rho_estimate" in fields:
        _same("max_modulus", float(fields["max_modulus"]), top)
        _same("margin", float(fields["margin"]), m - top)
        _same("rho_from_roots", float(fields["rho_from_roots"]), top / m)
        rho = float(fields["rho_estimate"])
        require(abs(rho - top / m) <= RADIUS_AGREEMENT_TOL, f"rho_estimate {rho} vs {top / m}")
        require(as_bool(fields["bound_ok"]), "bound_ok is false")


def check_simulate(fields: dict, rows: list[dict], m: int, n: int, trials: int, seed: int) -> None:
    _check_header(fields, "simulate", {"m": m, "n": n})
    histogram = [(int(r["length"]), int(r["count"])) for r in rows]
    _same("histogram total", sum(c for _, c in histogram), trials)
    lengths = [length for length, _ in histogram]
    require(lengths == sorted(set(lengths)), "histogram lengths not strictly increasing")
    require(lengths[0] >= n, f"a string of length {lengths[0]} < n = {n}")
    total = sum(length * c for length, c in histogram)
    total_sq = sum(length * length * c for length, c in histogram)
    mean = float(Fraction(total, trials))
    variance = float(Fraction(trials * total_sq - total * total, trials * (trials - 1)))
    std_error = math.sqrt(variance / trials)
    exact_mean, exact_second = first_step_moments(m, n)
    require(abs(mean - float(exact_mean)) <= SAMPLE_MEAN_SE * std_error or variance == 0,
            f"sample mean {mean} more than {SAMPLE_MEAN_SE} SE from {float(exact_mean)}")
    if "mean" in fields:
        _same("trials", int(fields["trials"]), trials)
        _same("seed", int(fields["seed"]), seed)
        _same("mean", float(fields["mean"]), mean)
        _same("variance", float(fields["variance"]), variance)
        _same("std_error_of_mean", float(fields["std_error_of_mean"]), std_error)
        _same("min_len", int(fields["min_len"]), lengths[0])
        _same("max_len", int(fields["max_len"]), lengths[-1])
        _same("exact_expectation", exact(fields["exact_expectation"]), exact_mean)
        _same("exact_variance", exact(fields["exact_variance"]), exact_second - exact_mean**2)


def check_output(argv: list[str], text: str) -> None:
    """Check one successful command's output, given the argv that made it."""
    words, options = [], {"--format": "table", "--method": None, "--tail": "1e-6"}
    args = iter(argv)
    for word in args:
        if word in options:
            options[word] = next(args)
        else:
            words.append(word)
    fields, rows = parse(text, options["--format"])
    command, positional = words[0], words[1:]
    if command == "sequence":
        check_sequence(fields, rows, positional[0], int(positional[1]))
        return
    numbers = [int(word) for word in positional]
    if command == "distribution":
        check_distribution(fields, rows, *numbers, Fraction(options["--tail"]))
    elif command == "moments":
        check_moments(fields, rows, *numbers)
    elif command == "tree":
        check_tree(fields, rows, *numbers)
    elif command == "verify":
        check_verify(fields, rows, *numbers)
    elif command == "spectrum":
        check_spectrum(fields, rows, *numbers)
    elif command == "simulate":
        check_simulate(fields, rows, *numbers)
    else:
        raise CheckError(f"no check for command {command!r}")
