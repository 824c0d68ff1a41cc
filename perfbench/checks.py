"""Output checks for the benchmark's CLI commands.

Every check returns a list of problems (empty when the output is right).
The checks are semantic, so they hold for any seed: exit status, report
verdicts, the length and validity of every extension file, and agreement
between commands that describe the same draws.  On the default seed the
caller also compares sha256 digests against those recorded at the seed
commit.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from gridext import (
    GridShape,
    count_extensions,
    exhaustive_mean_degree,
    read_extensions_file,
)
from gridext.errors import GridextError
from workloads import scan_shapes, shape_lengths


def parse_shape(token: str) -> GridShape:
    return GridShape(shape_lengths(token))


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))


def _check_sample(cmd: dict, stdout: str, workdir: Path, shape: GridShape, ctx: dict) -> list[str]:
    problems = []
    payload = json.loads(stdout)
    n = cmd["samples"]
    if payload["config"]["samples"] != n:
        problems.append(f"summary reports {payload['config']['samples']} samples, asked for {n}")
    if sum(payload["histogram"].values()) != n:
        problems.append("degree histogram does not sum to the sample count")
    if len(payload["mean_pits_profile"]) != shape.size:
        problems.append("mean pits profile has the wrong length")
    for name in cmd["out"]:
        try:
            exts = read_extensions_file(workdir / name, shape)
        except (OSError, GridextError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        if len(exts) != n:
            problems.append(f"{name} holds {len(exts)} extensions, asked for {n}")
    exact_mean = ctx.get("exact_mean_degree")
    if "--method" not in cmd["argv"] and exact_mean is not None and n > 1:
        # An exact sampler's mean must sit within 6 standard errors of the
        # exact mean; a correct sampler misses this about once in 10^9 runs.
        if abs(payload["mean_degree"] - exact_mean) > 6 * payload["stderr"] + 1e-12:
            problems.append(f"mean degree {payload['mean_degree']} is off the exact {exact_mean}")
    ctx[cmd["label"]] = payload
    return problems


def _check_pits_mean(cmd: dict, stdout: str, shape: GridShape, ctx: dict) -> list[str]:
    rows = _csv_rows(stdout)
    if rows[0] != ["time", "mean_pits"] or len(rows) != shape.size + 1:
        return ["pits table has the wrong header or length"]
    means = [float(r[1]) for r in rows[1:]]
    source = ctx[cmd["source"]]["mean_pits_profile"]
    if not all(math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-8) for a, b in zip(means, source)):
        return ["mean pits differ from the sample summary of the same file"]
    return []


def _check_jumps(cmd: dict, stdout: str, shape: GridShape, ctx: dict) -> list[str]:
    rows = _csv_rows(stdout)
    source = ctx[cmd["source"]]
    if rows[0] != ["extension", "degree", "jump_times", "pits"]:
        return ["jumps table has the wrong header"]
    body = rows[1:]
    problems = []
    if len(body) != source["config"]["samples"]:
        problems.append(f"jumps table has {len(body)} rows, file holds {source['config']['samples']}")
    for r in body:
        if int(r[1]) != len(r[2].split()) or len(r[3].split()) != shape.size:
            problems.append(f"row {r[0]} is inconsistent")
            break
    mean = sum(int(r[1]) for r in body) / len(body) if body else None
    if mean is not None and not math.isclose(mean, source["mean_degree"], rel_tol=1e-9, abs_tol=1e-9):
        problems.append("mean degree differs from the sample summary of the same file")
    return problems


def _check_verify(stdout: str) -> list[str]:
    verdicts = [line for line in stdout.splitlines() if line.startswith("result: ")]
    if not verdicts or any(not v.startswith("result: PASS") for v in verdicts):
        return [f"verify verdicts: {verdicts}"]
    return []


def _check_scan(cmd: dict, stdout: str, ctx: dict) -> list[str]:
    rows = _csv_rows(stdout)
    header, body = rows[0], rows[1:]
    expected = scan_shapes(cmd["max_size"])
    got = [(int(r[header.index("m")]), int(r[header.index("n")])) for r in body]
    if got != expected:
        return [f"scan rows {got}, expected {expected}"]
    problems = []
    ctx[cmd["label"]] = {}
    for r in body:
        row = dict(zip(header, r))
        shape = GridShape.equilateral(int(row["m"]), int(row["n"]))
        ctx[cmd["label"]][shape.lengths] = row
        if int(row["count"]) != count_extensions(shape):
            problems.append(f"{shape}: count {row['count']} is wrong")
        mean = float(row["mean_degree"])
        if not (0 < mean < shape.size - 1) or int(row["samples"]) < 1:
            problems.append(f"{shape}: mean degree {mean} out of range")
    return problems


def _check_graph(cmd: dict, stdout: str, workdir: Path, shape: GridShape, ctx: dict) -> list[str]:
    payload = json.loads(stdout)
    problems = []
    if payload["vertices"] != count_extensions(shape):
        problems.append(f"graph has {payload['vertices']} vertices, shape has {count_extensions(shape)} extensions")
    if not payload["connected"]:
        problems.append("swap graph reported disconnected")
    degree_sum = sum(int(d) * c for d, c in payload["degree_histogram"].items())
    if degree_sum != 2 * payload["edges"]:
        problems.append("degree histogram disagrees with the edge count")
    dot = (workdir / "graph.dot").read_text(encoding="utf-8")
    if dot.count(" -- ") != payload["edges"]:
        problems.append("DOT file edge count differs from the summary")
    # conjecture-scan lists this shape exactly, so the two must agree.
    row = ctx[cmd["source"]].get(shape.lengths)
    num, _, den = payload["avg_deg_exact"].partition("/")
    if row is not None and float(row["mean_degree"]) != float(f"{int(num) / int(den or 1):.10g}"):
        problems.append(f"scan mean degree {row['mean_degree']} differs from the graph's {payload['avg_deg_exact']}")
    return problems


def check_command(cmd: dict, returncode: int, stdout: str, workdir: Path, ctx: dict) -> list[str]:
    """Problems with one command's exit status and outputs."""
    if returncode != 0:
        return [f"exit status {returncode}"]
    shape = parse_shape(cmd["shape"]) if cmd["shape"] else None
    kind = cmd["kind"]
    try:
        if kind == "sample":
            return _check_sample(cmd, stdout, workdir, shape, ctx)
        if kind == "pits-mean":
            return _check_pits_mean(cmd, stdout, shape, ctx)
        if kind == "jumps":
            return _check_jumps(cmd, stdout, shape, ctx)
        if kind == "verify":
            return _check_verify(stdout)
        if kind == "scan":
            return _check_scan(cmd, stdout, ctx)
        if kind == "graph":
            return _check_graph(cmd, stdout, workdir, shape, ctx)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]
    raise KeyError(kind)


def reference_context(workload: str, shape_token: str) -> dict:
    """Exact values the checks compare sampled output against."""
    shape = parse_shape(shape_token)
    if workload == "small-support":
        return {"exact_mean_degree": float(exhaustive_mean_degree(shape))}
    return {}
