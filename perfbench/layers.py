"""Traced per-layer pass of one benchmark workload, in a fresh interpreter.

Makes the calls that the workload's CLI commands make, straight into each
module's public functions, with a span (name, start, end, parent, run id)
around every call.  Spans stay in memory and are written to ``--spans`` at
the end; the last line of stdout is ``{"metrics": {...}, "problems": [...]}``.

Every per-layer metric is reported on every workload, so the layers that
``small-support``'s commands never reach are timed on probes there:
enumeration and the swap graph on 3x3, and the four verify suites.  The
entropy and low-pits enumerations run on the verify shapes everywhere.
Compare a per-layer metric across commits on the same workload only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
from workloads import (  # noqa: E402
    DEFICIT_MN,
    DEFICIT_RS,
    ENTROPY_MN,
    VERIFY_SUITES,
    scan_shapes,
    shape_lengths,
    sizes_for,
)

# Exact values that must repeat on every run: (down-sets, extensions).
KNOWN = {"3x3": (20, 42), "4x4": (70, 24024), "4x4x4": (232_848, None), "3x3x3": (980, None)}
TRANSPOSITION_PROBE = "3x3"
# conjecture-scan answers exactly up to this many extensions, else samples.
SCAN_EXACT_LIMIT = 100_000


class Tracer:
    """In-memory spans sharing one run id; ``span`` nests by call order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, units: int = 1):
        return _Span(self, name, units)

    def total(self, name: str) -> tuple[float, int]:
        """Summed seconds and units of every span with this name."""
        done = [s for s in self.spans if s["name"] == name]
        return sum(s["end_ns"] - s["start_ns"] for s in done) / 1e9, sum(s["units"] for s in done)

    def per_unit(self, name: str, scale: float) -> float:
        seconds, units = self.total(name)
        return seconds / units * scale


class _Span:
    def __init__(self, tracer: Tracer, name: str, units: int):
        self.tracer, self.name, self.units = tracer, name, units

    def __enter__(self):
        t = self.tracer
        self.record = {"run": t.run_id, "id": len(t.spans), "parent": t._stack[-1] if t._stack else None,
                       "name": self.name, "units": self.units, "start_ns": 0, "end_ns": 0}
        t.spans.append(self.record)
        t._stack.append(self.record["id"])
        self.record["start_ns"] = time.perf_counter_ns()
        return self.record

    def __exit__(self, *exc):
        self.record["end_ns"] = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced per-layer pass of one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload, seed, sizes = args.workload, args.seed, sizes_for(args.workload, args.smoke)
    tr = Tracer(f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}")
    problems: list[str] = []
    metrics: dict[str, float] = {}

    with tr.span("workload"):
        with tr.span("cli.import"):
            import gridext.cli

            gridext.cli.build_parser()
        import gridext as gx

        with tr.span("grid.tables"):
            shape = gx.GridShape(shape_lengths(sizes["shape"]))
            shape.coords_table, shape.upper_covers, shape.lower_cover_masks

        rss_before = _peak_rss_mb()
        with tr.span("counting.dp"):
            table = gx.completion_counts(shape)
        metrics["counting.dp_alloc_peak_mb"] = _peak_rss_mb() - rss_before
        metrics["counting.dp_states"] = len(table)
        metrics["counting.dp_peak_level_states"] = max(Counter(bin(d).count("1") for d in table).values())
        known_states = KNOWN.get(sizes["shape"], (None, None))[0]
        if known_states is not None and len(table) != known_states:
            problems.append(f"{shape}: {len(table)} DP states, expected {known_states}")

        exhaustive = "scan_max_size" in sizes
        if exhaustive:
            _verify(tr, gx, seed, metrics, problems)
            with tr.span("scan"):
                _scan(tr, gx, seed, sizes)

        steps, chains = sizes["mcmc_steps"], sizes["mcmc_chains"]
        with tr.span("sampling.walk", units=steps * chains):
            finals = gx.mcmc_ensemble(shape, steps, chains, seed)
        orders = [tuple(row) for row in finals.tolist()]
        with tr.span("sampling.stats", units=len(orders)):
            gx.jump_stats_from_orders(shape, orders)

        n = sizes["exact_samples"]
        with tr.span("sampling.exact_init"):
            sampler = gx.ExactSampler(shape, seed)
        with tr.span("sampling.exact_draws", units=n):
            orders = [sampler.sample_indices() for _ in range(n)]
        with tr.span("sampling.stats", units=n):
            stats = gx.jump_stats_from_orders(shape, orders)
        exts = [gx.LinearExtension(shape, o) for o in orders]
        path = args.workdir / "layers-exact.txt"
        with tr.span("jumps.write", units=n):
            gx.write_extensions_file(path, exts)
        with tr.span("jumps.read", units=n):
            back = gx.read_extensions_file(path, shape)
        if [e.indices for e in back] != orders:
            problems.append("extension file did not read back as written")
        with tr.span("jumps.jump_times", units=n):
            degrees = [len(gx.jump_times(shape, e.indices)) for e in back]
        with tr.span("jumps.pits_counts", units=n):
            for e in back:
                gx.pits_counts(shape, e.indices)
        if abs(sum(degrees) / n - stats.mean_degree) > 1e-9:
            problems.append("per-order jump counts disagree with the sample statistics")

        with tr.span("sampling.entropy"):
            for m, k in ENTROPY_MN:
                gx.entropy_profile_exact(gx.GridShape.equilateral(m, k))
        with tr.span("sampling.deficit"):
            for m, k in DEFICIT_MN:
                gx.exact_pits_deficit_fractions(gx.GridShape.equilateral(m, k), DEFICIT_RS)

        graph_shape = gx.GridShape(shape_lengths(sizes.get("graph_shape", TRANSPOSITION_PROBE)))
        with tr.span("transposition.enumerate") as sp:
            enumerated = list(gx.enumerate_index_orders(graph_shape))
            sp["units"] = len(enumerated)
        with tr.span("transposition.build_graph"):
            graph = gx.build_graph(graph_shape)
        with tr.span("transposition.graph_stats"):
            gstats = gx.graph_stats(graph)
        if exhaustive:
            with tr.span("transposition.to_dot"):
                (args.workdir / "layers-graph.dot").write_text(gx.to_dot(graph), encoding="utf-8")
        with tr.span("transposition.mean_degree"):
            mean_degree = gx.exhaustive_mean_degree(graph_shape)
        with tr.span("transposition.backtracking"):
            backtracked = gx.backtracking_count(graph_shape)
        metrics["transposition.enum_orders"] = len(enumerated)
        graph_exts = KNOWN[str(graph_shape)][1]
        if not (len(enumerated) == gstats.vertices == backtracked == graph_exts):
            problems.append(f"{graph_shape}: enumeration, graph and backtracking disagree")
        if mean_degree != gstats.avg_degree:
            problems.append(f"{graph_shape}: exhaustive mean degree differs from the graph's")

        if not exhaustive:
            _verify(tr, gx, seed, metrics, problems)

    for layer in ("grid.tables", "counting.dp", "sampling.entropy", "sampling.deficit",
                  "transposition.build_graph", "transposition.graph_stats",
                  "transposition.mean_degree", "transposition.backtracking"):
        metrics[f"{layer}_s"] = tr.total(layer)[0]
    metrics["cli.import_s"] = tr.total("cli.import")[0]
    metrics["sampling.exact_draw_us"] = tr.per_unit("sampling.exact_draws", 1e6)
    metrics["sampling.walk_ns_per_chain_step"] = tr.per_unit("sampling.walk", 1e9)
    metrics["sampling.stats_us_per_order"] = tr.per_unit("sampling.stats", 1e6)
    metrics["jumps.read_us_per_ext"] = tr.per_unit("jumps.read", 1e6)
    metrics["jumps.write_us_per_ext"] = tr.per_unit("jumps.write", 1e6)
    metrics["jumps.jump_times_us"] = tr.per_unit("jumps.jump_times", 1e6)
    metrics["jumps.pits_counts_us"] = tr.per_unit("jumps.pits_counts", 1e6)
    metrics["transposition.enum_us_per_order"] = tr.per_unit("transposition.enumerate", 1e6)
    for suite in VERIFY_SUITES:
        metrics[f"verify.{suite}_s"] = tr.total(f"verify.{suite}")[0]

    args.spans.write_text(json.dumps(tr.spans) + "\n")
    print(json.dumps({"metrics": metrics, "problems": problems}))
    return 0


def _verify(tr: Tracer, gx, seed: int, metrics: dict, problems: list) -> None:
    from gridext.verify import VerifyConfig, run_suite

    failed = 0
    for suite in VERIFY_SUITES:
        with tr.span(f"verify.{suite}"):
            reports = run_suite(suite, VerifyConfig(seed=seed))
        failed += sum(1 for r in reports for c in r.checks if not c.passed)
    metrics["verify.failed_checks"] = failed
    if failed:
        problems.append(f"{failed} verify checks failed")


def _scan(tr: Tracer, gx, seed: int, sizes: dict) -> None:
    """The library calls behind ``conjecture-scan``: an exact mean jump count
    per equal-chain shape when its extensions can be listed, else a sample."""
    for m, n in scan_shapes(sizes["scan_max_size"]):
        shape = gx.GridShape.equilateral(m, n)
        if gx.count_extensions(shape) <= SCAN_EXACT_LIMIT:
            with tr.span("transposition.scan_mean_degree"):
                gx.exhaustive_mean_degree(shape, cap=SCAN_EXACT_LIMIT)
        else:
            k = sizes["scan_samples"]
            sampler = gx.ExactSampler(shape, seed)
            with tr.span("sampling.exact_draws", units=k):
                orders = [sampler.sample_indices() for _ in range(k)]
            with tr.span("sampling.stats", units=k):
                gx.jump_stats_from_orders(shape, orders)


if __name__ == "__main__":
    sys.exit(main())
