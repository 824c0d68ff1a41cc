"""Command line interface.

Subcommands: count, enumerate, sample, jumps, pits, graph, bounds, verify,
conjecture-scan.  Global flags: --seed, --out.  The six grid commands
require --shape AxBxC; --m and --n are bounds' formula parameters.
--format is registered by the commands with more than one output format,
with that command's own choices and default; --cap, at least 1, by the
commands that build a DP table or list extensions (count, enumerate,
sample, graph, conjecture-scan).  Flags are taken only as written in
full.  Exit codes: 0 ok, 1 assertion failure, 2 usage error, 3 resource
cap exceeded.

Runs are deterministic: fixed flags and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import heapq
import io
import itertools
import json
import os
import sys

from ._version import __version__
from .bounds import bound_reports
from .counting import (
    _check_cap,
    count_extensions,
    factorial_product_lower_bound,
    width_power_upper_bound,
)
from .errors import DomainError, GridextError, ResourceCapError
from .grid import GridShape
from .jumps import jump_pit_blocks, read_extensions_file, write_index_orders
from .sampling import ExactSampler, jump_stats_from_orders, mcmc_ensemble
from .transposition import (
    build_graph,
    dot_blocks,
    enumerate_index_orders,
    exhaustive_mean_degree,
    graph_stats,
)
from .verify import VerifyConfig, run_suite

DEFAULT_SEED = 42
EXACT_SCAN_LIMIT = 100_000


def _parse_shape_token(token: str) -> GridShape:
    parts = token.replace("X", "x").split("x")
    try:
        # ASCII digits only: int() alone also takes signs, spaces, '_' and other scripts' digits.
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError("not a numeral")
        lengths = tuple(map(int, parts))  # also refuses a numeral past int()'s digit limit
    except ValueError:
        raise DomainError(f"malformed shape {token!r}; expected the form 3x3 or 2x2x2") from None
    return GridShape(lengths)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_table(header: list[str], rows: list[list], comments: list[str] | None = None) -> str:
    buf = io.StringIO()
    for comment in comments or []:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _text(record: dict) -> str:
    return "".join(f"{key}: {value}\n" for key, value in record.items())


def cmd_count(args) -> int:
    shape = _parse_shape_token(args.shape)
    record = {
        "shape": shape,
        "count": count_extensions(shape, args.cap),
        "lower_factorial": factorial_product_lower_bound(shape),
        "upper_width_power": width_power_upper_bound(shape),
    }
    if args.format == "json":
        # Counts are decimal strings; the shape is its list of chain lengths.
        strings = {key: str(value) for key, value in record.items()}
        _emit(args, _json({"version": __version__, **strings, "shape": list(shape.lengths)}))
    elif args.format == "csv":
        _emit(args, _csv_table(list(record), [list(record.values())]))
    else:
        _emit(args, _text(record))
    return 0


def cmd_enumerate(args) -> int:
    shape = _parse_shape_token(args.shape)
    # The cap is checked here, before --out is opened, so a refusal leaves no file.
    orders = enumerate_index_orders(shape, cap=args.cap)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            write_index_orders(fh, orders)
    else:
        write_index_orders(sys.stdout, orders)
    return 0


def _written(fh, orders):
    # Passes the orders on once written to fh, 1024 at a time: no list of all
    # orders, and one writer call per block, which costs less than one per order.
    # One iterator over them, so that an array's rows are read once, not the
    # first 1024 again and again.
    orders = iter(orders)
    while block := list(itertools.islice(orders, 1024)):
        write_index_orders(fh, block)
        yield from block


def cmd_sample(args) -> int:
    shape = _parse_shape_token(args.shape)
    # Every flag is checked on both methods before a table is built or --out is opened.
    if args.samples < 1:
        raise DomainError(f"need --samples >= 1, got {args.samples}")
    if args.mcmc_steps < 0:
        raise DomainError(f"--mcmc-steps must be >= 0, got {args.mcmc_steps}")
    if not 0.0 <= args.laziness <= 1.0:
        raise DomainError(f"--laziness must be in [0, 1], got {args.laziness}")
    if args.method == "exact":
        sampler = ExactSampler(shape, args.seed, args.cap)
        orders = (sampler.sample_indices() for _ in range(args.samples))
    elif args.cap is not None:
        raise DomainError("--cap is the exact sampler's DP state cap; the walk (--method mcmc) reads none")
    else:
        # The walk's array as it is: the statistics cut it into blocks.
        orders = mcmc_ensemble(shape, args.mcmc_steps, args.samples, args.seed, args.laziness)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            stats = jump_stats_from_orders(shape, _written(fh, orders))
    else:
        stats = jump_stats_from_orders(shape, orders)
    payload = {
        "version": __version__,
        "config": {
            "shape": list(shape.lengths),
            "method": args.method,
            "seed": args.seed,
            "samples": stats.samples,
            "mcmc_steps": args.mcmc_steps,
            "laziness": args.laziness,
        },
        "mean_degree": stats.mean_degree,
        "stderr": stats.degree_stderr,
        "histogram": {str(d): c for d, c in stats.degree_histogram.items()},
        "mean_pits_profile": list(stats.mean_pits_profile),
        "pits_profile_stderr": list(stats.pits_profile_stderr),
    }
    sys.stdout.write(_json(payload))
    return 0


def cmd_jumps(args) -> int:
    shape = _parse_shape_token(args.shape)
    extensions = read_extensions_file(args.infile, shape)
    fields = ("extension", "degree", "jump_times", "pits")
    records = []
    for jumps, pits in jump_pit_blocks(shape, (ext.indices for ext in extensions)):
        for flags, counts in zip(jumps.tolist(), pits.tolist()):
            times = [k for k, jump in enumerate(flags, start=1) if jump]
            records.append(dict(zip(fields, (len(records) + 1, len(times), times, counts))))
    if args.format == "csv":
        rows = [
            [i, degree, " ".join(map(str, times)), " ".join(map(str, counts))]
            for i, degree, times, counts in map(dict.values, records)
        ]
        _emit(args, _csv_table(list(fields), rows))
    else:
        _emit(args, _json(records))
    return 0


def cmd_pits(args) -> int:
    shape = _parse_shape_token(args.shape)
    extensions = read_extensions_file(args.infile, shape)
    if not extensions:
        raise DomainError(f"no extensions found in {args.infile}")
    size = shape.size
    blocks = (pits for _, pits in jump_pit_blocks(shape, (ext.indices for ext in extensions)))
    if args.mean:
        totals = sum(pits.sum(axis=0) for pits in blocks).tolist()
        means = [total / len(extensions) for total in totals]
        if args.format == "csv":
            rows = [[k + 1, f"{means[k]:.10g}"] for k in range(size)]
            _emit(args, _csv_table(["time", "mean_pits"], rows))
        else:
            _emit(args, _json({"times": list(range(1, size + 1)), "mean_pits": means}))
    else:
        profiles = [profile for pits in blocks for profile in pits.tolist()]
        if args.format == "csv":
            header = ["extension"] + [f"t{k}" for k in range(1, size + 1)]
            rows = [[i + 1, *profile] for i, profile in enumerate(profiles)]
            _emit(args, _csv_table(header, rows))
        else:
            _emit(args, _json(profiles))
    return 0


def cmd_graph(args) -> int:
    shape = _parse_shape_token(args.shape)
    graph = build_graph(shape, cap=args.cap)
    stats = graph_stats(graph)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.writelines(dot_blocks(graph))
    record = {
        "shape": list(shape.lengths),
        "vertices": stats.vertices,
        "edges": stats.edges,
        "min_deg": stats.min_degree,
        "max_deg": stats.max_degree,
        "avg_deg": float(stats.avg_degree),
        "avg_deg_exact": str(stats.avg_degree),
        "degree_histogram": {str(d): c for d, c in stats.degree_histogram.items()},
        "connected": stats.connected,
    }
    if args.format == "json":
        _emit(args, _json({"version": __version__, **record}))
    else:
        _emit(args, _text(record))
    return 0


def cmd_bounds(args) -> int:
    reports = bound_reports(args.m, args.n, R=args.R, delta=args.delta)
    if args.format == "json":
        _emit(args, _json([r.to_dict() for r in reports]))
    elif args.format == "csv":
        rows = [
            [
                r.name,
                f"{r.value:.12g}",
                r.vacuous,
                " ".join(f"{k}={v}" for k, v in r.inputs.items()),
            ]
            for r in reports
        ]
        _emit(args, _csv_table(["name", "value", "vacuous", "inputs"], rows))
    else:
        lines = [
            f"{r.name} = {r.value:.12g} ({'vacuous' if r.vacuous else 'informative'}) at "
            + ", ".join(f"{k}={v}" for k, v in r.inputs.items())
            for r in reports
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, VerifyConfig(seed=args.seed))
    if args.format == "json":
        _emit(args, _json([r.to_dict() for r in reports]))
    else:
        _emit(args, "\n".join(r.to_text() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_conjecture_scan(args) -> int:
    if args.samples < 1:  # before any table is built, whether a row is sampled or not
        raise DomainError(f"need --samples >= 1, got {args.samples}")

    def grids(n):  # (m**n, n, m) for m = 2, 3, ... while m**n <= max-size
        m = 2
        while m**n <= args.max_size:
            yield m**n, n, m
            m += 1

    # The rows come in print order, by size, then n, then m.  Each is held
    # to --cap as it is listed, so the first row over the cap refuses
    # before any row's table is built.
    shapes = []
    for _, n, m in heapq.merge(*map(grids, range(2, args.max_size.bit_length()))):
        shape = GridShape.equilateral(m, n)
        _check_cap(shape, args.cap)
        shapes.append((m, n, shape))

    fields = ("m", "n", "size", "count", "method", "samples", "mean_degree", "stderr", "ratio")
    rows = []
    for m, n, shape in shapes:
        size = shape.size
        count = count_extensions(shape, args.cap)
        if count <= EXACT_SCAN_LIMIT:
            mean = float(exhaustive_mean_degree(shape))
            stderr = 0.0
            method = "exhaustive"
            used = count
        else:
            sampler = ExactSampler(shape, args.seed, args.cap)
            stats = jump_stats_from_orders(shape, (sampler.sample_indices() for _ in range(args.samples)))
            mean = stats.mean_degree
            stderr = stats.degree_stderr
            method = "sampled"
            used = stats.samples
        rows.append(dict(zip(fields, (m, n, size, str(count), method, used, mean, stderr, mean / size))))

    if args.format == "json":
        _emit(args, _json({"version": __version__, "seed": args.seed, "rows": rows}))
    else:
        comments = [
            f"gridext {__version__} conjecture-scan",
            f"max_size={args.max_size} samples={args.samples} seed={args.seed} exact_limit={EXACT_SCAN_LIMIT}",
        ]
        table = [[f"{v:.10g}" if isinstance(v, float) else v for v in r.values()] for r in rows]
        _emit(args, _csv_table(list(fields), table, comments))
    return 0


def positive_int(text: str) -> int:
    # A cap below 1 admits nothing: a usage error, not a refusal.
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridext",
        description="Exact and randomized analysis of linear extensions of grid posets.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"gridext {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (64-bit)")
    common.add_argument("--out", default=None, help="write the primary output to this file")

    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=positive_int, default=None, help="resource cap override")

    shaped = argparse.ArgumentParser(add_help=False)
    shaped.add_argument("--shape", required=True, help="chain lengths, e.g. 3x3 or 2x2x2")

    sub = parser.add_subparsers(dest="command", required=True)
    # A flag is taken only as written in full, so a flag added later cannot
    # change what an abbreviation means.
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("count", parents=[common, capped, shaped], help="exact extension count and integer bounds")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(func=cmd_count)

    p = command("enumerate", parents=[common, capped, shaped], help="list every extension, one per line")
    p.set_defaults(func=cmd_enumerate)

    p = command("sample", parents=[common, capped, shaped], help="draw random extensions and summarize them")
    p.add_argument("--method", choices=("exact", "mcmc"), default="exact")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--mcmc-steps", type=int, default=10_000, dest="mcmc_steps")
    p.add_argument("--laziness", type=float, default=0.5)
    p.set_defaults(func=cmd_sample)

    p = command("jumps", parents=[common, shaped], help="jump statistics of extensions from a file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--in", dest="infile", required=True, help="extension file to analyze")
    p.set_defaults(func=cmd_jumps)

    p = command("pits", parents=[common, shaped], help="pits profiles of extensions from a file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--in", dest="infile", required=True, help="extension file to analyze")
    p.add_argument("--mean", action="store_true", help="aggregate to mean pits per time")
    p.set_defaults(func=cmd_pits)

    p = command("graph", parents=[common, capped, shaped], help="build the swap graph and report statistics")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--dot", default=None, help="also write a DOT rendering to this file")
    p.set_defaults(func=cmd_graph)

    p = command("bounds", parents=[common], help="evaluate closed-form bounds with vacuity flags")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=cmd_bounds)

    p = command("verify", parents=[common], help="run a named verification suite")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--suite", required=True, help="counting, bounds, extremes, entropy, sampling, or all")
    p.set_defaults(func=cmd_verify)

    p = command(
        "conjecture-scan",
        parents=[common, capped],
        help="mean jump count over equal-chain grids, exact or sampled",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--max-size", type=int, default=16, dest="max_size")
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=cmd_conjecture_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GridextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of streamed output left early (`gridext enumerate | head`).
        # Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
