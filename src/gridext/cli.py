"""Command line interface.

Subcommands: count, enumerate, sample, jumps, pits, graph, bounds, verify,
conjecture-scan.  Global flags: --seed, --format {json,csv,text}, --out,
--cap.  Exit codes: 0 ok, 1 assertion failure, 2 usage error, 3 resource
cap exceeded.

Runs are deterministic: fixed flags and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys

from ._version import __version__
from .bounds import bound_reports
from .counting import (
    count_extensions,
    factorial_product_lower_bound,
    width_power_upper_bound,
)
from .errors import DomainError, GridextError, ResourceCapError
from .grid import GridShape
from .jumps import jump_times, pits_counts, read_extensions_file, write_index_orders
from .sampling import SamplerConfig, jump_stats_from_orders, sample_orders
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
    try:
        lengths = tuple(int(part) for part in token.lower().split("x"))
    except ValueError:
        raise DomainError(f"malformed shape {token!r}; expected the form 3x3 or 2x2x2") from None
    return GridShape(lengths)


def _resolve_shape(args) -> GridShape:
    has_mn = args.m is not None or args.n is not None
    if args.shape and has_mn:
        raise DomainError("give either --shape or --m/--n, not both")
    if args.shape:
        return _parse_shape_token(args.shape)
    if args.m is not None and args.n is not None:
        return GridShape.equilateral(args.m, args.n)
    raise DomainError("a shape is required: --shape AxBxC, or --m M --n N")


def _resolve_format(args, default: str, allowed: tuple[str, ...]) -> str:
    fmt = args.format or default
    if fmt not in allowed:
        raise DomainError(f"format {fmt!r} not supported here; choose from {', '.join(allowed)}")
    return fmt


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


def cmd_count(args) -> int:
    shape = _resolve_shape(args)
    fmt = _resolve_format(args, "json", ("json", "csv", "text"))
    count = count_extensions(shape, args.cap)
    lower = factorial_product_lower_bound(shape)
    upper = width_power_upper_bound(shape)
    if fmt == "json":
        _emit(
            args,
            _json(
                {
                    "version": __version__,
                    "shape": list(shape.lengths),
                    "count": str(count),
                    "lower_factorial": str(lower),
                    "upper_width_power": str(upper),
                }
            ),
        )
    elif fmt == "csv":
        _emit(
            args,
            _csv_table(
                ["shape", "count", "lower_factorial", "upper_width_power"],
                [[str(shape), str(count), str(lower), str(upper)]],
            ),
        )
    else:
        _emit(
            args,
            f"shape: {shape}\ncount: {count}\nlower_factorial: {lower}\nupper_width_power: {upper}\n",
        )
    return 0


def cmd_enumerate(args) -> int:
    shape = _resolve_shape(args)
    _resolve_format(args, "text", ("text",))
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
    while block := list(itertools.islice(orders, 1024)):
        write_index_orders(fh, block)
        yield from block


def cmd_sample(args) -> int:
    shape = _resolve_shape(args)
    _resolve_format(args, "json", ("json",))
    cfg = SamplerConfig(
        method=args.method,
        seed=args.seed,
        mcmc_steps=args.mcmc_steps,
        laziness=args.laziness,
    )
    orders = sample_orders(shape, cfg, args.samples, args.cap)
    # The first draw comes before --out is opened, so a refusal leaves no file.
    orders = itertools.chain([next(orders)], orders)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            stats = jump_stats_from_orders(shape, _written(fh, orders))
    else:
        stats = jump_stats_from_orders(shape, orders)
    payload = {
        "version": __version__,
        "config": {
            "shape": list(shape.lengths),
            "method": cfg.method,
            "seed": cfg.seed,
            "samples": stats.samples,
            "mcmc_steps": cfg.mcmc_steps,
            "laziness": cfg.laziness,
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
    shape = _resolve_shape(args)
    fmt = _resolve_format(args, "csv", ("csv", "json"))
    extensions = read_extensions_file(args.infile, shape)
    records = []
    for i, ext in enumerate(extensions, start=1):
        times = jump_times(shape, ext.indices)
        records.append((i, len(times), times, pits_counts(shape, ext.indices)))
    if fmt == "csv":
        rows = [
            [i, degree, " ".join(map(str, times)), " ".join(map(str, counts))]
            for i, degree, times, counts in records
        ]
        _emit(args, _csv_table(["extension", "degree", "jump_times", "pits"], rows))
    else:
        payload = [
            {"extension": i, "degree": degree, "jump_times": list(times), "pits": list(counts)}
            for i, degree, times, counts in records
        ]
        _emit(args, _json(payload))
    return 0


def cmd_pits(args) -> int:
    shape = _resolve_shape(args)
    fmt = _resolve_format(args, "csv", ("csv", "json"))
    extensions = read_extensions_file(args.infile, shape)
    if not extensions:
        raise DomainError(f"no extensions found in {args.infile}")
    profiles = [pits_counts(shape, ext.indices) for ext in extensions]
    size = shape.size
    if args.mean:
        means = [sum(p[k] for p in profiles) / len(profiles) for k in range(size)]
        if fmt == "csv":
            rows = [[k + 1, f"{means[k]:.10g}"] for k in range(size)]
            _emit(args, _csv_table(["time", "mean_pits"], rows))
        else:
            _emit(args, _json({"times": list(range(1, size + 1)), "mean_pits": means}))
    else:
        if fmt == "csv":
            header = ["extension"] + [f"t{k}" for k in range(1, size + 1)]
            rows = [[i + 1, *profile] for i, profile in enumerate(profiles)]
            _emit(args, _csv_table(header, rows))
        else:
            _emit(args, _json([list(p) for p in profiles]))
    return 0


def cmd_graph(args) -> int:
    shape = _resolve_shape(args)
    fmt = _resolve_format(args, "json", ("json", "text"))
    graph = build_graph(shape, cap=args.cap)
    stats = graph_stats(graph)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.writelines(dot_blocks(graph))
    payload = {
        "version": __version__,
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
    if fmt == "json":
        _emit(args, _json(payload))
    else:
        lines = [f"{key}: {value}" for key, value in payload.items() if key != "version"]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_bounds(args) -> int:
    fmt = _resolve_format(args, "json", ("json", "csv", "text"))
    reports = bound_reports(args.m, args.n, R=args.R, delta=args.delta)
    if fmt == "json":
        _emit(args, _json([r.to_dict() for r in reports]))
    elif fmt == "csv":
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
    fmt = _resolve_format(args, "text", ("text", "json"))
    if args.cap is None:
        cfg = VerifyConfig(seed=args.seed)
    else:
        cfg = VerifyConfig(seed=args.seed, state_cap=args.cap)
    reports = run_suite(args.suite, cfg)
    if fmt == "json":
        _emit(args, _json([r.to_dict() for r in reports]))
    else:
        _emit(args, "\n".join(r.to_text() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_conjecture_scan(args) -> int:
    fmt = _resolve_format(args, "csv", ("csv", "json"))
    shapes = []
    n = 2
    while 2**n <= args.max_size:
        m = 2
        while m**n <= args.max_size:
            shapes.append((m, n))
            m += 1
        n += 1
    shapes.sort(key=lambda mn: (mn[0] ** mn[1], mn[1], mn[0]))

    rows = []
    for m, n in shapes:
        shape = GridShape.equilateral(m, n)
        size = shape.size
        count = count_extensions(shape, args.cap)
        if count <= EXACT_SCAN_LIMIT:
            mean = float(exhaustive_mean_degree(shape))
            stderr = 0.0
            method = "exhaustive"
            used = count
        else:
            cfg = SamplerConfig(method="exact", seed=args.seed)
            stats = jump_stats_from_orders(shape, sample_orders(shape, cfg, args.samples, args.cap))
            mean = stats.mean_degree
            stderr = stats.degree_stderr
            method = "sampled"
            used = stats.samples
        rows.append(
            {
                "m": m,
                "n": n,
                "size": size,
                "count": str(count),
                "method": method,
                "samples": used,
                "mean_degree": mean,
                "stderr": stderr,
                "ratio": mean / size,
            }
        )

    if fmt == "json":
        _emit(args, _json({"version": __version__, "seed": args.seed, "rows": rows}))
    else:
        comments = [
            f"gridext {__version__} conjecture-scan",
            f"max_size={args.max_size} samples={args.samples} seed={args.seed} exact_limit={EXACT_SCAN_LIMIT}",
        ]
        table = [
            [
                r["m"],
                r["n"],
                r["size"],
                r["count"],
                r["method"],
                r["samples"],
                f"{r['mean_degree']:.10g}",
                f"{r['stderr']:.10g}",
                f"{r['ratio']:.10g}",
            ]
            for r in rows
        ]
        header = ["m", "n", "size", "count", "method", "samples", "mean_degree", "stderr", "ratio"]
        _emit(args, _csv_table(header, table, comments))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridext",
        description="Exact and randomized analysis of linear extensions of grid posets.",
    )
    parser.add_argument("--version", action="version", version=f"gridext {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (64-bit)")
    common.add_argument("--format", choices=("json", "csv", "text"), default=None)
    common.add_argument("--out", default=None, help="write the primary output to this file")
    common.add_argument("--cap", type=int, default=None, help="resource cap override")

    shaped = argparse.ArgumentParser(add_help=False)
    shaped.add_argument("--shape", default=None, help="chain lengths, e.g. 3x3 or 2x2x2")
    shaped.add_argument("--m", type=int, default=None, help="equal chain length")
    shaped.add_argument("--n", type=int, default=None, help="number of chains")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common, shaped], help="exact extension count and integer bounds")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", parents=[common, shaped], help="list every extension, one per line")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sample", parents=[common, shaped], help="draw random extensions and summarize them")
    p.add_argument("--method", choices=("exact", "mcmc"), default="exact")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--mcmc-steps", type=int, default=10_000, dest="mcmc_steps")
    p.add_argument("--laziness", type=float, default=0.5)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("jumps", parents=[common, shaped], help="jump statistics of extensions from a file")
    p.add_argument("--in", dest="infile", required=True, help="extension file to analyze")
    p.set_defaults(func=cmd_jumps)

    p = sub.add_parser("pits", parents=[common, shaped], help="pits profiles of extensions from a file")
    p.add_argument("--in", dest="infile", required=True, help="extension file to analyze")
    p.add_argument("--mean", action="store_true", help="aggregate to mean pits per time")
    p.set_defaults(func=cmd_pits)

    p = sub.add_parser("graph", parents=[common, shaped], help="build the swap graph and report statistics")
    p.add_argument("--dot", default=None, help="also write a DOT rendering to this file")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("bounds", parents=[common], help="evaluate closed-form bounds with vacuity flags")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", parents=[common], help="run a named verification suite")
    p.add_argument("--suite", required=True, help="counting, bounds, extremes, entropy, sampling, or all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "conjecture-scan",
        parents=[common],
        help="mean jump count over equal-chain grids, exact or sampled",
    )
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
