"""Command line interface.

Subcommands: count, enumerate, sample, jumps, pits, graph, bounds, verify,
conjecture-scan.  Every command takes --out; --seed, read by sample,
verify and conjecture-scan, is also taken unread by jumps, pits and graph,
whose benchmark workloads pass it.  The six grid commands require --shape
AxBxC; --m and --n are bounds' formula parameters.
--format is registered by the commands with more than one output format,
with that command's own choices and default; --cap, at least 1, by the
commands that build a DP table or list extensions (count, enumerate,
sample, graph, conjecture-scan).  Flags are taken only as written in
full.  Exit codes: 0 ok, 1 assertion failure, 2 usage error, 3 resource
cap exceeded.

Runs are deterministic: fixed flags and seed give byte-identical output.

Each command imports the modules it calls when it runs, so a run loads
only those: this module's top imports the standard library, errors and
the version alone.  --version, bounds and a malformed --shape load no
numpy.
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
from collections.abc import Iterable

from ._version import __version__
from .errors import DomainError, GridextError, ResourceCapError

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
    from .grid import GridShape  # numpy loads only once the token has parsed

    return GridShape(lengths)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _json_list(blocks: Iterable[list]) -> str:
    """_json of the blocks' items as one list, built a block at a time: a
    nonempty block's text less its "[\n" and "\n]" is its items at depth 1."""
    body = ",\n".join(json.dumps(block, indent=2)[2:-2] for block in blocks if block)
    return f"[\n{body}\n]\n" if body else "[]\n"


def _csv_table(header: list[str], rows: Iterable[list], comments: list[str] | None = None) -> str:
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
    from .counting import count_extensions, factorial_product_lower_bound, width_power_upper_bound

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
    from .jumps import write_index_orders
    from .transposition import enumerate_index_orders

    # The cap is checked here, before --out is opened, so a refusal leaves no file.
    orders = enumerate_index_orders(shape, cap=args.cap)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            write_index_orders(fh, orders)
    else:
        write_index_orders(sys.stdout, orders)
    return 0


def _written(fh, shape, orders):
    # Writes the orders to fh, one writer call per block, and returns what
    # the statistics read: the walk's array itself, written as int lists
    # first, or a stream that passes each block on once written (no list
    # of all orders).
    import numpy as np

    from .jumps import _block_rows, _blocks, write_index_orders

    blocks = _blocks(orders, _block_rows(shape))
    if isinstance(orders, np.ndarray):
        for block in blocks:
            write_index_orders(fh, block.tolist())
        return orders

    def passed():
        for block in blocks:
            write_index_orders(fh, block)
            yield from block

    return passed()


def cmd_sample(args) -> int:
    shape = _parse_shape_token(args.shape)
    # Every flag is checked on both methods before a table is built or --out is opened.
    if args.samples < 1:
        raise DomainError(f"need --samples >= 1, got {args.samples}")
    if args.mcmc_steps < 0:
        raise DomainError(f"--mcmc-steps must be >= 0, got {args.mcmc_steps}")
    if not 0.0 <= args.laziness <= 1.0:
        raise DomainError(f"--laziness must be in [0, 1], got {args.laziness}")
    from .sampling import ExactSampler, jump_stats_from_orders, mcmc_ensemble

    if args.method == "exact":
        sampler = ExactSampler(shape, args.seed, args.cap)
        orders = (sampler.sample_indices() for _ in range(args.samples))
    elif args.cap is not None:
        raise DomainError("--cap is the exact sampler's DP state cap; the walk (--method mcmc) reads none")
    else:
        orders = mcmc_ensemble(shape, args.mcmc_steps, args.samples, args.seed, args.laziness)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            stats = jump_stats_from_orders(shape, _written(fh, shape, orders))
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
    from .jumps import _read_blocks, jump_pit_block

    fields = ("extension", "degree", "jump_times", "pits")
    as_csv, number = args.format == "csv", itertools.count(1)

    def rows(jumps, pits):  # one block's rows as printed; number last, so a block's end takes none
        for flags, counts, i in zip(jumps.tolist(), pits.tolist(), number):
            times = [k for k, jump in enumerate(flags, start=1) if jump]
            if as_csv:
                yield [i, len(times), " ".join(map(str, times)), " ".join(map(str, counts))]
            else:
                yield dict(zip(fields, (i, len(times), times, counts)))

    blocks = (list(rows(*jump_pit_block(shape, block))) for block in _read_blocks(args.infile, shape))
    _emit(args, _csv_table(list(fields), itertools.chain.from_iterable(blocks)) if as_csv else _json_list(blocks))
    return 0


def cmd_pits(args) -> int:
    shape = _parse_shape_token(args.shape)
    from .jumps import _read_blocks, jump_pit_block

    # One block's profiles at a time: --mean keeps their exact integer sums
    # and a line count, the wide formats the text of the rows they print.
    blocks = (jump_pit_block(shape, block)[1] for block in _read_blocks(args.infile, shape))
    first = next(blocks, None)
    if first is None:
        raise DomainError(f"no extensions found in {args.infile}")
    blocks, size = itertools.chain([first], blocks), shape.size
    if args.mean:
        lines, totals = 0, 0
        for pits in blocks:
            lines += len(pits)
            totals = totals + pits.sum(axis=0)
        means = [total / lines for total in totals.tolist()]
        if args.format == "csv":
            _emit(args, _csv_table(["time", "mean_pits"], [[k + 1, f"{means[k]:.10g}"] for k in range(size)]))
        else:
            _emit(args, _json({"times": list(range(1, size + 1)), "mean_pits": means}))
        return 0
    profiles = (pits.tolist() for pits in blocks)
    if args.format == "csv":
        header = ["extension"] + [f"t{k}" for k in range(1, size + 1)]
        rows = enumerate(itertools.chain.from_iterable(profiles), start=1)
        _emit(args, _csv_table(header, ([i, *profile] for i, profile in rows)))
    else:
        _emit(args, _json_list(profiles))
    return 0


def cmd_graph(args) -> int:
    shape = _parse_shape_token(args.shape)
    from .transposition import build_graph, dot_blocks, graph_stats

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
    from .bounds import bound_reports

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
    from .verify import VerifyConfig, run_suite

    reports = run_suite(args.suite, VerifyConfig(seed=args.seed))
    if args.format == "json":
        _emit(args, _json([r.to_dict() for r in reports]))
    else:
        _emit(args, "\n".join(r.to_text() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_conjecture_scan(args) -> int:
    if args.samples < 1:  # before any table is built, whether a row is sampled or not
        raise DomainError(f"need --samples >= 1, got {args.samples}")
    from .counting import CompletionTable, _check_cap
    from .grid import GridShape
    from .sampling import ExactSampler, _check_seed, jump_stats_from_orders
    from .transposition import exhaustive_mean_degree

    def grids(n):  # (m**n, n, m) for m = 2, 3, ... while m**n <= max-size
        m = 2
        while m**n <= args.max_size:
            yield m**n, n, m
            m += 1

    # The rows come in print order, by size, then n, then m.  Each is held
    # to --cap as it is listed, which sizes its lattice, so the first row
    # over the cap refuses before any row's table is built.  The seed is
    # checked next, also before any table.
    shapes = []
    for _, n, m in heapq.merge(*map(grids, range(2, args.max_size.bit_length()))):
        shape = GridShape.equilateral(m, n)
        _check_cap(shape, args.cap)
        shapes.append((m, n, shape))
    _check_seed(args.seed)

    fields = ("m", "n", "size", "count", "method", "samples", "mean_degree", "stderr", "ratio")
    rows = []
    for m, n, shape in shapes:
        size = shape.size
        # One table per row, held to --cap above and not sized again: it
        # gives the count, g(empty), and a sampled row draws from it.
        table = CompletionTable(shape)
        count = table[0]
        if count <= EXACT_SCAN_LIMIT:
            mean = float(exhaustive_mean_degree(shape))
            stderr = 0.0
            method = "exhaustive"
            used = count
        else:
            sampler = ExactSampler(shape, args.seed, table=table)
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
    common.add_argument("--out", default=None, help="write the primary output to this file")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (64-bit)")

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

    p = command("sample", parents=[seeded, common, capped, shaped], help="draw random extensions and summarize them")
    p.add_argument("--method", choices=("exact", "mcmc"), default="exact")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--mcmc-steps", type=int, default=10_000, dest="mcmc_steps")
    p.add_argument("--laziness", type=float, default=0.5)
    p.set_defaults(func=cmd_sample)

    p = command("jumps", parents=[seeded, common, shaped], help="jump statistics of extensions from a file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--in", dest="infile", required=True, help="extension file to analyze")
    p.set_defaults(func=cmd_jumps)

    p = command("pits", parents=[seeded, common, shaped], help="pits profiles of extensions from a file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--in", dest="infile", required=True, help="extension file to analyze")
    p.add_argument("--mean", action="store_true", help="aggregate to mean pits per time")
    p.set_defaults(func=cmd_pits)

    p = command("graph", parents=[seeded, common, capped, shaped], help="build the swap graph and report statistics")
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

    p = command("verify", parents=[seeded, common], help="run a named verification suite")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--suite", required=True, help="counting, bounds, extremes, entropy, sampling, or all")
    p.set_defaults(func=cmd_verify)

    p = command(
        "conjecture-scan",
        parents=[seeded, common, capped],
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
