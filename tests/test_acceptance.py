"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Criteria 1-9, 10(a) and 10(c) read the checks of the verify suites, so each
checked relation is defined once, in `verify.py`.  Each check a criterion
reads must have passed, with the criterion's own constant or formula as its
expected text, and for an equality as its observed text too; so a suite that
loosens a threshold or a formula fails the gate.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they happen; without -s they still print on any failure.  Budgeted
criteria assert their wall-clock limits explicitly.
"""

import csv
import io
import re
import time
from fractions import Fraction

import pytest

from gridext import GridShape, count_extensions, graph_stats
from gridext.cli import main as cli_main
from gridext.verify import (
    DEFICIT_MN,
    DEFICIT_RS,
    ENTROPY_MN,
    EXTREMES_MN,
    MIXED_SHAPES,
    SANDWICH_MN,
    VerifyConfig,
    suite_bounds,
    suite_counting,
    suite_entropy,
    suite_extremes,
    suite_sampling,
)

# Only the convexity check of the bounds suite reads the seed; this one draws
# criterion 9's 10000 vectors.
CONVEXITY_SEED = 20260814


def _suite_run(suite, cfg=VerifyConfig()):
    """A module fixture: the suite's checks by name, and its wall-clock seconds."""

    @pytest.fixture(scope="module")
    def run():
        t0 = time.perf_counter()
        checks = {c.name: c for c in suite(cfg).checks}
        return checks, time.perf_counter() - t0

    return run


counting_run = _suite_run(suite_counting)
bounds_run = _suite_run(suite_bounds, VerifyConfig(seed=CONVEXITY_SEED))
extremes_run = _suite_run(suite_extremes)
entropy_run = _suite_run(suite_entropy)
# The 1e5 exact draws and the 1e5 chains x 1e4 steps walk, run once for
# criteria 7 and 10.
sampling_run = _suite_run(suite_sampling, VerifyConfig(seed=42))


def _read(checks, name, expected, problems, observed=None):
    """The check `name` if it passed with these expected (and observed) texts.

    Otherwise the problem is appended to `problems` and None returned.
    """
    c = checks.get(name)
    if c is None or not c.passed or c.expected != expected or observed not in (None, c.observed):
        seen = "missing" if c is None else f"passed={c.passed}, observed {c.observed!r}, expected {c.expected!r}"
        problems.append(f"{name}: {seen}; criterion wants expected {expected!r}, observed {observed or 'any'!r}")
        return None
    return c


def _exact_fraction(check):
    # Low-pits checks report "0.111111 (= 1/9)": the exact fraction follows "= ".
    return Fraction(re.search(r"\(= ([^)]+)\)", check.observed).group(1))


def _finish(num, ok, detail, problems=()):
    ok = ok and not problems
    detail += f"; problems {problems}" if problems else ""
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exact_counts_with_oracles(counting_run):
    checks, elapsed = counting_run
    problems = []
    for name, count in (
        ("3x3 count vs hook oracle", "42"),
        ("2x3 count vs hook oracle", "5"),
        ("2x2x2 count vs enumeration", "48"),
        ("2x2x2x2 count vs backtracking oracle", "1680384"),
    ):
        _read(checks, name, count, problems, count)
    detail = (
        "[3]^2=42 (hook agrees), [2]x[3]=5 (hook agrees), [2]^3=48 (enumeration agrees), "
        f"[2]^4=1680384 (backtracking agrees) in {elapsed:.2f}s < 10s"
    )
    _finish(1, elapsed < 10.0, detail, problems)


def test_criterion_02_normalized_roots_in_window(bounds_run):
    checks, elapsed = bounds_run
    problems = []
    for m, n in SANDWICH_MN:
        c = _read(checks, f"normalized count root ({m},{n})", "inside", problems)
        if c is None:
            continue
        # The 1e-9 tolerance is the criterion's own, so it re-reads the numbers.
        root, lo, hi = map(float, re.fullmatch(r"(\S+) in \[(\S+), (\S+)\]", c.observed).groups())
        if not lo - 1e-9 <= root <= hi + 1e-9:
            problems.append(f"({m},{n}) root {root} outside [{lo}, {hi}]")
    detail = f"normalized count roots inside the window for all of {SANDWICH_MN} (tol 1e-9)"
    _finish(2, elapsed < 60.0, f"{detail} in {elapsed:.2f}s < 60s", problems)


def test_criterion_03_integer_sandwich(counting_run):
    checks, _ = counting_run
    shapes = [GridShape.equilateral(m, n) for m, n in SANDWICH_MN]
    shapes += [GridShape(ls) for ls in MIXED_SHAPES]
    problems = []
    for s in shapes:
        _read(checks, f"{s} bound ordering", "nondecreasing", problems)
    detail = f"on {len(shapes)} shapes ({len(MIXED_SHAPES)} with unequal chains)"
    _finish(3, True, f"factorial-product <= count <= width-power {detail}", problems)


def test_criterion_04_degree_extremes(extremes_run):
    checks, elapsed = extremes_run
    problems = []
    for m, n in EXTREMES_MN:
        s = GridShape.equilateral(m, n)
        for name, degree in (("max degree", m**n - 3), ("min degree", m ** (n - 1) - 1),
                             ("rank-lex attains max", m**n - 3)):
            _read(checks, f"{s} {name}", str(degree), problems, str(degree))
    detail = f"swap-graph degree extremes m^n-3 / m^(n-1)-1 and rank-lex maximality on {EXTREMES_MN}"
    _finish(4, elapsed < 120.0, f"{detail} in {elapsed:.2f}s < 120s", problems)


def test_criterion_05_boundary_times_never_jump(extremes_run):
    checks, _ = extremes_run
    problems = []
    shapes = [GridShape.equilateral(m, n) for m, n in EXTREMES_MN]
    for s in shapes:
        _read(checks, f"{s} boundary times never jump", "0 offenders", problems, "0 offenders")
    checked = sum(map(count_extensions, shapes))
    detail = f"no jumps at time 1 or size-1 across {checked} extensions of {EXTREMES_MN}"
    _finish(5, True, detail, problems)


def test_criterion_06_entropy_chain_rule(entropy_run):
    checks, _ = entropy_run
    problems = []
    worst = 0.0
    for m, n in ENTROPY_MN:
        c = _read(checks, f"{GridShape.equilateral(m, n)} chain rule", "<= 1e-9", problems)
        if c:
            worst = max(worst, float(re.search(r"rel err ([^)]+)\)", c.observed).group(1)))
    detail = "conditional entropy profile sums to lg(count) on [2]^2,[3]^2,[2]^3"
    _finish(6, worst <= 1e-9, f"{detail} (worst rel err {worst:.2e} <= 1e-9)", problems)


def test_criterion_07_sampler_uniformity(sampling_run):
    checks, elapsed = sampling_run
    required = {
        "exact sampler support": "0",  # every draw is an enumerated extension
        "exact sampler uniformity": "p > 0.01",
        "walk sampler support": "0",  # every walk final is a valid extension
        "walk sampler distance": "< 0.05",
    }
    # The suite's sample sizes are module constants; the relations name them.
    sizes = {
        "exact sampler uniformity": "100000 samples",
        "walk sampler distance": "after 10000 steps over 100000 runs",
    }
    missing = [
        name for name, expected in required.items()
        if name not in checks or checks[name].expected != expected
    ]
    missing += [name for name, text in sizes.items() if name not in checks or text not in checks[name].relation]
    failed = [c.name for c in checks.values() if not c.passed]
    ok = not missing and not failed and elapsed < 300.0
    _finish(
        7,
        ok,
        f"exact sampler chi-square {checks['exact sampler uniformity'].observed} (1e5 draws on the full support), "
        f"walk TV={checks['walk sampler distance'].observed} < 0.05 (1e5 chains x 1e4 steps), "
        f"{len(checks) - len(failed)}/{len(checks)} sampling checks passed in {elapsed:.1f}s < 300s"
        + (f"; missing {missing}" if missing else "")
        + (f"; failed {failed}" if failed else ""),
    )


def test_criterion_08_pits_deficit_bound(bounds_run):
    checks, _ = bounds_run
    rows = []
    problems = []
    for m, n in DEFICIT_MN:
        for R in DEFICIT_RS:
            bound = Fraction(1 + 1, 1) / Fraction(R)  # (1 + lg 2)/R with n = 2 chains
            name = f"low-pits fraction ({m},{n}) R={R:g}"
            c = _read(checks, name, f"<= {float(bound):.6g} (vacuous={bound >= 1})", problems)
            if c is None:
                continue
            frac = _exact_fraction(c)
            if not frac <= bound:
                problems.append(f"{name}: {frac} > {bound}")
            rows.append(f"({m},{n}) R={R:g}: {frac} <= {bound}")
    _finish(8, True, "exhaustive low-pits fractions within (1+lg n)/R: " + "; ".join(rows), problems)


def test_criterion_09_factorial_convexity(bounds_run):
    checks, _ = bounds_run
    problems = []
    _read(checks, "factorial log-convexity on random vectors", "10000/10000", problems, "10000/10000")
    detail = f"(seed {CONVEXITY_SEED}, len <= 10, entries <= 20)"
    _finish(9, True, f"factorial log-convexity held on 10000/10000 random vectors {detail}", problems)


def test_criterion_10_vacuity_and_scan(bounds_run, entropy_run, sampling_run, extreme_graphs, tmp_path):
    checks, _ = bounds_run
    problems = []

    # (a) vacuity flags: desk-scale asymptotics flagged, huge inputs informative.
    # The bounds suite checks each flag; these are the criterion's own values.
    for m, n in SANDWICH_MN:
        name = f"count entropy lower bound ({m},{n})"
        c = _read(checks, name, "flag matches sign; bound satisfied", problems)
        if c and (m, n) == (3, 2) and "(vacuous=True)" not in c.observed:
            problems.append("log_count (3,2) should be vacuous")
    # (n-1) m^n (lg m - (1 + lg n)/(n-1)) at m = 2^10, and m^n / 2 at m = 2^192; n = 2
    log_count_big = f"{2**20 * (10 - 2.0):.12g} (vacuous=False)"
    avg_degree_huge = f"{0.5 * float(2**384):.12g} (vacuous=False)"
    for name, expected, observed in (
        ("count entropy lower bound (2^10,2)", log_count_big, log_count_big),
        ("average degree bound (4,2)", "bound satisfied, vacuous=True", None),
        ("average degree bound (2^192,2)", avg_degree_huge, avg_degree_huge),
        ("almost-regular fraction flags", "0.5 (False); >= 1 (True)", None),
        ("tail probability flags", "1.0 (True); 0.25 (False)", "1.0 (vacuous=True); 0.25 (vacuous=False)"),
        ("low-pits fraction (3,2) R=1", "<= 2 (vacuous=True)", None),
        ("low-pits fraction (3,2) R=4", "<= 0.5 (vacuous=False)", None),
    ):
        _read(checks, name, expected, problems, observed)

    # (b) mean-degree scan: exhaustive rows must reproduce the swap graphs;
    # the size trend is reported as an observation, deliberately unasserted
    scan_path = tmp_path / "scan.csv"
    code = cli_main(
        ["conjecture-scan", "--max-size", "16", "--samples", "2000",
         "--seed", "42", "--out", str(scan_path)]
    )
    if code != 0:
        problems.append(f"conjecture-scan exit {code}")
    text = scan_path.read_text()
    rows = list(csv.DictReader(io.StringIO(
        "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    )))
    graphs, _ = extreme_graphs
    by_mn = {(int(r["m"]), int(r["n"])): r for r in rows}
    for mn, g in graphs.items():
        row = by_mn.get(mn)
        if row is None or row["method"] != "exhaustive":
            problems.append(f"scan row {mn} missing or not exhaustive")
            continue
        expect = float(graph_stats(g).avg_degree)
        if abs(float(row["mean_degree"]) - expect) > 1e-8:
            problems.append(f"scan mean {mn}: {row['mean_degree']} != {expect}")
    trend = [
        (int(r["size"]), r["method"], float(r["mean_degree"]), float(r["ratio"]))
        for r in sorted(rows, key=lambda r: int(r["size"]))
    ]
    trend_text = ", ".join(
        f"size {s} ({m}): mean {d:.3f}, mean/size {q:.4f}" for s, m, d, q in trend
    )

    # (c) ingredient re-checks tied to criteria 6-8; criterion 8's, the (3,2)
    # R=4 low-pits fraction <= 1/2, is the last check read in (a)
    _read(entropy_run[0], "diamond profile", "(1.0, 0.0, 0.0)", problems, "(1.0, 0.0, 0.0)")
    c = _read(sampling_run[0], "diamond sampler uniformity", "p > 0.001", problems)
    if c and "2000 samples at seed 4242" not in c.relation:
        problems.append(f"diamond sampler uniformity: relation {c.relation!r} lacks 2000 samples at seed 4242")

    print(f"CRITERION 10 OBSERVATION (not asserted): mean-degree/size trend: {trend_text}")
    detail = "vacuity flags correct, scan reproduces exhaustive graph means"
    _finish(10, True, f"{detail}, criteria 6-8 ingredients re-verified", problems)
