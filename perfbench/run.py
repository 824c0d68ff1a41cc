"""gridext benchmark: real CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload small-support --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 25 --results perfbench/results/BENCH_x.json

With ``--trace 0`` the workload's commands run one at a time, each in a
fresh interpreter (``python3 -m gridext ...`` with ``src`` on the path), so
every command pays import time and a cold down-set DP as a user does.  The
sequence repeats until ``--seconds`` have passed; each repetition is one
sample, and the metrics are medians over samples.  The time metrics are
normalised for the host's speed swings (see ``hostspeed.py``); the raw wall
times are printed as ``*_raw_s`` comment lines and kept in the results
file.  With ``--trace 1`` a fresh interpreter runs ``layers.py``, which
makes the same calls into the library with a span around each, and the
metrics are per-layer medians.

Every command's exit status and output are checked (see ``checks.py``); on
the default seed stdout and ``--out`` files must also match the sha256
digests recorded at the seed commit in ``digests.json``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A results file with the machine's details is written under
``perfbench/runs/`` (or to ``--results``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 42
DIGESTS = HERE / "digests.json"
# A run that has not finished its current command by then kills it, so the
# benchmark always exits well inside the three-minute limit.
HARD_LIMIT_S = 160.0
MIN_SETUP_PROBES = 5
# Time that launch.py gets beyond a child's own deadline to kill it and report.
LAUNCH_GRACE_S = 10.0
# Untimed runs repeat the command sequence at least this often, so that a
# long workload still averages over the host's speed swings, unless the
# extra repetition would take the run past REPEAT_LIMIT times --seconds.
MIN_REPEATS = 2
REPEAT_LIMIT = 3.0
SETUP_CODE = "import gridext.cli as c; c.build_parser()"

sys.path[:0] = [str(HERE), str(SRC)]
from hostspeed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, commands, sizes_for  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], cwd: Path, deadline: float, stdout_path: Path,
          speed: SpeedProbe | None = None) -> tuple[float, float, int, float]:
    """Run one child to completion; return (wall s, normalised s, exit code, peak RSS MB).

    The child is started through ``launch.py``, which times it and reads its
    own peak RSS with ``os.wait4`` (see there for why).  With a ``speed``
    probe the child runs on the fastest CPU and its wall time is also
    converted to seconds at the reference speed (see ``hostspeed.py``);
    without one the normalised time is the wall time.  A child still
    running at ``deadline`` is killed and reported as failed.
    """
    if speed is not None:
        speed.pin_fastest()
    timeout = max(0.0, deadline - time.monotonic())
    launcher = [sys.executable, "-I", "-S", str(HERE / "launch.py"), f"{timeout:.3f}",
                str(stdout_path), str(stdout_path.with_suffix(".err")), "--", *argv]
    try:
        done = subprocess.run(launcher, cwd=cwd, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout + LAUNCH_GRACE_S)
        report = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError, IndexError):
        report = None
    if report is None:
        return 0.0, 0.0, -1, 0.0
    wall = report["end"] - report["start"]
    norm = speed.normalise(wall, report["start"], report["end"]) if speed is not None else wall
    return wall, norm, report["status"], report["peak_rss_mb"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stats(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _read_proc_stat_steal() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _load_and_steal() -> dict:
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"loadavg": load, "steal_ticks": _read_proc_stat_steal()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def machine_details() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


class Run:
    """One benchmark invocation on one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool, tamper=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.sizes = sizes_for(workload, smoke)
        self.cmds = commands(workload, seed, self.sizes)
        self.tamper = tamper  # test hook: called as tamper(cmd, workdir) after each command
        self.workdir = HERE / "work" / f"{workload}-{os.getpid()}"
        self.start = time.monotonic()
        self.deadline = self.start + HARD_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        self.min_repeats = 1 if smoke else MIN_REPEATS

    def _expired(self) -> bool:
        return time.monotonic() - self.start >= self.seconds

    def _setup_probe(self, speed: SpeedProbe) -> tuple[float, float] | None:
        self.attempted += 1
        wall, norm, rc, _ = spawn([sys.executable, "-c", SETUP_CODE], self.workdir, self.deadline,
                                  self.workdir / "setup.out", speed)
        if rc != 0:
            self.failures.append(f"setup probe: exit status {rc}")
            return None
        return norm, wall

    def run_untraced(self, record_digests: bool = False) -> dict:
        import checks

        check_digests = self.seed == DEFAULT_SEED and not self.smoke
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        expected = recorded.get(self.workload, {}) if check_digests and not record_digests else {}
        ref_ctx = checks.reference_context(self.workload, self.sizes["shape"])
        setup, samples, first_digests = [], [], None
        with SpeedProbe() as speed:
            while True:
                started = time.monotonic()
                probe = self._setup_probe(speed)
                if probe is not None:
                    setup.append(probe)
                ctx = dict(ref_ctx)
                walls, raw, digests = {}, {}, {}
                rss = 0.0
                for cmd in self.cmds:
                    self.attempted += 1
                    out = self.workdir / f"{cmd['label']}.stdout"
                    wall, norm, rc, peak = spawn([sys.executable, "-m", "gridext", *cmd["argv"]], self.workdir,
                                                 self.deadline, out, speed)
                    if self.tamper is not None:
                        self.tamper(cmd, self.workdir)
                    walls[cmd["label"]], raw[cmd["label"]] = norm, wall
                    rss = max(rss, peak)
                    stdout = out.read_text(encoding="utf-8", errors="replace")
                    problems = checks.check_command(cmd, rc, stdout, self.workdir, ctx)
                    if rc == 0:
                        digests[cmd["label"]] = {"stdout": _sha256(out)} | {
                            name: _sha256(self.workdir / name) for name in cmd["out"] if (self.workdir / name).exists()
                        }
                        if first_digests is not None and digests[cmd["label"]] != first_digests.get(cmd["label"]):
                            problems.append("output bytes differ from the first repetition with the same seed")
                        if cmd["label"] in expected and digests[cmd["label"]] != expected[cmd["label"]]:
                            problems.append("output bytes differ from the digests recorded at the seed commit")
                    if problems:
                        self.failures.append(f"{cmd['label']}: {'; '.join(problems)}")
                if first_digests is None:
                    first_digests = digests
                sampling = [c["label"] for c in self.cmds if c.get("sampling")]
                samples.append({"wall_s": sum(walls.values()), "sample_s": sum(walls[k] for k in sampling),
                                "wall_raw_s": sum(raw.values()), "sample_raw_s": sum(raw[k] for k in sampling),
                                "peak_rss_mb": rss, "commands": walls, "commands_raw": raw})
                now = time.monotonic()
                again = not self._expired() or (
                    len(samples) < self.min_repeats
                    and 2 * now - started - self.start <= REPEAT_LIMIT * self.seconds
                )
                if not again or now >= self.deadline:
                    break
            while len(setup) < MIN_SETUP_PROBES and time.monotonic() < self.deadline:
                probe = self._setup_probe(speed)
                if probe is not None:
                    setup.append(probe)
            probes = [p for _, p in speed.samples]
        if record_digests:
            if not check_digests:
                raise SystemExit("digests are recorded only on the default seed at full size")
            recorded[self.workload] = first_digests
            DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        stats = {name: _stats([s[name] for s in samples])
                 for name in ("wall_s", "sample_s", "peak_rss_mb", "wall_raw_s", "sample_raw_s")}
        if setup:
            stats["setup_s"] = _stats([norm for norm, _ in setup])
            stats["setup_raw_s"] = _stats([wall for _, wall in setup])
        if probes:
            stats["probe_us"] = _stats([p * 1e6 for p in probes])
        return {"stats": stats, "samples": samples, "setup_samples": setup,
                "digests_checked": bool(expected), "commands": [c["argv"] for c in self.cmds]}

    def run_traced(self) -> dict:
        passes, spans = [], None
        while True:
            self.attempted += 1
            spans_path = self.workdir / f"spans-{len(passes)}.json"
            argv = [sys.executable, str(HERE / "layers.py"), "--workload", self.workload, "--seed",
                    str(self.seed), "--workdir", str(self.workdir), "--spans", str(spans_path)]
            if self.smoke:
                argv.append("--smoke")
            out = self.workdir / "layers.stdout"
            wall, _, rc, _ = spawn(argv, self.workdir, self.deadline, out)
            try:
                result = json.loads(out.read_text().strip().splitlines()[-1]) if rc == 0 else None
            except (ValueError, IndexError):
                result = None
            if result is None:
                self.failures.append(f"traced pass: exit status {rc}")
            else:
                if result["problems"]:
                    self.failures.append(f"traced pass: {'; '.join(result['problems'])}")
                passes.append({"total_s": wall, "metrics": result["metrics"]})
                if spans is None:
                    spans = json.loads(spans_path.read_text())
            if self._expired() or time.monotonic() >= self.deadline:
                break
        if not passes:
            return {"stats": {}, "passes": [], "spans": None}
        stats = {name: _stats([p["metrics"][name] for p in passes]) for name in passes[0]["metrics"]}
        stats["trace.total_s"] = _stats([p["total_s"] for p in passes])
        return {"stats": stats, "passes": passes, "spans": spans}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 record_digests: bool = False, tamper=None) -> dict:
    """Run one workload; return the results record (machine details included)."""
    run = Run(workload, seed, seconds, smoke, tamper)
    run.workdir.mkdir(parents=True, exist_ok=True)
    before = _load_and_steal()
    try:
        body = run.run_traced() if trace else run.run_untraced(record_digests)
    finally:
        run.close()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": run.sizes,
        "machine": machine_details() | {"before": before, "after": _load_and_steal()},
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failed_frac": len(run.failures) / max(1, run.attempted),
        "failures": run.failures,
        **body,
    }


def describe(record: dict, metrics: list[dict]) -> list[str]:
    lines = [f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
             f"attempted={record['attempted']} failed={record['failed']} "
             f"failed_frac={record['failed_frac']:.4g}"]
    for m in metrics:
        s = record["stats"].get(m["name"])
        if s is None:
            lines.append(f"#   {m['name']:40s} not measured")
            continue
        lines.append(f"#   {m['name']:40s} {s['median']:.6g} {m['unit']} "
                     f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    for name in ("wall_raw_s", "sample_raw_s", "setup_raw_s", "probe_us"):
        s = record["stats"].get(name)
        if s is not None:
            lines.append(f"#   ({name:38s} {s['median']:.6g} [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}])")
    for failure in record["failures"]:
        lines.append(f"#   FAILED {failure}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--results", type=Path, default=None, help="write the results record here")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests in digests.json (default seed only)")
    args = parser.parse_args(argv)

    if not (SRC / "gridext" / "cli.py").is_file():
        print(f"error: no gridext sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
        path = args.results or HERE / "runs" / f"all-seed{args.seed}.json"
    else:
        plan = [(args.workload, args.trace)]
        path = args.results or HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"

    records, metrics, missing = {}, {}, []
    for w, trace in plan:
        rec = run_workload(w, args.seed, args.seconds, bool(trace), args.smoke, args.record_digests and not trace)
        records[f"{w}/trace{trace}"] = rec
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        print("\n".join(describe(rec, wanted)), flush=True)
        prefix = f"{w}/" if args.workload == "all" else ""
        for m in wanted:
            if m["name"] in rec["stats"]:
                metrics[prefix + m["name"]] = {"value": rec["stats"][m["name"]]["median"], "unit": m["unit"]}
            else:
                missing.append(prefix + m["name"])
        if trace and f"{w}/trace0" in records and "trace.total_s" in rec["stats"]:
            rec["trace_overhead_s"] = (rec["stats"]["trace.total_s"]["median"]
                                       - records[f"{w}/trace0"]["stats"]["wall_raw_s"]["median"])
            print(f"#   traced pass total minus untraced wall_raw_s: {rec['trace_overhead_s']:.4g} s")

    path.parent.mkdir(parents=True, exist_ok=True)
    record = records[f"{args.workload}/trace{args.trace}"] if len(plan) == 1 else {"benchmark": spec, "runs": records}
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if missing:
        print(f"error: not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
