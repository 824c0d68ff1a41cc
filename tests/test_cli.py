"""End-to-end command line checks via main(argv)."""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridext import __version__
from gridext.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


class TestCount:
    def test_json_default(self, capsys):
        code, out, _ = run(capsys, "count", "--shape", "3x3")
        assert code == 0
        data = json.loads(out)
        assert data["version"] == __version__
        assert data["shape"] == [3, 3]
        assert data["count"] == "42"
        assert data["lower_factorial"] == "24"
        assert data["upper_width_power"] == str(3**9)

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "count", "--shape", "2x3", "--format", "text")
        assert code == 0
        assert "count: 5" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "count", "--shape", "2x2", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["count"] == "2"
        assert rows[0]["shape"] == "2x2"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "count.json"
        code, out, _ = run(capsys, "count", "--shape", "3x3", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["count"] == "42"

    def test_shape_conflict(self, capsys):
        # --m and --n are bounds' formula parameters, not a second shape spelling.
        code, _, err = run(capsys, "count", "--shape", "3x3", "--m", "3", "--n", "2")
        assert code == 2
        assert "error: unrecognized arguments: --m 3 --n 2" in err

    def test_shape_missing(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        for argv in (["count"], ["count", "--m", "2", "--n", "3"]):
            code, out, err = run(capsys, *argv, "--out", str(target))
            assert (code, out) == (2, "")
            assert "the following arguments are required: --shape" in err
            assert not target.exists()

    def test_bad_shape_token(self, capsys):
        code, _, err = run(capsys, "count", "--shape", "3xx3")
        assert code == 2

    @pytest.mark.parametrize(
        "shape",
        ["1_0x2", "٣x3", "+3x3", "3x-3", " 3x3", "3x3 ", "3x3.0", "3ｘ3", pytest.param("9" * 5000 + "x2", id="5000-digit")],
    )
    def test_shape_parts_are_ascii_numerals(self, capsys, shape):
        # int() alone would run 1_0x2 as 10x2, and the Arabic-Indic ٣x3 or
        # +3x3 as 3x3.
        code, out, err = run(capsys, "count", "--shape", shape)
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed shape") and "Traceback" not in err

    def test_shape_separator_either_case(self, capsys):
        code, out, _ = run(capsys, "count", "--shape", "3X3")
        assert code == 0 and json.loads(out)["count"] == "42"

    def test_cap_exhausted(self, capsys):
        code, _, err = run(capsys, "count", "--shape", "3x3x3", "--cap", "10")
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize(
        "shape", ["99999999999999999999x2", "6x6x6", pytest.param("2" + "x2" * 15000, id="2^15001")]
    )
    def test_cap_refuses_at_once(self, capsys, shape):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "count", "--shape", shape)
        assert (code, out) == (3, "")
        assert err.startswith("error: down-set lattice") and "Traceback" not in err
        assert time.perf_counter() - t0 < 5.0

    def test_four_chains_refused_with_exact_count(self, capsys):
        # 2^19 (the middle rank) passes the closed-form gate; the exact count
        # from the lattice of 3x3x3 refuses it before the DP starts.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "count", "--shape", "3x3x3x3")
        assert (code, out) == (3, "")
        assert "at least 17792748 ideals" in err
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("cap", ["200000", "1000000"])
    def test_seven_chains_refused_by_width(self, capsys, cap):
        # Each subset of the 35-point middle rank generates its own down-set: 2^35 > cap.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "count", "--shape", "2x2x2x2x2x2x2", "--cap", cap)
        assert (code, out) == (3, "")
        assert err.startswith("error: down-set lattice") and "Traceback" not in err
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("shape, words", [("2x3200", 100), ("1048576", 16384)])
    def test_cap_counts_state_words(self, capsys, built, shape, words):
        # A state is a size-bit int: the default cap of 10^7 words admits
        # 10^7 // words states, which these lattices exceed at once.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "count", "--shape", shape)
        assert (code, out) == (3, "")
        assert err.startswith("error: down-set lattice") and "Traceback" not in err
        assert f"ideals of {words} 64-bit words each" in err
        assert time.perf_counter() - t0 < 1.0
        assert built == []

    def test_long_chain_within_word_cap(self, capsys, built):
        # 16385 states of 256 words each: within the default cap.
        from gridext import GridShape

        code, out, _ = run(capsys, "count", "--shape", "16384", "--format", "text")
        assert code == 0 and "count: 1\n" in out
        assert built == [GridShape((16384,))]


class TestEnumerate:
    def test_diamond(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--shape", "2x2")
        assert code == 0
        assert out.splitlines() == ["0 1 2 3", "0 2 1 3"]

    def test_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "--shape", "3x3", "--cap", "5")
        assert code == 3

    def test_cap_creates_no_out_file(self, capsys, tmp_path):
        target = tmp_path / "ext.txt"
        code, _, err = run(capsys, "enumerate", "--shape", "3x3", "--cap", "5", "--out", str(target))
        assert code == 3 and "enumeration cap" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "command, cap",
        itertools.product(("count", "enumerate", "sample", "graph", "conjecture-scan"), ("0", "-1")),
    )
    def test_cap_below_one_is_named(self, capsys, tmp_path, command, cap):
        # A cap below 1 admits nothing: a usage error naming --cap, before --out is opened.
        target = tmp_path / "out.txt"
        shaped = [] if command == "conjecture-scan" else ["--shape", "2x2"]
        code, out, err = run(capsys, command, *shaped, "--cap", cap, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --cap: must be at least 1, got {cap}\n")
        assert not target.exists()

    def test_rank_levels_refuse_before_the_dp(self, capsys, built):
        # 7828354 down-sets fit the default state cap; the rank levels'
        # factorial product exceeds the enumeration cap before any is built.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--shape", "2x2x2x2x2x2")
        assert (code, out) == (3, "")
        assert "above the enumeration cap of 1000000" in err
        assert time.perf_counter() - t0 < 1.0
        assert built == []

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_only_text_format(self, capsys, tmp_path, fmt):
        # Text is the one format, so the command takes no --format at all.
        target = tmp_path / "ext.txt"
        code, out, err = run(capsys, "enumerate", "--shape", "2x2", "--format", fmt, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: --format {fmt}\n")
        assert not target.exists()
        assert run(capsys, "enumerate", "--shape", "2x2")[:2] == (0, "0 1 2 3\n0 2 1 3\n")

    @pytest.mark.parametrize(
        "command, shape, cap",
        [
            ("enumerate", "1000x1000", "1"),
            ("enumerate", "100000x2", "5"),
            ("graph", "300x300", "1000000000"),
            *(pytest.param(c, "x".join(["2"] * 4000), "5", id=f"{c}-4000-chains") for c in ("enumerate", "graph")),
        ],
    )
    def test_refusal_names_the_enumeration_cap(self, capsys, built, command, shape, cap):
        # A table-free bound shows more than cap extensions: no table, and no
        # word of the state cap, which these commands cannot raise.  The rank
        # count refuses 4000 chains before the lattice bound sums 4001 levels.
        t0 = time.perf_counter()
        code, out, err = run(capsys, command, "--shape", shape, "--cap", cap)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (3, "")
        assert f"has more than {cap} extensions, above the enumeration cap of {cap}" in err
        assert "state cap" not in err
        assert built == []

    def test_cap_counts_extensions_past_64_points(self, capsys):
        code, out, err = run(capsys, "enumerate", "--shape", "65", "--cap", "1")
        assert (code, out, err) == (0, " ".join(map(str, range(65))) + "\n", "")

    @pytest.mark.parametrize("shape", ["30000", "1x30000x1"])
    def test_one_extension_needs_no_table(self, capsys, built, shape):
        # One chain of length > 1: its one extension is listed without the DP,
        # whose state cap would refuse 30001 down-sets of 469 words each.
        code, out, err = run(capsys, "enumerate", "--shape", shape)
        assert (code, out, err) == (0, " ".join(map(str, range(30000))) + "\n", "")
        assert built == []
        code, out, err = run(capsys, "graph", "--shape", shape)
        assert (code, err) == (0, "")
        assert json.loads(out)["vertices"] == 1

    def test_one_extension_past_the_walk_limit_is_refused(self, capsys):
        code, out, err = run(capsys, "enumerate", "--shape", str(2**17 + 1))
        assert (code, out) == (3, "")
        assert err == f"error: shape {2**17 + 1} has one extension, of more than {2**17} points\n"

    def test_long_chain_needs_no_recursion(self, capsys):
        # One search level per point: 5000 levels, far past Python's frame limit.
        code, out, err = run(capsys, "enumerate", "--shape", "5000")
        assert (code, err) == (0, "")
        assert out == " ".join(map(str, range(5000))) + "\n"

    def test_reader_leaving_early_exits_quietly(self):
        # 24024 lines, far more than a pipe buffer holds, so the writer sees the pipe close
        proc = subprocess.Popen(
            [sys.executable, "-m", "gridext", "enumerate", "--shape", "4x4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env(),
        )
        assert proc.stdout.readline() == b" ".join(str(v).encode() for v in range(16)) + b"\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (0, b"")


class TestSample:
    def test_exact_stats(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--shape", "3x3", "--samples", "200", "--seed", "7"
        )
        assert code == 0
        data = json.loads(out)
        assert data["config"]["method"] == "exact"
        assert data["config"]["samples"] == 200
        assert data["config"]["seed"] == 7
        assert 2.0 < data["mean_degree"] < 6.0
        assert len(data["mean_pits_profile"]) == 9
        assert sum(data["histogram"].values()) == 200

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "sample", "--shape", "3x3", "--samples", "50", "--seed", "3")
        _, out2, _ = run(capsys, "sample", "--shape", "3x3", "--samples", "50", "--seed", "3")
        assert out1 == out2

    def test_out_file_extensions(self, capsys, tmp_path):
        target = tmp_path / "draws.txt"
        code, out, _ = run(
            capsys,
            "sample", "--shape", "2x2x2", "--samples", "5", "--seed", "1",
            "--out", str(target),
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            idxs = [int(v) for v in line.split()]
            assert sorted(idxs) == list(range(8))
        json.loads(out)  # stats still go to stdout

    def test_mcmc_out_on_the_array_path(self, capsys, tmp_path):
        # 2^5 tests covers, so sample hands the walk's array on as it is;
        # its 1500 rows take twelve writer blocks of 128.
        from gridext import GridShape, jump_stats_from_orders, mcmc_ensemble
        from gridext.cli import _written
        from gridext.jumps import write_index_orders

        shape = GridShape((2,) * 5)
        finals = mcmc_ensemble(shape, 60, 1500, seed=4)
        # Each row once, not the first block again and again; bounded, so a
        # fault shows here rather than as an endless --out file below.
        assert len(list(itertools.islice(_written(io.StringIO(), shape, finals), 1501))) == 1500
        argv = ["sample", "--shape", "2x2x2x2x2", "--method", "mcmc", "--samples", "1500", "--mcmc-steps", "60"]
        code, out, err = run(capsys, *argv, "--seed", "4", "--out", str(tmp_path / "walk.txt"))
        assert (code, err) == (0, "")
        tuples = [tuple(row) for row in finals.tolist()]
        with open(tmp_path / "tuples.txt", "w", encoding="ascii") as fh:
            write_index_orders(fh, tuples)
        assert (tmp_path / "walk.txt").read_bytes() == (tmp_path / "tuples.txt").read_bytes()
        assert run(capsys, *argv, "--seed", "4") == (0, out, "")
        assert json.loads(out)["mean_degree"] == jump_stats_from_orders(shape, tuples).mean_degree

    def test_mcmc_method(self, capsys):
        code, out, _ = run(
            capsys,
            "sample", "--shape", "2x2", "--method", "mcmc", "--samples", "20",
            "--mcmc-steps", "40", "--seed", "5",
        )
        assert code == 0
        data = json.loads(out)
        assert data["config"]["method"] == "mcmc"
        assert data["config"]["mcmc_steps"] == 40

    def test_cap_refuses_before_out_file(self, capsys, tmp_path):
        target = tmp_path / "draws.txt"
        code, out, err = run(
            capsys,
            "sample", "--shape", "4x4x4", "--cap", "1000", "--samples", "1", "--out", str(target),
        )
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "cap of 1000" in err and "Traceback" not in err
        assert not target.exists()

    def test_walk_refuses_before_out_file(self, capsys, tmp_path):
        target = tmp_path / "draws.txt"
        code, out, err = run(
            capsys, "sample", "--method", "mcmc", "--shape", "99999999999999999999x2", "--out", str(target)
        )
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "Traceback" not in err
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_only_json_format(self, capsys, tmp_path, fmt):
        # The summary is JSON only, so the command takes no --format at all.
        target = tmp_path / "draws.txt"
        code, out, err = run(capsys, "sample", "--shape", "2x2", "--format", fmt, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: --format {fmt}\n")
        assert not target.exists()
        code, out, _ = run(capsys, "sample", "--shape", "2x2")
        assert code == 0 and json.loads(out)["config"]["samples"] == 1

    def test_walk_on_astronomic_shape(self, capsys):
        code, out, err = run(capsys, "sample", "--method", "mcmc", "--shape", "99999999999999999999x2")
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "Traceback" not in err

    def test_walk_refuses_cap(self, capsys, tmp_path):
        # --cap is the exact sampler's DP state cap; the walk reads none.
        target = tmp_path / "draws.txt"
        argv = ["sample", "--shape", "60x60", "--method", "mcmc", "--samples", "2", "--mcmc-steps", "50"]
        code, out, err = run(capsys, *argv, "--cap", "1000", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: --cap") and "Traceback" not in err
        assert not target.exists()
        # 3600 points: beyond the exact DP, within the walk's cover arrays.
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["samples"] == 2

    @pytest.mark.parametrize("method", ["exact", "mcmc"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--samples", "0"),
            ("--samples", "-3"),
            ("--mcmc-steps", "-1"),
            ("--laziness", "1.5"),
            ("--laziness", "-0.1"),
            ("--laziness", "nan"),
            ("--seed", "-1"),
            ("--seed", str(2**64)),
        ],
    )
    def test_bad_sampler_flag_exits_2_before_the_dp(self, capsys, tmp_path, built, method, flag, value):
        # 4x4x4's DP takes a quarter of a second: a check made after it would
        # show in both the time and the levels built.
        target = tmp_path / "draws.txt"
        t0 = time.perf_counter()
        argv = ["sample", "--shape", "4x4x4", "--method", method, flag, value, "--out", str(target)]
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err
        assert not target.exists()
        assert built == []


@pytest.fixture()
def extension_file(tmp_path):
    """Five [3]^2 extensions in canonical coordinate syntax."""
    from gridext import GridShape, LinearExtension, enumerate_index_orders, write_extensions_file

    s = GridShape((3, 3))
    exts = [LinearExtension(s, o) for o in list(enumerate_index_orders(s))[:5]]
    path = tmp_path / "exts.txt"
    write_extensions_file(path, exts)
    return path


class TestJumpsAndPits:
    def test_jumps_csv(self, capsys, extension_file):
        code, out, _ = run(capsys, "jumps", "--shape", "3x3", "--in", str(extension_file))
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 5
        assert set(rows[0]) == {"extension", "degree", "jump_times", "pits"}
        for row in rows:
            assert int(row["degree"]) == len(row["jump_times"].split())

    def test_jumps_json(self, capsys, extension_file):
        code, out, _ = run(
            capsys, "jumps", "--shape", "3x3", "--in", str(extension_file), "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 5
        assert data[0]["extension"] == 1

    def test_jumps_rejects_text_format(self, capsys, extension_file):
        code, _, err = run(
            capsys, "jumps", "--shape", "3x3", "--in", str(extension_file), "--format", "text"
        )
        assert code == 2

    def test_pits_wide(self, capsys, extension_file):
        code, out, _ = run(capsys, "pits", "--shape", "3x3", "--in", str(extension_file))
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 5
        assert rows[0]["t9"] == "0"

    def test_pits_mean(self, capsys, extension_file):
        code, out, _ = run(
            capsys, "pits", "--shape", "3x3", "--in", str(extension_file), "--mean"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 9
        assert rows[0]["mean_pits"] == "2"  # two pits after the forced bottom

    def test_pits_over_many_blocks(self, capsys, tmp_path):
        # 1500 3x3 lines are four blocks of at most 455 rows: every row's
        # profile is its pits_counts, and the means are the exact column
        # means, rounded once.
        from fractions import Fraction

        from gridext import ExactSampler, GridShape, pits_counts

        shape = GridShape((3, 3))
        sampler = ExactSampler(shape, 11)
        orders = [sampler.sample_indices() for _ in range(1500)]
        path = tmp_path / "e.txt"
        path.write_text("".join(" ".join(map(str, order)) + "\n" for order in orders))
        profiles = [pits_counts(shape, order) for order in orders]
        code, out, _ = run(capsys, "pits", "--shape", "3x3", "--in", str(path))
        assert code == 0
        assert [tuple(int(row[f"t{k}"]) for k in range(1, 10)) for row in parse_csv(out)] == profiles
        code, out, _ = run(capsys, "pits", "--shape", "3x3", "--in", str(path), "--format", "json")
        assert json.loads(out) == [list(p) for p in profiles]
        means = [float(Fraction(sum(column), len(profiles))) for column in zip(*profiles)]
        code, out, _ = run(capsys, "pits", "--shape", "3x3", "--in", str(path), "--mean", "--format", "json")
        assert json.loads(out) == {"times": list(range(1, 10)), "mean_pits": means}
        code, out, _ = run(capsys, "pits", "--shape", "3x3", "--in", str(path), "--mean")
        assert [row["mean_pits"] for row in parse_csv(out)] == [f"{mean:.10g}" for mean in means]

    @staticmethod
    def traced_peak(capsys, tmp_path, *argv):
        """The tracemalloc peak of a command on 20000 3x3 lines (44 blocks),
        run once untraced first for the imports and shape tables; its result
        is checked to be the same both times."""
        import tracemalloc

        from gridext import GridShape, enumerate_index_orders

        lines = [" ".join(map(str, order)) + "\n" for order in enumerate_index_orders(GridShape((3, 3)))]
        path = tmp_path / "e.txt"
        path.write_text("".join(itertools.islice(itertools.cycle(lines), 20000)))
        argv = (*argv, "--shape", "3x3", "--in", str(path))
        expected = run(capsys, *argv)
        tracemalloc.start()
        try:
            result = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == expected and expected[0] == 0
        return peak

    def test_pits_mean_keeps_one_block(self, capsys, tmp_path):
        # The profiles would take 20000 x 9 x 8 bytes = 1.44 MB as one int64
        # array.  --mean sums each block as it is read, so its traced peak
        # stays below that.
        assert self.traced_peak(capsys, tmp_path, "pits", "--mean") < 20000 * 9 * 8

    def test_wide_json_keeps_no_rows(self, capsys, tmp_path):
        # jumps --format json prints 4.2 MB here.  Its text is built a block
        # of rows at a time, with no list of every row's dict beside it, so
        # its traced peak, the captured output included, stays below 16 MB.
        assert self.traced_peak(capsys, tmp_path, "jumps", "--format", "json") < 16 * 2**20

    @pytest.mark.parametrize("command", ["jumps", "pits"])
    def test_non_ascii_byte_names_its_line(self, capsys, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0 1 2 3\n0 \xff 1\n")
        code, out, err = run(capsys, command, "--shape", "2x2", "--in", str(path))
        assert (code, out, err) == (2, "", "error: line 2: non-ASCII byte 0xff\n")

    def test_index_must_be_a_plain_numeral(self, capsys, tmp_path):
        # int() would read 02 as 2; the file format has no leading zeros.
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3\n0 02 1 3\n")
        code, out, err = run(capsys, "jumps", "--shape", "2x2", "--in", str(path))
        assert (code, out, err) == (2, "", "error: line 2: malformed extension line: '0 02 1 3'\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "jumps", "--shape", "3x3", "--in", str(tmp_path / "nope"))
        assert code == 2

    @pytest.mark.parametrize(
        "argv, code, expected",
        [
            (["jumps"], 0, "extension,degree,jump_times,pits\n"),
            (["jumps", "--format", "json"], 0, "[]\n"),
            (["pits"], 2, ""),
            (["pits", "--mean"], 2, ""),
        ],
        ids=["jumps-csv", "jumps-json", "pits", "pits-mean"],
    )
    def test_empty_file(self, capsys, tmp_path, argv, code, expected):
        # jumps reports no extensions; pits has no profile length or mean to give.
        path = tmp_path / "empty.txt"
        path.write_text("")
        result = run(capsys, argv[0], "--shape", "3x3", "--in", str(path), *argv[1:])
        errors = {0: "", 2: f"error: no extensions found in {path}\n"}
        assert result == (code, expected, errors[code])


class TestManyChains:
    SHAPE = "x".join(["1"] * 62 + ["2", "2"])  # the diamond, as 64 chains

    def test_commands_exit_0(self, capsys, tmp_path):
        path = tmp_path / "exts.txt"
        code, out, err = run(capsys, "sample", "--shape", self.SHAPE, "--samples", "3", "--out", str(path))
        assert (code, err) == (0, "") and json.loads(out)["mean_degree"] == 1.0
        code, out, err = run(capsys, "sample", "--shape", self.SHAPE, "--method", "mcmc", "--samples", "3")
        assert (code, err) == (0, "") and json.loads(out)["mean_degree"] == 1.0
        code, out, err = run(capsys, "jumps", "--shape", self.SHAPE, "--in", str(path))
        assert (code, err) == (0, "") and len(parse_csv(out)) == 3
        code, out, err = run(capsys, "pits", "--shape", self.SHAPE, "--in", str(path))
        assert (code, err) == (0, "") and [r["t1"] for r in parse_csv(out)] == ["2"] * 3


class TestGraph:
    def test_stats_payload(self, capsys):
        code, out, _ = run(capsys, "graph", "--shape", "3x3")
        assert code == 0
        data = json.loads(out)
        assert data["vertices"] == 42
        assert data["edges"] == 84
        assert data["min_deg"] == 2
        assert data["max_deg"] == 6
        assert data["avg_deg"] == 4.0
        assert data["avg_deg_exact"] == "4"
        assert data["connected"] is True

    def test_long_chain_is_one_vertex(self, capsys):
        code, out, err = run(capsys, "graph", "--shape", "1000")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data["vertices"], data["edges"]) == (1, 0)

    def test_cap_of_one_takes_a_long_chain(self, capsys):
        code, out, err = run(capsys, "graph", "--shape", "100", "--cap", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["vertices"] == 1

    def test_dot_output(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "graph", "--shape", "2x2", "--dot", str(dot))
        assert code == 0
        text = dot.read_text()
        assert text.startswith("graph") and "v0 -- v1;" in text


class TestBounds:
    def test_base_reports(self, capsys):
        code, out, _ = run(capsys, "bounds", "--m", "3", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert [r["name"] for r in data] == [
            "log_count_lower_bound",
            "avg_degree_lower_bound",
            "almost_regular_fraction",
        ]
        assert all(r["vacuous"] for r in data)

    def test_with_R_and_delta(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--m", "3", "--n", "2", "--R", "4", "--delta", "4"
        )
        data = json.loads(out)
        names = [r["name"] for r in data]
        assert "pits_fraction_bound" in names and "markov_tail_probability" in names
        tail = next(r for r in data if r["name"] == "markov_tail_probability")
        assert tail["value"] == 0.25 and not tail["vacuous"]

    def test_astronomic_m(self, capsys):
        code, out, _ = run(capsys, "bounds", "--m", str(2**768), "--n", "2", "--R", "2")
        assert code == 0
        reports = {r["name"]: r for r in json.loads(out)}
        assert reports["log_count_lower_bound"]["value"] == float("inf")
        assert reports["avg_degree_lower_bound"]["vacuous"] is False
        assert reports["almost_regular_fraction"]["value"] == pytest.approx(0.5)

    def test_astronomic_n(self, capsys):
        code, out, err = run(capsys, "bounds", "--m", "3", "--n", str(2**1100), "--R", "2")
        assert (code, err) == (0, "")
        reports = {r["name"]: r for r in json.loads(out)}
        assert reports["log_count_lower_bound"]["value"] == float("inf")
        assert reports["avg_degree_lower_bound"]["value"] == float("-inf")
        assert reports["avg_degree_lower_bound"]["vacuous"] is True

    @pytest.mark.parametrize("flag", ["--R", "--delta"])
    def test_nan_rejected(self, capsys, flag):
        code, out, err = run(capsys, "bounds", "--m", "3", "--n", "2", flag, "nan")
        assert (code, out) == (2, "")
        assert err.startswith("error: need")

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "bounds", "--m", "3", "--n", "2", "--format", "csv")
        rows = parse_csv(out)
        assert len(rows) == 3 and rows[0]["name"] == "log_count_lower_bound"


class TestVerify:
    def test_config_is_the_seed(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "entropy", "--format", "json", "--seed", "7")
        assert code == 0 and json.loads(out)[0]["config"] == {"seed": 7}

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 2

    def test_all_runs_every_suite(self, capsys, monkeypatch):
        # Two stub suites, the second failing: all runs both in SUITES
        # order, prints their reports joined (text) or as one list (json),
        # and exits 1.
        from gridext import verify

        def stub(name, passed):
            check = verify.CheckResult(f"{name} check", "holds", "1", "1", passed)
            return lambda cfg: verify.SuiteReport(name, cfg, (check,))

        monkeypatch.setattr(verify, "SUITES", {"first": stub("first", True), "second": stub("second", False)})
        reports = verify.run_suite("all", verify.VerifyConfig(seed=3))
        assert [(r.suite, r.passed) for r in reports] == [("first", True), ("second", False)]
        text = "\n".join(r.to_text() for r in reports)
        assert run(capsys, "verify", "--suite", "all", "--seed", "3") == (1, text, "")
        code, out, err = run(capsys, "verify", "--suite", "all", "--seed", "3", "--format", "json")
        assert (code, err) == (1, "") and json.loads(out) == [r.to_dict() for r in reports]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, capsys, seed):
        code, _, err = run(capsys, "verify", "--suite", "bounds", "--seed", seed)
        assert code == 2
        assert err.startswith("error: seed must be")


class TestConjectureScan:
    def test_small_scan(self, capsys):
        code, out, _ = run(capsys, "conjecture-scan", "--max-size", "9", "--samples", "50")
        assert code == 0
        assert out.startswith("#")
        rows = parse_csv(out)
        got = {(r["m"], r["n"]): r for r in rows}
        assert set(got) == {("2", "2"), ("2", "3"), ("3", "2")}
        assert all(r["method"] == "exhaustive" for r in rows)
        diamond = got[("2", "2")]
        assert float(diamond["mean_degree"]) == 1.0
        assert float(diamond["ratio"]) == 0.25

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "conjecture-scan", "--max-size", "4", "--format", "json"
        )
        data = json.loads(out)
        assert data["version"] == __version__
        assert data["rows"][0]["m"] == 2 and data["rows"][0]["n"] == 2

    @pytest.mark.parametrize("max_size", ["9", "16"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_bad_samples_exits_2_before_any_table(self, capsys, built, max_size, samples):
        # 9 is scanned exhaustively, 16 samples its 4x4 row: both refuse.
        code, out, err = run(capsys, "conjecture-scan", "--max-size", max_size, "--samples", samples)
        assert (code, out, err) == (2, "", f"error: need --samples >= 1, got {samples}\n")
        assert built == []

    @pytest.mark.parametrize("max_size", ["9", "16"])
    def test_bad_seed_exits_2_before_any_table(self, capsys, built, max_size):
        # The seed is checked once every row is listed and before any row's
        # table is built, so a scan that draws nothing refuses it too.
        # Only 2x2x2x2's cap check, as its row is listed, reads a table.
        from gridext import GridShape

        code, out, err = run(capsys, "conjecture-scan", "--max-size", max_size, "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error: seed must be a 64-bit nonnegative integer")
        assert set(built) <= {GridShape((2, 2, 2))}

    def test_each_row_builds_its_table_once(self, capsys, built):
        # A sampled row counts from the table it draws from: 5x5 (25
        # points), 3x3x3 (27) and 2^5 (32) are each built once.
        from gridext import GridShape

        code, _, _ = run(capsys, "conjecture-scan", "--max-size", "32", "--samples", "10")
        assert code == 0
        for lengths in [(5, 5), (3, 3, 3), (2,) * 5]:
            assert built.count(GridShape(lengths)) == 1, lengths

    def test_only_sampled_rows_build_a_sampler(self, capsys, monkeypatch):
        # Of --max-size 16, only 2x2x2x2 (1680384 extensions) is sampled;
        # the exhaustive rows read their count from the table alone.
        from gridext import GridShape, sampling

        built = []
        real = sampling.ExactSampler

        def spy(shape, *args, **kwargs):
            built.append(shape)
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(sampling, "ExactSampler", spy)
        code, out, _ = run(capsys, "conjecture-scan", "--max-size", "16", "--samples", "5")
        assert code == 0
        assert [r["method"] for r in parse_csv(out)] == ["exhaustive"] * 4 + ["sampled"]
        assert built == [GridShape((2, 2, 2, 2))]

    def test_each_row_is_sized_once(self, capsys, monkeypatch):
        # The rows of --max-size 32 are held to the cap as they are listed,
        # and their samplers read the tables built then without sizing the
        # lattices again.  _lattice_size recurses on four chains or more,
        # so the spy sees what one cap check per row asks, sub-shapes too.
        from gridext import GridShape, counting

        calls = []
        real = counting._lattice_size

        def spy(shape, states):
            calls.append(shape.lengths)
            return real(shape, states)

        monkeypatch.setattr(counting, "_lattice_size", spy)
        code, _, _ = run(capsys, "conjecture-scan", "--max-size", "32", "--samples", "10")
        assert code == 0
        scanned, calls[:] = calls[:], []
        for lengths in [(2, 2), (2, 2, 2), (3, 3), (4, 4), (2,) * 4, (5, 5), (3, 3, 3), (2,) * 5]:
            counting._check_cap(GridShape(lengths), None)
        assert scanned == calls

    def test_huge_max_size_refuses_at_the_first_row_over_the_cap(self, capsys, tmp_path):
        # Rows are listed lazily in print order, so of the about 10^9 rows up
        # to 10^18 points only the first 15 are listed: 3x3x3x3 is over the cap.
        out_file = tmp_path / "scan.csv"
        t0 = time.perf_counter()
        code, out, err = run(capsys, "conjecture-scan", "--max-size", str(10**18), "--out", str(out_file))
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (3, "")
        assert "down-set lattice of 3x3x3x3 exceeds the state cap" in err
        assert not out_file.exists()

    def test_first_row_over_the_cap_refuses_before_any_table(self, capsys, built):
        # Rows in print order: 2x2, 2x2x2, 3x3, 4x4 (70 down-sets), then
        # 2x2x2x2 (168) over the cap.  Its cap check reads the 2x2x2 table.
        from gridext import GridShape

        code, out, err = run(capsys, "conjecture-scan", "--max-size", "16", "--cap", "100")
        assert (code, out) == (3, "")
        assert "down-set lattice of 2x2x2x2 exceeds the state cap of 100" in err
        assert set(built) <= {GridShape((2, 2, 2))}

    def test_four_chain_row_refused_before_six_chains_are_built(self, capsys, built):
        # 2x2x2x2x2x2 (size 64, 7828354 down-sets) is listed before
        # 3x3x3x3 (size 81, 17792748), which is over the default cap.
        from gridext import GridShape

        t0 = time.perf_counter()
        code, out, err = run(capsys, "conjecture-scan", "--max-size", "81")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (3, "")
        assert "down-set lattice of 3x3x3x3 exceeds the state cap" in err
        assert GridShape((2,) * 6) not in built


small_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda ls: math.prod(ls) <= 24)
huge_shapes = st.one_of(
    # At least 10^7 points, more than any state cap used here: refused before building.
    st.tuples(st.integers(10**7, 10**30), st.lists(st.integers(1, 5), max_size=3)).map(lambda t: [t[0], *t[1]]),
    # Seven or more chains of length 2: the middle rank alone gives 2^35 down-sets.
    st.integers(7, 40).map(lambda k: [2] * k),
)
shape_parts = st.one_of(st.integers(-3, 4).map(str), st.text(alphabet=" -+_.,aeX*", max_size=3))
shape_tokens = st.one_of(
    small_shapes.map(lambda ls: "x".join(map(str, ls))),
    huge_shapes.map(lambda ls: "x".join(map(str, ls))),
    # At most three parts, so a well-formed token has at most 4x4x4 = 64 points.
    st.lists(shape_parts, min_size=1, max_size=3).map("x".join),
    # Too many digits for int(), and a size with too many digits for str().
    st.sampled_from(["", "x", "3xx3", "0x2", "-2", "9" * 5000, "2" + "x2" * 15000]),
)


class TestArgvFuzz:
    @given(
        command=st.sampled_from(["count", "sample", "enumerate", "graph"]),
        shape=shape_tokens,
        cap=st.integers(-5, 3000),
        extra=st.sampled_from([[], ["--method", "mcmc", "--mcmc-steps", "30"], ["--format", "csv"]]),
    )
    # A slow refusal fails here with its argv named; the slowest example that
    # does work, the 2^17-point walk, takes well under a second.
    @settings(deadline=10_000, max_examples=150)
    def test_exits_cleanly(self, command, shape, cap, extra):
        if extra[:1] == ["--method"] and command != "sample":
            extra = []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, f"--shape={shape}", "--cap", str(cap), *extra])
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue()


class TestWalkOnLargeShapes:
    # 2^17 = 131072 points: too many for a table of point pairs, few enough
    # for the walk's O(size) cover arrays and the linear-size statistics.
    SHAPE = "x".join(["2"] * 17)

    def test_walk_runs_end_to_end(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["sample", "--method", "mcmc", "--shape", self.SHAPE, "--mcmc-steps", "30"])
        assert (code, err.getvalue()) == (0, "")
        data = json.loads(out.getvalue())
        assert data["config"]["samples"] == 1
        assert len(data["mean_pits_profile"]) == 2**17

    def test_state_array_over_the_limit_exits_3(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(
                ["sample", "--method", "mcmc", "--shape", self.SHAPE, "--mcmc-steps", "30", "--samples", "1000000"]
            )
        assert code == 3
        assert "Traceback" not in err.getvalue() and "points, above 33554432" in err.getvalue()
        assert out.getvalue() == ""


class TestOptionSurface:
    """Flags are taken only as written in full; --cap only by the commands that read it."""

    def test_cap_only_where_read(self):
        from gridext.cli import build_parser

        commands = next(a for a in build_parser()._actions if a.dest == "command").choices
        capped = {name for name, p in commands.items() if any("--cap" in a.option_strings for a in p._actions)}
        assert capped == {"count", "enumerate", "sample", "graph", "conjecture-scan"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["jumps", "--shape", "3x3", "--in", "{ext}", "--cap", "5"],
            ["pits", "--shape", "3x3", "--in", "{ext}", "--cap", "5"],
            ["bounds", "--m", "3", "--n", "2", "--cap", "5"],
            ["verify", "--suite", "counting", "--cap", "5"],
            *(["enumerate", "--shape", "2x2", "--format", fmt] for fmt in ("text", "json", "csv")),
            *(["sample", "--shape", "2x2", "--format", fmt] for fmt in ("json", "csv", "text")),
            # --m and --n are bounds' alone, and no flag may be abbreviated.
            ["count", "--shape", "3x3", "--m", "3"],
            ["count", "--shape", "3x3", "--form", "csv"],
            ["sample", "--shape", "2x2", "--samp", "3"],
            ["pits", "--shape", "3x3", "--in", "{ext}", "--form", "json"],
            ["verify", "--suite", "counting", "--form", "json"],
            # --seed only where it is read or passed by the benchmark.
            ["count", "--shape", "3x3", "--seed", "7"],
            ["enumerate", "--shape", "2x2", "--seed", "7"],
            ["bounds", "--m", "3", "--n", "2", "--seed", "7"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_removed_flags_exit_2(self, capsys, tmp_path, extension_file, argv):
        target = tmp_path / "out.txt"
        argv = [arg.format(ext=extension_file) for arg in argv]
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--shape", "2x2"],
            ["verify", "--suite", "counting"],
            ["conjecture-scan"],
            # These three read no seed; the benchmark's workloads pass one.
            ["jumps", "--shape", "2x2", "--in", "exts.txt"],
            ["pits", "--shape", "2x2", "--in", "exts.txt"],
            ["graph", "--shape", "2x2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_taken_where_read_or_passed(self, argv):
        from gridext.cli import build_parser

        parser = build_parser()
        assert parser.parse_args([*argv, "--seed", "7"]).seed == 7
        assert parser.parse_args(argv).seed == 42

    def test_no_parser_takes_abbreviations(self, capsys):
        from gridext.cli import build_parser

        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        assert len(commands) == 9
        assert not any(p.allow_abbrev for p in [parser, *commands.values()])
        code, out, err = run(capsys, "--vers")
        assert (code, out) == (2, "") and "error" in err


class TestTopLevel:
    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert __version__ in out

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 2


def fresh_env():
    """Environment for a new interpreter that imports gridext from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_fresh(code):
    """Run `code` in a new interpreter that imports gridext from this tree."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(*argv):
    """main(argv)'s exit code and the set of gridext and numpy modules
    loaded, in a new interpreter."""
    out = run_fresh(
        "import sys, gridext.cli\n"
        f"code = gridext.cli.main({list(argv)!r})\n"
        "print(code, *(m for m in sys.modules if m.partition('.')[0] in ('gridext', 'numpy')))\n"
    )
    code, *modules = out.splitlines()[-1].split()
    return int(code), set(modules)


# The modules of the tables and the oracles, which reading a file needs none of.
TABLE_MODULES = {"gridext.counting", "gridext.sampling", "gridext.transposition", "gridext.bounds", "gridext.verify"}


class TestColdImport:
    """Each command loads only the modules it runs, numpy only when it calls
    it, and scipy only for the chi-square test (this process has them all)."""

    @pytest.mark.parametrize(
        "argv, code",
        [(["--version"], 0), (["bounds", "--m", "4", "--n", "3"], 0), (["count", "--shape", "3y3"], 2)],
    )
    def test_numpy_free_commands(self, argv, code):
        got, modules = loaded_by(*argv)
        assert got == code
        assert "numpy" not in modules

    @pytest.mark.parametrize("command", [["jumps"], ["pits"], ["pits", "--mean"]])
    def test_file_commands_load_no_table(self, tmp_path, command):
        path = tmp_path / "exts.txt"
        path.write_text("0 1 2 3 4 5 6 7 8\n")  # row-major order extends the product order
        code, modules = loaded_by(*command, "--shape", "3x3", "--in", str(path))
        assert code == 0
        assert modules.isdisjoint(TABLE_MODULES)

    def test_exact_sample_loads_no_graph_bounds_or_verify(self):
        code, modules = loaded_by("sample", "--shape", "3x3", "--samples", "5")
        assert code == 0
        assert "gridext.sampling" in modules
        assert modules.isdisjoint({"gridext.transposition", "gridext.bounds", "gridext.verify"})

    def test_graph_does_not_load_numpy_ma(self):
        code, modules = loaded_by("graph", "--shape", "3x3")
        assert code == 0
        assert "gridext.transposition" in modules
        assert "numpy.ma" not in modules

    @pytest.mark.parametrize(
        "first",
        [
            "import gridext\nassert gridext.counting.__name__ == 'gridext.counting'\n",
            "from gridext import *\nimport gridext\nassert all(globals()[n] is getattr(gridext, n) for n in gridext.__all__)\n",
            "import gridext\nassert len(gridext.__all__) == 60\n",
            # A missing name read first still binds every name, then misses.
            "import gridext\ntry:\n    gridext.no_such_name\nexcept AttributeError as exc:\n"
            "    assert str(exc) == \"module 'gridext' has no attribute 'no_such_name'\"\n"
            "else:\n    raise AssertionError('no AttributeError')\n",
        ],
    )
    def test_any_first_access_loads_the_package(self, first):
        # Whichever comes first, every export and __all__ end up bound in
        # the eager package's order (a submodule's name loads that module
        # alone, the next other name the rest); a missing name is an
        # AttributeError.
        out = run_fresh(
            first + "from importlib import import_module\n"
            "parts = ('errors', 'grid', 'counting', 'jumps', 'transposition', 'sampling', 'bounds', 'verify')\n"
            "modules = [import_module(f'gridext.{part}') for part in parts]\n"
            "expected = ['__version__', *(name for module in modules for name in module.__all__)]\n"
            "assert gridext.__all__ == expected and len(expected) == 60\n"
            "assert all(getattr(gridext, part) is module for part, module in zip(parts, modules))\n"
            "assert all(getattr(gridext, name) is getattr(module, name) for module in modules for name in module.__all__)\n"
            "assert not hasattr(gridext, 'no_such_name')\n"
            "print('ok')\n"
        )
        assert out.splitlines()[-1] == "ok"

    def test_from_import_loads_that_module_alone(self):
        # The import system's from-list check reads gridext.cli through the
        # package's __getattr__, which imports that submodule alone.
        out = run_fresh(
            "import sys\n"
            "from gridext import cli\n"
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] in ('gridext', 'numpy')))\n"
        )
        assert out.split() == ["gridext", "gridext._version", "gridext.cli", "gridext.errors"]

    @pytest.mark.parametrize(
        "run, module, loaded",
        [
            ("assert gridext.cli.main(['count', '--shape', '3x3']) == 0", "scipy", False),
            # The exact sampler computes its PCG64 words without numpy.random.
            ("assert gridext.cli.main(['sample', '--shape', '3x3', '--samples', '5']) == 0", "numpy.random", False),
            (
                "assert gridext.cli.main(['conjecture-scan', '--max-size', '16', '--samples', '10']) == 0",
                "numpy.random",
                False,
            ),
            ("gridext.ExactSampler(gridext.GridShape((3, 3)), 7).sample_indices()", "numpy.random", False),
            # The walk's Generator draws still need it.
            (
                "assert gridext.cli.main(['sample', '--shape', '3x3', '--method', 'mcmc', '--samples', '5',"
                " '--mcmc-steps', '10']) == 0",
                "numpy.random",
                True,
            ),
        ],
        ids=["count-scipy", "sample", "conjecture-scan", "sampler", "mcmc"],
    )
    def test_commands_load_a_module_only_to_use_it(self, run, module, loaded):
        out = run_fresh(f"import sys, gridext, gridext.cli\n{run}\nprint({module!r} in sys.modules)\n")
        assert out.splitlines()[-1] == str(loaded)

    def test_chi_square_loads_scipy(self):
        out = run_fresh(
            "import sys\n"
            "from gridext import chi_square_uniformity\n"
            "res = chi_square_uniformity([5, 5])\n"
            "print('scipy' in sys.modules, res.pvalue)\n"
        )
        assert out.splitlines()[-1] == "True 1.0"
