"""Byte-for-byte golden outputs of every CLI subcommand and format.

Each case runs `gridext.cli.main` in-process on a small shape with a fixed
seed and compares stdout, plus every file the command writes, against
`tests/golden/<case>.stdout` and `tests/golden/<case>.<file>`.  The `jumps`
and `pits` cases read their extensions from golden files written by the
`enumerate` and `sample` cases, so those inputs are pinned too.

Regenerate (only when an output change is intended and documented):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from gridext.cli import main

GOLDEN = Path(__file__).parent / "golden"

# case -> (argv, files the command writes into {tmp}).  {golden} is the
# golden directory, {tmp} a fresh scratch directory.
CASES = {
    "count-json": (["count", "--shape", "3x3", "--format", "json"], ()),
    "count-csv": (["count", "--shape", "2x2x3", "--format", "csv"], ()),
    "count-text": (["count", "--shape", "2x2x2", "--format", "text"], ()),
    "enumerate-stdout": (["enumerate", "--shape", "2x3"], ()),
    "enumerate-out": (["enumerate", "--shape", "2x2x2", "--out", "{tmp}/ext.txt"], ("ext.txt",)),
    "sample-exact": (
        ["sample", "--shape", "3x3", "--samples", "25", "--seed", "7", "--out", "{tmp}/ext.txt"],
        ("ext.txt",),
    ),
    # 2x40: 861 down-sets and a 72-bit count, so the draws take two words.
    # 8x8: 12870 down-sets, past the exact sampler's per-down-set memo.
    "sample-exact-2x40": (
        ["sample", "--shape", "2x40", "--samples", "12", "--seed", "3", "--out", "{tmp}/ext.txt"],
        ("ext.txt",),
    ),
    "sample-exact-8x8": (
        ["sample", "--shape", "8x8", "--samples", "12", "--seed", "5", "--out", "{tmp}/ext.txt"],
        ("ext.txt",),
    ),
    "sample-mcmc": (
        ["sample", "--shape", "2x2x2", "--method", "mcmc", "--samples", "30", "--mcmc-steps", "200",
         "--laziness", "0.25", "--seed", "11", "--out", "{tmp}/ext.txt"],
        ("ext.txt",),
    ),
    "jumps-csv": (["jumps", "--shape", "2x2x2", "--in", "{golden}/enumerate-out.ext.txt"], ()),
    "jumps-json": (["jumps", "--shape", "3x3", "--in", "{golden}/sample-exact.ext.txt", "--format", "json"], ()),
    "pits-wide-csv": (["pits", "--shape", "3x3", "--in", "{golden}/sample-exact.ext.txt"], ()),
    "pits-wide-json": (["pits", "--shape", "2x2x2", "--in", "{golden}/sample-mcmc.ext.txt", "--format", "json"], ()),
    "pits-mean-csv": (["pits", "--shape", "2x2x2", "--in", "{golden}/enumerate-out.ext.txt", "--mean"], ()),
    "pits-mean-json": (
        ["pits", "--shape", "3x3", "--in", "{golden}/sample-exact.ext.txt", "--mean", "--format", "json"],
        (),
    ),
    "graph-json": (["graph", "--shape", "3x3", "--dot", "{tmp}/graph.dot"], ("graph.dot",)),
    "graph-text": (["graph", "--shape", "2x2x2", "--format", "text", "--dot", "{tmp}/graph.dot"], ("graph.dot",)),
    "bounds-json": (["bounds", "--m", "5", "--n", "3", "--R", "2", "--delta", "4"], ()),
    "bounds-csv": (["bounds", "--m", "1024", "--n", "2", "--format", "csv"], ()),
    "bounds-text": (["bounds", "--m", "3", "--n", "4", "--R", "1.5", "--format", "text"], ()),
    "verify-counting": (["verify", "--suite", "counting"], ()),
    "verify-entropy": (["verify", "--suite", "entropy", "--format", "json"], ()),
    "verify-bounds-text": (["verify", "--suite", "bounds"], ()),
    "verify-bounds-json": (["verify", "--suite", "bounds", "--format", "json"], ()),
    "scan-csv": (["conjecture-scan", "--max-size", "16", "--samples", "50"], ()),
    "scan-json": (["conjecture-scan", "--max-size", "16", "--samples", "50", "--seed", "5", "--format", "json"], ()),
}


def run_case(case: str) -> dict[str, bytes]:
    """Outputs of one case, keyed by golden file name."""
    argv, files = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.format(tmp=tmp, golden=GOLDEN) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (0, ""), f"{case} exited {code}: {err.getvalue()}"
        outputs = {f"{case}.stdout": out.getvalue().encode()}
        for name in files:
            outputs[f"{case}.{name}"] = Path(tmp, name).read_bytes()
    return outputs


@pytest.mark.parametrize("case", list(CASES))
def test_golden(case):
    for name, got in run_case(case).items():
        assert got == (GOLDEN / name).read_bytes(), f"{name} differs from its golden copy"


def test_no_stray_golden_files():
    expected = {f"{case}.stdout" for case in CASES}
    expected |= {f"{case}.{name}" for case, (_, files) in CASES.items() for name in files}
    assert {p.name for p in GOLDEN.iterdir()} == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    # Producers first: the jumps and pits cases read the files they write.
    for case in sorted(CASES, key=lambda c: not CASES[c][1]):
        for name, data in run_case(case).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {name} ({len(data)} bytes)", file=sys.stderr)
