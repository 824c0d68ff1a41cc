"""Workload definitions shared by the untimed checks, the timed CLI runs and
the traced per-layer pass.

Each workload is a fixed sequence of ``gridext`` CLI commands.  The sizes
live here so that ``run.py`` (which runs the commands) and ``layers.py``
(which makes the same calls in one traced interpreter) cannot drift apart.
``SMOKE`` holds tiny sizes used only by the smoke test.
"""

from __future__ import annotations

FULL = {
    "small-support": {"shape": "3x3", "mcmc_chains": 20_000, "mcmc_steps": 500, "exact_samples": 20_000},
    "large-and-exhaustive": {"shape": "4x4x4", "exact_samples": 500, "mcmc_chains": 10_000, "mcmc_steps": 1_000,
                             "graph_shape": "4x4", "scan_max_size": 27, "scan_samples": 5_000},
}

SMOKE = {
    "small-support": {"shape": "3x3", "mcmc_chains": 200, "mcmc_steps": 20, "exact_samples": 200},
    "large-and-exhaustive": {"shape": "3x3x3", "exact_samples": 20, "mcmc_chains": 50, "mcmc_steps": 20,
                             "graph_shape": "3x3", "scan_max_size": 9, "scan_samples": 50},
}

VERIFY_SUITES = ("counting", "bounds", "extremes", "entropy")

# Shapes the verify suites feed to the entropy and low-pits enumerations
# (gridext.verify ENTROPY_MN, DEFICIT_MN, DEFICIT_RS), as (m, n) pairs.
ENTROPY_MN = ((2, 2), (3, 2), (2, 3))
DEFICIT_MN = ((3, 2), (4, 2))
DEFICIT_RS = (1.0, 2.0, 4.0)


def shape_lengths(token: str) -> tuple[int, ...]:
    """Chain lengths of a shape written like ``4x4x4``."""
    return tuple(int(part) for part in token.split("x"))


def scan_shapes(max_size: int) -> list[tuple[int, int]]:
    """The (m, n) rows of ``conjecture-scan --max-size``, in its order."""
    shapes = [(m, n) for n in range(2, max_size.bit_length()) for m in range(2, max_size + 1) if m**n <= max_size]
    return sorted(shapes, key=lambda mn: (mn[0] ** mn[1], mn[1], mn[0]))


def sizes_for(workload: str, smoke: bool) -> dict:
    return (SMOKE if smoke else FULL)[workload]


def commands(workload: str, seed: int, sizes: dict) -> list[dict]:
    """The workload's CLI commands, in order.

    Each entry has a ``label`` (unique within the workload), the ``argv``
    after ``gridext``, its ``kind`` (which output check applies), the
    ``shape`` it works on, the ``out`` files it writes, ``sampling`` on the
    commands that draw random extensions (their walls make up
    ``sample_s``), and ``samples`` for ``sample`` commands.
    """
    shape = sizes["shape"]
    s = ["--seed", str(seed)]
    mcmc = {
        "label": "sample-mcmc",
        "kind": "sample",
        "shape": shape,
        "argv": ["sample", "--shape", shape, "--method", "mcmc", "--samples",
                 str(sizes["mcmc_chains"]), "--mcmc-steps", str(sizes["mcmc_steps"]), *s],
        "samples": sizes["mcmc_chains"],
        "sampling": True,
        "out": [],
    }
    exact = {
        "label": "sample-exact",
        "kind": "sample",
        "shape": shape,
        "argv": ["sample", "--shape", shape, "--samples", str(sizes["exact_samples"]), "--out", "exact.txt", *s],
        "samples": sizes["exact_samples"],
        "sampling": True,
        "out": ["exact.txt"],
    }
    if workload == "small-support":
        pits = {
            "label": "pits-mean",
            "kind": "pits-mean",
            "shape": shape,
            "argv": ["pits", "--shape", shape, "--in", "exact.txt", "--mean", *s],
            "source": "sample-exact",
            "out": [],
        }
        return [mcmc, exact, pits]
    if workload == "large-and-exhaustive":
        jumps = {
            "label": "jumps",
            "kind": "jumps",
            "shape": shape,
            "argv": ["jumps", "--shape", shape, "--in", "exact.txt", *s],
            "source": "sample-exact",
            "out": [],
        }
        # The bounds suite (20000 exact draws for the low-pits estimate) and
        # the scan (its rows beyond the exact limit) also draw random
        # extensions, so they count towards sample_s as well.
        verify = [
            {"label": f"verify-{suite}", "kind": "verify", "shape": None,
             "argv": ["verify", "--suite", suite, *s], "sampling": suite == "bounds", "out": []}
            for suite in VERIFY_SUITES
        ]
        scan = {
            "label": "conjecture-scan",
            "kind": "scan",
            "shape": None,
            "argv": ["conjecture-scan", "--max-size", str(sizes["scan_max_size"]),
                     "--samples", str(sizes["scan_samples"]), *s],
            "max_size": sizes["scan_max_size"],
            "sampling": True,
            "out": [],
        }
        graph = {
            "label": "graph",
            "kind": "graph",
            "shape": sizes["graph_shape"],
            "argv": ["graph", "--shape", sizes["graph_shape"], "--dot", "graph.dot", *s],
            "source": "conjecture-scan",
            "out": ["graph.dot"],
        }
        return [exact, mcmc, jumps, *verify, scan, graph]
    raise KeyError(workload)


WORKLOADS = tuple(FULL)
