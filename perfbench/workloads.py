"""The benchmark's three workloads: set-up and the operations of one pass.

Every operation is one ``qfid`` command line, run in-process through
``qfid.cli.main`` with its report written to a file in the work directory.
All workloads use the same noise model, tolerance and significance level;
the workload seed goes to ``--seed`` (and, for the sweep, picks the sweep
seeds).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

COMMON = ["--noise", "p1=1e-3,p2=1e-2,ro=1e-2", "--delta", "0.01", "--alpha", "0.05"]
P_MAX = 10_000  # the CLI default shot cap; no workload overrides it

# Fixed here rather than read from qfid.bench.FAMILIES, so a new family
# does not silently change the workload.
SWEEP_FAMILIES = ("bv", "ghz", "qft", "qpe", "clifford", "ising", "su2", "xeb")
SWEEP_SIZES = (4, 6)
SWEEP_DELTAS = "0.01,0.02,0.03"
SWEEP_ROWS = 3 * 3  # per sweep operation: deltas x seeds

ESTIMATE_SPECS = (
    ("bv:10", "linear"),
    ("ising:10", "linear"),
    ("qft:8", "linear"),
    ("su2:8", "linear"),
    ("ghz:4", "heavyhex27"),
    ("ghz:4", "grid:4x4"),
)
ANALYZE_SPECS = (
    ("qpe:10", "linear"),
    ("qpe:11", "linear"),
    ("qpe:12", "linear"),
    ("qft:12", "linear"),
    ("qpe:12", "heavyhex27"),
    ("su2:12", "heavyhex27"),
    ("qft:12", "grid:4x4"),
    ("qft:12", "ring"),
)
# The density-matrix simulator is sized to the whole coupling map, so these
# maps (27 and 16 physical qubits) exceed its 12-qubit cap and the CLI exits
# with code 4.  That typed refusal is the documented behaviour today.
OVER_CAP = {"heavyhex27", "grid:4x4"}
OVER_CAP_ERROR = "TooManyQubits"
EXIT_ORACLE = 4


@dataclass(frozen=True)
class Op:
    label: str
    kind: str  # "estimate" | "sweep" | "analyze"
    argv: tuple[str, ...]
    out: str
    # error type name the op may exit with (code 4) without counting as wrong
    tolerated_error: str | None = None


def sweep_seeds(seed: int) -> list[int]:
    """Three sweep seeds per workload seed, disjoint across workload seeds."""
    return [3 * seed + 1, 3 * seed + 2, 3 * seed + 3]


def _estimate_ops(work: str, seed: int) -> list[Op]:
    ops = []
    for i, (bench, coupling) in enumerate(ESTIMATE_SPECS):
        out = os.path.join(work, f"estimate-{i}.json")
        argv = ("estimate", "--bench", bench, "--coupling", coupling, *COMMON,
                "--seed", str(seed), "--out", out)
        tolerated = OVER_CAP_ERROR if coupling in OVER_CAP else None
        ops.append(Op(f"estimate {bench} {coupling}", "estimate", argv, out, tolerated))
    return ops


def _sweep_ops(work: str, seed: int) -> list[Op]:
    """One ``qfid sweep`` per (family, n) entry of the suite.

    Together they give the same 144 rows as one sweep over the whole suite
    (every row depends only on its own entry, delta and seed).  Split, a pass
    is 16 operations of a fraction of a second each instead of one of several
    seconds, so ``run.py`` reads the host-speed probe every fraction of a
    second, and an operation's median over passes drops a slow moment of the
    host without dropping a whole pass.  All repeated circuits fall within
    one entry, so a per-sweep cache finds the same repeats.
    """
    seeds = ",".join(str(s) for s in sweep_seeds(seed))
    ops = []
    for family in SWEEP_FAMILIES:
        for n in SWEEP_SIZES:
            suite = os.path.join(work, f"suite-{family}-{n}.json")
            with open(suite, "w", encoding="utf-8") as fh:
                json.dump([{"family": family, "n": n}], fh)
            out = os.path.join(work, f"sweep-{family}-{n}.csv")
            argv = ("sweep", "--suite", "@" + suite, "--deltas", SWEEP_DELTAS, "--seeds", seeds,
                    "--coupling", "linear", *COMMON, "--out", out)
            ops.append(Op(f"sweep {family}:{n} seeds {seeds}", "sweep", argv, out))
    return ops


def _analyze_ops(work: str, seed: int) -> list[Op]:
    from qfid import bench, qasm

    paths = {}
    for spec, _ in ANALYZE_SPECS:
        if spec in paths:
            continue
        family, n = spec.split(":")
        circuit = bench.generate(bench.BenchSpec.make(family, int(n)))
        paths[spec] = os.path.join(work, spec.replace(":", "_") + ".qasm")
        with open(paths[spec], "w", encoding="utf-8") as fh:
            fh.write(qasm.emit_qasm(circuit))
    ops = []
    for i, (spec, coupling) in enumerate(ANALYZE_SPECS):
        out = os.path.join(work, f"analyze-{i}.json")
        argv = ("analyze", "--qasm", paths[spec], "--coupling", coupling, *COMMON,
                "--seed", str(seed), "--out", out)
        ops.append(Op(f"analyze {spec} {coupling}", "analyze", argv, out))
    return ops


# Workloads whose pass time is divided by the host factor (run.py, probe.py).
# On a slow spell of the shared host the probe and a sweep pass both slowed
# by a factor of about 1.5, but estimate-dm10 and analyze-large, bound more by
# memory traffic, by only about 1.25.  Divided by the factor, estimate-dm10's
# ten-seed quartile spread rose from 15% to 26%, so those two report host
# seconds.
PROBED = frozenset({"sweep-small"})

WORKLOADS = {
    "estimate-dm10": _estimate_ops,
    "sweep-small": _sweep_ops,
    "analyze-large": _analyze_ops,
}


def set_up(workload: str, work: str, seed: int) -> list[Op]:
    """Write the workload's input files into ``work``; return one pass's ops."""
    os.makedirs(work, exist_ok=True)
    return WORKLOADS[workload](work, seed)
