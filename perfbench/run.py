"""qfid benchmark: time whole CLI operations, check their outputs, trace layers.

Run from the root of a source checkout (the package is imported from
``src/``)::

    python3 perfbench/run.py --workload sweep-small --seed 7 --seconds 35 --trace 0

Each workload is one process running a closed loop with one client: the
operations of a pass (``qfid.cli.main`` calls, see ``workloads.py``) run one
after another, and passes repeat while the next one is expected to finish
within ``--seconds`` (at least one pass always runs).

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``      seconds per pass: the sum, over the operations of a pass, of
  each operation's median time over the run's passes; on the workloads in
  ``workloads.PROBED``, divided by the run's host factor, which makes it the
  pass time at the probe's reference host speed;
* ``setup_s``     median, over ``SETUP_SAMPLES`` fresh interpreters, of the
  time from process start to the first operation: imports plus writing the
  workload's input files;
* ``peak_rss_mb`` peak resident memory of this process;
* ``ok_frac``     operations that exit 0 and pass the output check, over
  those attempted (1 - ``failed_frac``).

The host factor is the median reading of a probe (``probe.py``: fixed work
that shares no code with qfid) taken before every operation and after the
last one of each pass, over the probe's reference time.  On a shared
two-core host the same pass ran 30-40% slower for minutes at a time while
other tenants were busy, and the probe slowed with it.  The host seconds
(``host_wall_s``, whole-pass median and maximum, pass count) and the factor
are printed beside the metrics and written to ``--report``.

It also prints ``shots_total`` (shots per pass), ``bias_miss_frac`` (share of
estimates whose Hellinger bias exceeds 2*delta) and ``failed_frac``.  These
are 0 or undefined on some workloads, so they are printed, not returned as
metrics.

``--trace 1`` runs one untraced pass, one pass with spans around the calls
into each layer (``tracing.py``) and one pass that only measures tracemalloc
peaks.  It reports per-layer self times, counts and peaks, plus
``trace.overhead_s`` (traced minus untraced pass time).  The spans are
written to the work directory.

Every pass's outputs are checked (``checks.py``): invariants always, and a
match against ``reference/<workload>/seed-<n>.json`` when one exists for the
seed.  An operation may exit with code 4 only where the workload declares the
typed error it expects; such an operation counts in ``failed_frac`` but not
as a wrong output.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-reference`` runs one pass and stores its outputs as the reference.
``--workload all`` runs the three workloads one after another, each in its
own process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_ROOT = ".perfbench_work"
REFERENCE_DIR = HERE / "reference"
SETUP_SAMPLES = 7
# One BLAS thread: two threads on a shared two-core host made pass times
# swing by more than 10% between runs.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import probe as probe_module  # noqa: E402
import workloads  # noqa: E402


def _import_qfid(root: Path):
    """Import ``qfid.cli`` from ``root/src``, refusing any other copy."""
    src = root / "src"
    if not (src / "qfid" / "cli.py").is_file():
        raise SystemExit(f"error: no qfid sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)  # before numpy loads
    from qfid import cli

    if Path(cli.__file__).resolve().parent != (src / "qfid").resolve():
        raise SystemExit(f"error: imported qfid from {cli.__file__}, not {src}")
    return cli


def run_op(main, op) -> tuple[int, str]:
    """One CLI call; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(list(op.argv))
        except Exception as exc:  # noqa: BLE001 - an unmapped error is a failed op
            code = -1
            err.write(f"unhandled {type(exc).__name__}: {exc}\n")
    return code, err.getvalue()


class Outcome:
    """Tallies operations and what the checks found across passes."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.nonzero = 0  # non-zero exit, error rows or a failed check
        self.wrong = 0  # like nonzero, minus the failures the workload declares
        self.problems: list[str] = []
        self.estimates: list[tuple[int, float, float]] = []  # from the last pass

    def check_pass(self, ops, results) -> None:
        self.estimates = []
        ref_ops = self.reference["ops"] if self.reference else [None] * len(ops)
        for op, (code, err), ref in zip(ops, results, ref_ops):
            self.attempted += 1
            if code != 0:
                self.nonzero += 1
                tolerated = (op.tolerated_error and code == workloads.EXIT_ORACLE
                             and f"error: {op.tolerated_error}:" in err)
                if not tolerated:
                    self.wrong += 1
                    self.problems.append(f"{op.label}: exit {code}: {err.strip()}")
                continue
            problems = self._check(op, ref)
            if problems:
                self.nonzero += 1
                self.wrong += 1
                self.problems += [f"{op.label}: {p}" for p in problems[:5]]

    def _check(self, op, ref) -> list[str]:
        try:
            output = checks.load_output(op.kind, op.out)
        except (OSError, ValueError) as exc:
            return [f"unreadable report: {exc}"]
        try:
            problems = checks.invariants(op.kind, output, workloads.P_MAX, workloads.SWEEP_ROWS)
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            return [f"malformed report: {type(exc).__name__}: {exc}"]
        if ref is not None:
            if ref["label"] != op.label:
                problems.append(f"reference is for {ref['label']!r}")
            elif ref["exit"] == 0:
                problems += checks.compare(ref["output"], output, "report")
        self.estimates += checks.estimates(op.kind, output)
        return problems


def run_pass(main, ops, probe=None):
    """Every operation once.

    Returns each operation's seconds and ``run_op`` result, and the readings
    of ``probe``, if given, taken before every operation and after the last.
    """
    times, results = [], []
    readings = [probe()] if probe else []
    for op in ops:
        start = time.perf_counter()
        results.append(run_op(main, op))
        times.append(time.perf_counter() - start)
        if probe:
            readings.append(probe())
    return times, results, readings


def measure_setup(args) -> float:
    """Median time from process start to first operation, over fresh interpreters."""
    samples = []
    for i in range(SETUP_SAMPLES):
        work = os.path.join(WORK_ROOT, f"{args.workload}-setup-{i}")
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", str(start), "--work-dir", work],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed-{seed}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def record_reference(args, ops, results, outcome) -> None:
    if outcome.wrong:
        raise SystemExit("error: not recording a reference that fails its checks:\n"
                         + "\n".join(outcome.problems))
    entries = []
    for op, (code, _) in zip(ops, results):
        output = checks.load_output(op.kind, op.out) if code == 0 else None
        entries.append({"label": op.label, "exit": code, "output": output})
    path = reference_path(args.workload, args.seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "ops": entries}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    print(f"recorded {path}")


def timed_passes(main, ops, seconds: float, outcome: Outcome, probe=None):
    """Whole passes while the next is expected to end within ``seconds``;
    returns each pass's per-operation seconds and all the probe readings."""
    passes: list[list[float]] = []
    readings: list[float] = []
    start = time.perf_counter()
    while True:
        times, results, pass_readings = run_pass(main, ops, probe)
        passes.append(times)
        readings += pass_readings
        outcome.check_pass(ops, results)
        if time.perf_counter() - start + statistics.median(map(sum, passes)) > seconds:
            return passes, readings


def pass_seconds(passes: list[list[float]]) -> float:
    """A pass's time built from each operation's median time over the passes."""
    return sum(statistics.median(column) for column in zip(*passes))


def host_factor(readings: list[float]) -> float:
    """How much slower than the reference the host ran while these were read
    (1 when nothing was read)."""
    if not readings:
        return 1.0
    return statistics.median(readings) / probe_module.REFERENCE_S


def estimate_summary(outcome: Outcome) -> tuple[int, float | None]:
    shots = sum(s for s, _, _ in outcome.estimates)
    if not outcome.estimates:
        return shots, None
    misses = sum(1 for _, bias, delta in outcome.estimates if bias > 2 * delta)
    return shots, misses / len(outcome.estimates)


def timed_run(args, cli, work, outcome):
    """End-to-end metrics over untraced passes."""
    setup_s = measure_setup(args)
    ops = workloads.set_up(args.workload, work, args.seed)
    probe = probe_module.Probe() if args.workload in workloads.PROBED else None
    passes, readings = timed_passes(cli.main, ops, args.seconds, outcome, probe)
    wall_s = pass_seconds(passes)
    metrics = {
        "wall_s": wall_s / host_factor(readings),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - outcome.nonzero / outcome.attempted,
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
    return metrics, units, {
        "host_wall_s": wall_s, "host_factor": host_factor(readings),
        "walls": [sum(p) for p in passes], "op_seconds": passes, "probe_seconds": readings,
    }


def traced_pass(tracer, main, ops) -> tuple[float, list[tuple[int, str]]]:
    traced_main = tracer.wrap("cli.main", main)
    results = []
    with tracer.patched():
        start = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op = f"op{i}"
            results.append(run_op(traced_main, op))
        return time.perf_counter() - start, results


def traced_run(args, cli, work, outcome):
    """Per-layer metrics: an untraced pass, a traced pass, then a memory pass."""
    from tracing import PEAKS, Tracer

    tracer = Tracer()
    with tracer.patched():
        ops = workloads.set_up(args.workload, work, args.seed)
    times, results, _ = run_pass(cli.main, ops)
    untraced = sum(times)
    outcome.check_pass(ops, results)
    traced, results = traced_pass(tracer, cli.main, ops)
    outcome.check_pass(ops, results)
    memory = Tracer(memory=True)
    _, results = traced_pass(memory, cli.main, ops)
    outcome.check_pass(ops, results)
    metrics = tracer.layer_metrics()
    metrics.update({key: memory.counts[key] for key in PEAKS})
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    spans_path = os.path.join(WORK_ROOT, f"spans-{args.workload}-seed-{args.seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "ops": [op.label for op in ops], "spans": tracer.spans}, fh)
    print(f"spans: {len(tracer.spans)} written to {spans_path}")
    units = {k: ("s" if k.endswith("_s") else "MB" if k.endswith("_mb")
                 else "B" if k.endswith("_bytes") else "count") for k in metrics}
    return metrics, units, {"untraced_wall_s": untraced}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", help="also write every computed number to this JSON file")
    p.add_argument("--record-reference", action="store_true", dest="record",
                   help="run one pass and store its outputs as the reference for this seed")
    p.add_argument("--setup-only", type=int, dest="setup_only", help=argparse.SUPPRESS)
    p.add_argument("--work-dir", dest="work_dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        for name in workloads.WORKLOADS:
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if subprocess.run(command, check=False, timeout=3 * CHILD_TIMEOUT_S).returncode:
                return 1
        return 0
    cli = _import_qfid(Path.cwd())
    work = args.work_dir or os.path.join(WORK_ROOT, args.workload)
    if args.setup_only is not None:
        workloads.set_up(args.workload, work, args.seed)
        print((time.monotonic_ns() - args.setup_only) / 1e9)
        return 0

    shutil.rmtree(work, ignore_errors=True)
    outcome = Outcome(None if args.record else load_reference(args.workload, args.seed))
    if args.record:
        ops = workloads.set_up(args.workload, work, args.seed)
        _, results, _ = run_pass(cli.main, ops)
        outcome.check_pass(ops, results)
        record_reference(args, ops, results, outcome)
        return 0
    run = traced_run if args.trace else timed_run
    metrics, units, report = run(args, cli, work, outcome)
    shutil.rmtree(work, ignore_errors=True)

    shots, miss = estimate_summary(outcome)
    extra = {
        "shots_total": shots,
        "bias_miss_frac": miss,
        "failed_frac": outcome.nonzero / outcome.attempted,
    }
    report.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{outcome.attempted} operations attempted")
    if not args.trace:
        walls = report["walls"]
        print(f"  host_wall_s {report['host_wall_s']:.4f} s over {len(walls)} passes"
              f" (whole-pass median {statistics.median(walls):.4f} s, max {max(walls):.4f} s),"
              f" host factor {report['host_factor']:.4f}")
    for name, value in metrics.items():
        print(f"  {name} {value} {units[name]}")
    print(f"  shots_total {shots} count (per pass)")
    print(f"  bias_miss_frac {'n/a' if miss is None else miss} ratio")
    print(f"  failed_frac {extra['failed_frac']} ratio ({outcome.nonzero}/{outcome.attempted})")
    for problem in outcome.problems:
        print(f"  check: {problem}")
    print(f"  output check: {'pass' if not outcome.wrong else 'FAIL'}"
          f" ({'reference and invariants' if outcome.reference else 'invariants only'})")
    if args.report:
        report.update(metrics=metrics, units=units, **extra,
                      attempted=outcome.attempted, problems=outcome.problems)
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.wrong,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
