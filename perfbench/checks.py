"""Output checks: invariants that need no reference, and reference matching.

Reference matching compares a report with the one recorded for the same
workload, seed and operation: integers, strings, booleans and nulls must be
equal, floats must agree within ``REL_TOL`` relative or ``ABS_TOL`` absolute
(a value is a float when either side reads as one).
The absolute floor covers quantities such as a Hellinger distance between
nearly equal fidelities, which is the square root of a difference and so
carries rounding noise near 1e-8.  Two fields are left out of every
comparison: ``wall_time_ms`` (a clock reading) and the per-batch list of an
estimate (its totals ``num_batches``, ``shots_used``, ``fhat``, ``sigma`` and
``ci`` are kept), which would make the stored references large.
"""

from __future__ import annotations

import json
import math
import re

REL_TOL = 1e-6
ABS_TOL = 1e-7
STOP_REASONS = ("ci_met", "cap_reached")
_INT = re.compile(r"-?\d+\Z")

# sweep CSV column positions (qfid.report.SWEEP_COLUMNS)
C_FAMILY, C_N, C_SEED, C_DELTA = 0, 1, 2, 3
C_SHOTS, C_STOP, C_CI, C_BIAS = 11, 12, 14, 15


def load_output(kind: str, path: str):
    """Read an operation's report into the form that is checked and stored."""
    with open(path, encoding="utf-8") as fh:
        if kind == "sweep":
            return [line.split(",") for line in fh.read().splitlines()]
        data = json.load(fh)
    data.pop("wall_time_ms", None)
    if "estimate" in data:
        data["estimate"].pop("batches", None)
    return data


def estimates(kind: str, output) -> list[tuple[int, float, float]]:
    """(shots_used, bias_exact, delta) for every estimate in a report."""
    if kind == "estimate":
        return [(output["estimate"]["shots_used"],
                 output["bias"]["fidelity_hellinger"], output["plan"]["delta"])]
    if kind == "sweep":
        return [(int(r[C_SHOTS]), float(r[C_BIAS]), float(r[C_DELTA]))
                for r in output[1:] if not r[C_STOP].startswith("error:")]
    return []


def _check_stop(where: str, stop: str, ci: float, shots: int, delta: float,
                p_max: int) -> list[str]:
    problems = []
    if stop not in STOP_REASONS:
        problems.append(f"{where}: stop_reason {stop!r}")
    if stop == "ci_met" and not ci <= delta:
        problems.append(f"{where}: ci_met with ci {ci} > delta {delta}")
    if shots > p_max:
        problems.append(f"{where}: shots_used {shots} > p_max {p_max}")
    return problems


def invariants(kind: str, output, p_max: int, expected_rows: int = 0) -> list[str]:
    """Checks that hold for any correct report, with or without a reference."""
    if kind == "estimate":
        est = output["estimate"]
        return _check_stop("estimate", est["stop_reason"], est["ci"], est["shots_used"],
                           output["plan"]["delta"], p_max)
    if kind == "analyze":
        eigs = output["spectrum"]["eigenvalues"]
        problems = []
        if not eigs or any(abs(v) > 1.0 + 1e-9 for v in eigs):
            problems.append(f"analyze: eigenvalues outside [-1, 1]: {eigs}")
        if output["plan"]["batch_size"] < 1:
            problems.append("analyze: batch_size < 1")
        return problems
    rows = output[1:]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"sweep: {len(rows)} rows, expected {expected_rows}")
    shots_by_run: dict[tuple, list[tuple[float, int]]] = {}
    for r in rows:
        where = f"sweep row {','.join(r[:4])}"
        if r[C_STOP].startswith("error:"):
            problems.append(f"{where}: {r[C_STOP]}")
            continue
        delta, shots = float(r[C_DELTA]), int(r[C_SHOTS])
        problems += _check_stop(where, r[C_STOP], float(r[C_CI]), shots, delta, p_max)
        shots_by_run.setdefault((r[C_FAMILY], r[C_N], r[C_SEED]), []).append((delta, shots))
    for key, points in shots_by_run.items():
        shots = [s for _, s in sorted(points)]
        if any(b > a for a, b in zip(shots, shots[1:])):
            problems.append(f"sweep {':'.join(key)}: shots rise with delta: {shots}")
    return problems


def _cell(text: str):
    if _INT.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare(ref, got, where: str = "") -> list[str]:
    """Differences between a stored reference and a new report."""
    if isinstance(ref, str) and isinstance(got, str):
        ref, got = _cell(ref), _cell(got)
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(ref)} != {sorted(got)}"]
        return [d for k in ref for d in compare(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(ref)} != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(ref, got)) for d in compare(a, b, f"{where}[{i}]")]
    # qfid writes floats at 17 significant digits, so 1.0 reads back as int 1
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (ref, got))
    if numbers and (isinstance(ref, float) or isinstance(got, float)):
        return [] if _same_float(ref, got) else [f"{where}: {got!r} != reference {ref!r}"]
    if type(ref) is type(got) and ref == got:
        return []
    return [f"{where}: {got!r} != reference {ref!r}"]
