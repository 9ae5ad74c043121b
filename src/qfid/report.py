"""Pipeline orchestration and report serialization.

``analyze_circuit`` runs the shot-free half of the pipeline (DAG,
transpile, deformation, spectrum, batch size); ``build_pipeline`` adds the
exact ideal and noisy distributions, and ``sample_pipeline`` the adaptive
sampling loop, under the plan the build made, and bias accounting against
the exact noisy distribution.
``run_estimate`` is those two steps in a row, plus the outcome bias of
its shots; a sweep reuses one build across seeds and one sampling trace
across tolerances.  Reports serialize to JSON/CSV with every float
rendered at 17 significant digits so identical configurations produce
byte-identical files.

Bias fields recorded per run:

* ``fidelity_abs``  -- |F_hat - F_true|, the plain estimate deviation.
* ``fidelity_hellinger`` -- Hellinger distance between the per-shot value
  distributions (F_hat, 1-F_hat) and (F_true, 1-F_true); this is the
  headline bias number (CSV column ``bias_exact``).
* ``outcome_hellinger`` -- Hellinger distance between the raw empirical
  outcome histogram and the exact noisy distribution; diagnostic only,
  since it is dominated by the sampling floor at any finite shot count.
  Only ``run_estimate`` records it (a sweep row has no column for it).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields, replace
from json.encoder import encode_basestring

import numpy as np

from .bench import BenchSpec, generate
from .circuit import Circuit, Gate
from .dag import build_dag
from .deformation import DeformationReport, compare
from .estimator import (
    BatchStat,
    BatchTable,
    EstimationTrace,
    Plan,
    PlanConfig,
    batch_size,
    bernoulli_hellinger,
    estimate,
    hellinger_distance,
    shot_values,
    truncate,
)
from .simulator import (
    DistributionOracle,
    NoiseModel,
    OutcomeDistribution,
    empirical_distribution,
    ideal_distribution,
    noisy_distribution,
)
from .spectral import KernelConfig, PropagationSpectrum, analyze_spectrum, build_kernel
from .transpile import CouplingMap, TranspileResult, transpile


def format_float(value: float) -> str:
    """Canonical float rendering: 17 significant digits, exact round-trip."""
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return format(value, ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON writer with 17-significant-digit floats.

    String values are escaped as RFC 8259 asks.  Keys are written as they
    are: each is a field name or an outcome bitstring, never input text.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):  # escapes \\, " and U+0000-U+001F; other text as is
        return encode_basestring(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + to_json(v, indent + 1) for v in obj)
        return f"[\n{items}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{inner}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items()
        )
        return f"{{\n{items}\n{pad}}}"
    if isinstance(obj, BatchTable):
        return _batch_rows(obj, indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _batch_rows(table: BatchTable, indent: int) -> str:
    """``table`` as ``to_json`` writes a list of its rows as dicts, in one pass.

    A row template writes ``%d`` for the integer fields and ``%.17g`` for
    the float ones, which is ``format_float``'s text for every finite float;
    a table holding NaN or an infinity goes through ``format_float``.
    """
    if not len(table):
        return "[]"
    if not all(np.isfinite(column).all()
               for column in (table.batch_mean, table.cum_mean, table.cum_std, table.ci)):
        return to_json([dict(vars(row)) for row in table], indent)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    row = ",\n".join(
        f'{inner}  "{f.name}": {"%d" if f.type == "int" else "%.17g"}' for f in fields(BatchStat)
    )
    row = f"{inner}{{\n{row}\n{inner}}}"
    return "[\n" + ",\n".join([row % values for values in table.rows()]) + f"\n{pad}]"


@dataclass
class AnalyzeReport:
    circuit: dict
    transpiled: dict
    deformation: DeformationReport
    spectrum: PropagationSpectrum
    plan: Plan

    def to_dict(self) -> dict:
        return {
            "circuit": self.circuit,
            "transpile": self.transpiled,
            "deformation": asdict(self.deformation),
            "spectrum": {k: v for k, v in asdict(self.spectrum).items() if k != "residual"},
            "plan": self.plan.to_dict(),
        }


@dataclass
class RunRecord:
    analyze: AnalyzeReport
    trace: EstimationTrace
    bias: dict
    noise: dict
    oracle_seed: int
    wall_time_ms: float | None = None

    def to_dict(self) -> dict:
        data = {
            **self.analyze.to_dict(),
            "noise": self.noise,
            "oracle_seed": self.oracle_seed,
            "estimate": {
                "batch_size": self.trace.plan.batch,
                "estimator": self.trace.plan.config.estimator,
                "shots_used": self.trace.shots_used,
                "stop_reason": self.trace.stop_reason,
                "fhat": self.trace.fhat,
                "sigma": self.trace.sigma,
                "ci": self.trace.ci,
                "num_batches": len(self.trace.batches),
                "batches": self.trace.batches,
            },
            "bias": self.bias,
        }
        if self.wall_time_ms is not None:
            data["wall_time_ms"] = self.wall_time_ms
        return data


def _gate_counts(c: Circuit) -> dict:
    return {
        "ops": len(c.ops),
        "gates": len(c.gates),
        "measures": len(c.measures),
        "cx": sum(1 for op in c.ops if isinstance(op, Gate) and op.kind == "cx"),
    }


def analyze_circuit(
    circuit: Circuit,
    coupling: CouplingMap,
    seed: int = 0,
    kernel_cfg: KernelConfig | None = None,
    plan_cfg: PlanConfig | None = None,
) -> tuple[AnalyzeReport, TranspileResult]:
    """Shot-free pipeline: transpile, compare DAGs, spectrum, batch size.

    Routing takes no seed: ``seed`` is only recorded, as the report's
    ``transpile.seed``.
    """
    kernel_cfg = kernel_cfg or KernelConfig()
    plan_cfg = plan_cfg or PlanConfig()
    tr = transpile(circuit, coupling)
    g0 = build_dag(circuit)
    gt = build_dag(tr.circuit_t)
    deformation = compare(g0, gt)
    raw = deformation.raw
    kernel = build_kernel(gt, deformation, kernel_cfg)
    spectrum = analyze_spectrum(kernel, kernel_cfg.k)
    report = AnalyzeReport(
        circuit={
            "num_qubits": circuit.num_qubits,
            "num_clbits": circuit.num_clbits,
            "depth": raw["depth_0"],
            **_gate_counts(circuit),
        },
        transpiled={
            "num_physical_qubits": coupling.num_physical_qubits,
            "depth": raw["depth_t"],
            "swap_count": tr.swap_count,
            "initial_layout": list(tr.initial_layout),
            "final_layout": list(tr.final_layout),
            "seed": seed,
            **_gate_counts(tr.circuit_t),
        },
        deformation=deformation,
        spectrum=spectrum,
        plan=Plan(batch_size(spectrum.complexity, raw["depth_t"], plan_cfg), plan_cfg),
    )
    return report, tr


def _true_fidelity(
    estimator: str, ideal: OutcomeDistribution, noisy: OutcomeDistribution
) -> float:
    """The estimator's target value under the exact noisy distribution."""
    values = shot_values(ideal, estimator)
    if estimator == "success":  # the success set's mass, summed in index order
        return float(noisy.probs[values > 0].sum())
    return float(values @ noisy.probs)


@dataclass
class Pipeline:
    """Everything an estimate needs before its first shot."""

    analyze: AnalyzeReport
    noise: NoiseModel
    ideal: OutcomeDistribution
    noisy: OutcomeDistribution


def build_pipeline(
    circuit: Circuit,
    coupling: CouplingMap,
    noise: NoiseModel,
    transpile_seed: int = 0,
    kernel_cfg: KernelConfig | None = None,
    plan_cfg: PlanConfig | None = None,
) -> Pipeline:
    """Analyze the circuit and compute its exact ideal and noisy distributions.

    The shot oracle runs over the transpiled circuit (noise acts on what
    the hardware would execute), read out from where routing left each
    logical qubit; the ideal distribution that defines shot values comes
    from the logical circuit.
    """
    analyze, tr = analyze_circuit(
        circuit, coupling, transpile_seed, kernel_cfg, plan_cfg
    )
    ideal = ideal_distribution(circuit)
    noisy = noisy_distribution(tr.readout_circuit(), noise)
    return Pipeline(analyze, noise, ideal, noisy)


def _fidelity_bias(fhat: float, f_true: float) -> dict:
    return {
        "f_true_exact": f_true,
        "fidelity_abs": abs(fhat - f_true),
        "fidelity_hellinger": bernoulli_hellinger(fhat, f_true),
    }


def sample_pipeline(pipeline: Pipeline, oracle_seed: int) -> RunRecord:
    """Sample adaptively under the build's plan; record the fidelity bias."""
    plan = pipeline.analyze.plan
    oracle = DistributionOracle(pipeline.noisy, oracle_seed)
    trace = estimate(oracle, pipeline.ideal, plan)
    bias = _fidelity_bias(
        trace.fhat, _true_fidelity(plan.config.estimator, pipeline.ideal, pipeline.noisy)
    )
    noise = pipeline.noise
    return RunRecord(
        analyze=pipeline.analyze,
        trace=trace,
        bias=bias,
        noise={"p1": noise.p1, "p2": noise.p2, "ro": noise.p_ro},
        oracle_seed=oracle_seed,
    )


def run_estimate(
    circuit: Circuit,
    coupling: CouplingMap,
    noise: NoiseModel,
    oracle_seed: int,
    kernel_cfg: KernelConfig | None = None,
    plan_cfg: PlanConfig | None = None,
    reference_shots: int = 0,
) -> RunRecord:
    """``build_pipeline`` then ``sample_pipeline``, plus the outcome bias.

    The outcome bias compares the exact noisy distribution with the shots
    the trace kept.  A reference of ``reference_shots`` comes from the next
    seed.  ``oracle_seed`` is also recorded as the report's
    ``transpile.seed``.
    """
    t_start = time.perf_counter()
    pipeline = build_pipeline(
        circuit, coupling, noise, oracle_seed, kernel_cfg, plan_cfg
    )
    record = sample_pipeline(pipeline, oracle_seed)
    noisy = pipeline.noisy
    empirical = empirical_distribution(noisy.num_bits, record.trace.outcomes)
    record.bias["outcome_hellinger"] = hellinger_distance(empirical, noisy)
    if reference_shots > 0:
        ref_shots = DistributionOracle(noisy, oracle_seed + 1).sample(reference_shots)
        ref_dist = empirical_distribution(noisy.num_bits, ref_shots)
        record.bias["outcome_hellinger_ref"] = hellinger_distance(empirical, ref_dist)
        record.bias["reference_shots"] = reference_shots
    record.wall_time_ms = (time.perf_counter() - t_start) * 1000.0
    return record


SWEEP_COLUMNS = (
    "family,n,seed,delta,depth0,deptht,ddeg,dpath,dconn,complexity,batch,"
    "shots_used,stop_reason,fhat,ci,bias_exact,walltime_ms"
)


def csv_row(
    family: str,
    n: int,
    seed: int,
    analyze: AnalyzeReport,
    record: RunRecord | None = None,
    walltime: str = "",
) -> str:
    """One sweep-schema row; estimate columns stay empty for analyze-only.

    Delta and batch come from the plan ``record`` sampled under, else from
    ``analyze``'s plan.
    """
    d = analyze.deformation
    plan = (record.trace if record is not None else analyze).plan
    fields = [
        family,
        str(n),
        str(seed),
        format_float(plan.config.delta),
        str(analyze.circuit["depth"]),
        str(analyze.transpiled["depth"]),
        format_float(d.delta_deg),
        format_float(d.delta_path),
        format_float(d.delta_conn),
        format_float(analyze.spectrum.complexity),
        str(plan.batch),
    ]
    if record is not None:
        fields += [
            str(record.trace.shots_used),
            record.trace.stop_reason,
            format_float(record.trace.fhat),
            format_float(record.trace.ci),
            format_float(record.bias["fidelity_hellinger"]),
        ]
    else:
        fields += ["", "", "", "", ""]
    fields.append(walltime)
    return ",".join(fields)


def _record_at(record: RunRecord, cfg: PlanConfig) -> RunRecord:
    """A shot-free ``record`` cut back to the looser tolerance of ``cfg``."""
    trace = truncate(record.trace, replace(record.trace.plan, config=cfg))
    bias = _fidelity_bias(trace.fhat, record.bias["f_true_exact"])
    return replace(record, trace=trace, bias=bias)


def sweep_rows(
    suite: list[BenchSpec],
    cfgs: list[PlanConfig],
    seeds: list[int],
    coupling_factory,
    noise: NoiseModel,
    timing: bool = False,
    kernel_cfg: KernelConfig | None = None,
) -> list[str]:
    """One CSV row per (spec, seed, delta), ordered deterministically.

    ``cfgs`` holds one plan config per delta, equal in every other field.
    Each distinct circuit of a suite entry is built once (``build_pipeline``,
    a failure included), and each seed samples once, at the tightest delta,
    which gives that delta's row.  Every looser delta's row is a prefix of
    that trace, cut where the stop rule first holds at its delta
    (``estimator.truncate``): the batch size and the oracle seed do not
    depend on delta, so the cut equals a run made at that delta.  Wall time
    is left blank unless ``timing`` is set, keeping default output
    byte-stable; when it is set, every delta row of a (spec, seed) carries
    the time that (spec, seed) took, its build included when the circuit
    was not built before.  ``kernel_cfg`` goes to every build, its ``k``
    included, as in ``build_pipeline``; each of ``seeds`` picks the circuit
    and the oracle.  A run that raises leaves a row whose stop_reason cell reads
    ``error:<Type>: <message>``, with commas and line breaks in the message
    replaced so the row keeps its 17 cells.
    """
    if not cfgs:
        return []
    tightest = min(cfgs, key=lambda cfg: cfg.delta)
    rows = []
    for spec in suite:
        # keyed by the generated circuit; dropped after the entry
        pipelines: dict[tuple, Pipeline | Exception] = {}
        for seed in seeds:
            t0 = time.perf_counter()
            try:
                circuit = generate(replace(spec, seed=seed))
                key = (circuit.num_qubits, circuit.num_clbits, tuple(circuit.ops))
                if key not in pipelines:
                    try:
                        pipelines[key] = build_pipeline(
                            circuit,
                            coupling_factory(circuit.num_qubits),
                            noise,
                            kernel_cfg=kernel_cfg,
                            plan_cfg=tightest,
                        )
                    except Exception as exc:  # noqa: BLE001 - every seed reports it
                        pipelines[key] = exc
                pipeline = pipelines[key]
                if isinstance(pipeline, Exception):
                    raise pipeline
                record = sample_pipeline(pipeline, seed)
                cuts = [record if cfg == tightest else _record_at(record, cfg) for cfg in cfgs]
            except Exception as exc:  # noqa: BLE001 - partial rows keep the sweep alive
                # one cell: the message must not split the row or the file
                message = " ".join(f"{error_name(exc)}: {exc}".splitlines())
                message = message.replace(",", ";")
                rows.extend(
                    f"{spec.family},{spec.n},{seed},{format_float(cfg.delta)},"
                    f",,,,,,,,error:{message},,,,"
                    for cfg in cfgs
                )
                continue
            wall = (
                str(int((time.perf_counter() - t0) * 1000.0))
                if timing
                else ""
            )
            rows.extend(csv_row(spec.family, spec.n, seed, cut.analyze, cut, wall) for cut in cuts)
    return rows


def error_name(exc: BaseException) -> str:
    """The error's class name for messages; a private class (its name starts
    with ``_``) reads as its first public base."""
    return next(k.__name__ for k in type(exc).__mro__ if not k.__name__.startswith("_"))


def sweep_csv(*args, **kwargs) -> str:
    return "\n".join([SWEEP_COLUMNS, *sweep_rows(*args, **kwargs)]) + "\n"
