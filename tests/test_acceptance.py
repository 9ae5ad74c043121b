"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The end-to-end criteria (6-8) share one set of noisy estimation
runs, built once per session in the ``suite_runs`` fixture.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.stats import spearmanr

from qfid.bench import BenchSpec, default_suite, generate
from qfid.circuit import Circuit, gate_unitary
from qfid.dag import build_dag
from qfid.deformation import DeformationReport, compare
from qfid.estimator import (
    Plan,
    PlanConfig,
    batch_size,
    bernoulli_hellinger,
    estimate,
    success_set,
)
from qfid.qasm import QasmError, emit_qasm, parse_qasm
from qfid.simulator import (
    DistributionOracle,
    NoiseModel,
    ideal_distribution,
    noisy_distribution,
)
from qfid.spectral import (
    _symmetric_similar,
    analyze_spectrum,
    build_kernel,
)
from qfid.transpile import linear_map, transpile

from helpers import check_coupling, circuit_unitary, layer_depth, operator_rows, ptm, random_circuit

NOISE = NoiseModel(p1=1e-3, p2=1e-2, p_ro=1e-2)
TREND_FAMILIES = ("bv", "ghz", "qft", "xeb")
TREND_SIZES = (4, 6, 8)
TREND_SEEDS = tuple(range(1, 21))


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} [{'PASS' if passed else 'FAIL'}]: {detail}")


# -- criterion 1: operator properties over 200 random circuits ---------------


def test_criterion_1_operator_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250101)
    worst_row = 0.0
    worst_perron = 0.0
    worst_imag = 0.0
    worst_asym = 0.0
    for trial in range(200):
        nq = int(rng.integers(2, 11))
        ng = int(rng.integers(5, 201))
        circuit = random_circuit(nq, ng, seed=trial, measure=True)
        tr = transpile(circuit, linear_map(nq))
        gt = build_dag(tr.circuit_t)
        deformation = compare(build_dag(circuit), gt)
        kernel = build_kernel(gt, deformation)
        p = operator_rows(kernel)
        worst_row = max(worst_row, float(np.abs(p.sum(axis=1) - 1.0).max()))
        s = _symmetric_similar(kernel)
        worst_asym = max(worst_asym, float(np.abs(s - s.T).max()))
        eigs = analyze_spectrum(kernel, min(10, kernel.n)).eigenvalues
        worst_perron = max(worst_perron, abs(abs(eigs[0]) - 1.0))
        worst_imag = max(worst_imag, max(abs(complex(e).imag) for e in eigs))
    elapsed = time.perf_counter() - t0
    passed = (
        worst_row <= 1e-9
        and worst_perron <= 1e-9
        and worst_imag <= 1e-8
        and elapsed < 60.0
    )
    report(
        1,
        passed,
        f"200 circuits: max row-sum dev {worst_row:.2e}, Perron dev "
        f"{worst_perron:.2e}, imag residue {worst_imag:.2e}, "
        f"S asymmetry {worst_asym:.2e}, {elapsed:.1f}s",
    )
    assert passed


# -- criterion 2: spectral oracle equivalence ---------------------------------


def test_criterion_2_spectral_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    trial = 0
    while checked < 50:
        trial += 1
        nq = int(rng.integers(2, 6))
        ng = int(rng.integers(4, 40))
        circuit = random_circuit(nq, ng, seed=1000 + trial, measure=True)
        dag = build_dag(circuit)
        if dag.num_nodes > 64:
            continue
        deformation = DeformationReport(
            float(rng.uniform(0, 0.5)), float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        )
        kernel = build_kernel(dag, deformation)
        k = min(10, kernel.n)
        dense = analyze_spectrum(kernel, k, method="dense").eigenvalues
        iterative = analyze_spectrum(kernel, k, method="iterative").eigenvalues
        worst = max(
            worst, max(abs(abs(a) - abs(b)) for a, b in zip(dense, iterative))
        )
        checked += 1

    c2 = Circuit(2)
    c2.add("cx", (0, 1))
    c2.add("cx", (0, 1))
    kernel = build_kernel(build_dag(c2), DeformationReport(0, 0, 0))
    analytic = analyze_spectrum(kernel, 2).eigenvalues
    analytic_err = max(abs(analytic[0] - 1.0), abs(analytic[1] + 1 / 3))

    passed = worst <= 1e-6 and analytic_err <= 1e-12
    report(
        2,
        passed,
        f"50 kernels, iterative vs dense max |lambda| dev {worst:.2e}; "
        f"2x2 analytic error {analytic_err:.2e}",
    )
    assert passed


# -- criterion 3: transpiler semantics ----------------------------------------


def layout_permutation(final_layout, n_physical):
    dim = 2**n_physical
    p = np.zeros((dim, dim))
    for x in range(dim):
        y = 0
        for logical in range(len(final_layout)):
            y |= ((x >> logical) & 1) << final_layout[logical]
        p[y, x] = 1
    return p


def test_criterion_3_transpiler_semantics():
    min_overlap = 1.0
    small_specs = [
        BenchSpec.make(family, n)
        for family in TREND_FAMILIES + ("clifford", "ising", "su2", "qpe")
        for n in (2, 3)
        if not (family == "qpe" and n == 3)  # qpe:3 uses 4 qubits
    ]
    circuits = [generate(spec) for spec in small_specs]
    circuits += [
        random_circuit(int(np.random.default_rng(s).integers(2, 4)), 1 + s % 25, seed=s)
        for s in range(100)
    ]
    for circuit in circuits:
        nq = circuit.num_qubits
        if nq > 3:
            continue
        tr = transpile(circuit, linear_map(nq))
        assert tr.circuit_t.num_qubits == nq
        psi0 = circuit_unitary(circuit)[:, 0]
        psi_t = circuit_unitary(tr.circuit_t)[:, 0]
        perm = layout_permutation(tr.final_layout, nq)
        overlap = abs(np.vdot(perm @ psi0, psi_t))
        min_overlap = min(min_overlap, overlap)

    legal = True
    for spec in default_suite():
        circuit = generate(spec)
        cmap = linear_map(circuit.num_qubits)
        legal = legal and check_coupling(transpile(circuit, cmap).circuit_t, cmap)
    passed = min_overlap >= 1 - 1e-9 and legal
    report(
        3,
        passed,
        f"min noiseless overlap {min_overlap:.12f}; "
        f"coupling legality on full suite: {legal}",
    )
    assert passed


# -- criterion 4: simulator exactness -----------------------------------------


def test_criterion_4_simulator_exactness():
    ghz = ideal_distribution(generate(BenchSpec.make("ghz", 3)))
    ghz_err = max(
        abs(ghz.probs[int("000", 2)] - 0.5),
        abs(ghz.probs[int("111", 2)] - 0.5),
        float(np.delete(ghz.probs, [0, 7]).max()),
    )

    c = Circuit(1, 1)
    c.add("x", (0,))
    c.measure(0, 0)
    uniform = noisy_distribution(c, NoiseModel(p1=1.0))
    depol_err = float(np.abs(uniform.probs - 0.5).max())

    from qfid.simulator import _contract, _diagonal, _schedule

    # the Pauli vector of noisy_distribution, one gate at a time: its identity
    # component r_I and the sum of the diagonal it reads out are both Tr(rho)
    qft6 = generate(BenchSpec.make("qft", 6))
    n = qft6.num_qubits
    steps, width = _schedule([
        (ptm(gate_unitary(op), NOISE.p1 if len(op.qubits) == 1 else NOISE.p2), op.qubits)
        for op in qft6.gates
    ])
    bufs = [np.zeros(width), np.empty(width)]
    bufs[0][0] = 1.0
    worst_trace = 0.0
    for step in steps:
        _contract(bufs, step)
        diag_sum = float(_diagonal(bufs[0], step.order, step.dims, n).sum())
        worst_trace = max(worst_trace, abs(bufs[0][0] - 1.0), abs(diag_sum - 1.0))

    passed = ghz_err <= 1e-12 and depol_err <= 1e-12 and worst_trace <= 1e-10
    report(
        4,
        passed,
        f"GHZ(3) dev {ghz_err:.2e}; full-depol dev {depol_err:.2e}; "
        f"QFT(6) worst trace dev {worst_trace:.2e}",
    )
    assert passed


# -- criterion 5: stopping-rule oracle ----------------------------------------


class _StreamOracle:
    def __init__(self, bits):
        self.num_bits = 1
        self._bits = bits
        self._pos = 0

    def sample(self, batch_size):
        batch = self._bits[self._pos : self._pos + batch_size].astype(np.int64)
        self._pos += batch_size
        return batch


def test_criterion_5_stopping_rule_oracle():
    from qfid.simulator import OutcomeDistribution

    ideal = OutcomeDistribution(1, np.array([0.0, 1.0]))
    cfg = PlanConfig(delta=0.01, alpha=0.05)
    z_ref = 1.959963984540054  # independent tabulated quantile
    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        values = (rng.random(30_000) < 0.5).astype(float)

        stop_ref = None
        for nb in range(1, len(values) // 20 + 1):
            t = values[: nb * 20]
            sigma = float(t.std(ddof=1))
            ci = z_ref * sigma / math.sqrt(len(t))
            if ci <= cfg.delta and nb >= cfg.min_batches_before_stop:
                stop_ref = (len(t), "ci_met")
                break
            if len(t) >= cfg.p_max:
                stop_ref = (len(t), "cap_reached")
                break

        trace = estimate(_StreamOracle(values), ideal, Plan(20, cfg))
        if (trace.shots_used, trace.stop_reason) != stop_ref:
            mismatches += 1
    passed = mismatches == 0
    report(5, passed, f"stop-index mismatches vs reference loop: {mismatches}/100")
    assert passed


# -- criteria 6-8: end-to-end noisy estimation runs ---------------------------


@dataclass
class SuiteCell:
    family: str
    n: int
    seed: int
    batch: int
    ideal: object
    noisy: object
    f_true: float
    shots_used: int
    stop_reason: str
    fhat: float


@pytest.fixture(scope="module")
def suite_runs():
    cfg = PlanConfig(delta=0.01, alpha=0.05)
    cells = []
    cache = {}
    t0 = time.perf_counter()
    for family in TREND_FAMILIES:
        for n in TREND_SIZES:
            for seed in TREND_SEEDS:
                spec = BenchSpec.make(family, n, seed=seed)
                key = spec.label() if family in ("bv", "xeb") else (family, n)
                if key not in cache:
                    circuit = generate(spec)
                    tr = transpile(circuit, linear_map(circuit.num_qubits))
                    gt = build_dag(tr.circuit_t)
                    deformation = compare(build_dag(circuit), gt)
                    spectrum_k = build_kernel(gt, deformation)
                    spectrum = analyze_spectrum(spectrum_k)
                    batch = batch_size(spectrum.complexity, layer_depth(tr.circuit_t), cfg)
                    ideal = ideal_distribution(circuit)
                    noisy = noisy_distribution(tr.circuit_t, NOISE)
                    good = sorted(success_set(ideal))
                    f_true = float(noisy.probs[good].sum())
                    cache[key] = (batch, ideal, noisy, f_true)
                batch, ideal, noisy, f_true = cache[key]
                oracle = DistributionOracle(noisy, seed=seed)
                trace = estimate(oracle, ideal, Plan(batch, cfg))
                cells.append(
                    SuiteCell(
                        family, n, seed, batch, ideal, noisy, f_true,
                        trace.shots_used, trace.stop_reason, trace.fhat,
                    )
                )
    elapsed = time.perf_counter() - t0
    return cells, cache, elapsed


def test_criterion_6_shots_trend(suite_runs):
    cells, _, elapsed = suite_runs
    rho_by_family = {}
    for family in ("qft", "xeb"):
        medians = []
        for n in TREND_SIZES:
            shots = [c.shots_used for c in cells if c.family == family and c.n == n]
            medians.append(float(np.median(shots)))
        rho = float(spearmanr(TREND_SIZES, medians).statistic)
        rho_by_family[family] = (rho, medians)
    passed = all(rho >= 0.5 for rho, _ in rho_by_family.values()) and elapsed < 900
    report(
        6,
        passed,
        "; ".join(
            f"{family}: medians {[int(m) for m in med]} Spearman {rho:.2f}"
            for family, (rho, med) in rho_by_family.items()
        )
        + f"; suite built in {elapsed:.0f}s (< 900s)",
    )
    assert passed


def test_criterion_7_bias_guarantee(suite_runs):
    cells, _, _ = suite_runs
    total = len(cells)
    ci_met = sum(1 for c in cells if c.stop_reason == "ci_met" and c.shots_used < 10_000)
    bias_ok = sum(
        1 for c in cells if bernoulli_hellinger(c.fhat, c.f_true) <= 2 * 0.01
    )
    passed = ci_met / total >= 0.95 and bias_ok / total >= 0.90
    report(
        7,
        passed,
        f"ci_met with shots<10000: {ci_met}/{total} ({ci_met/total:.1%}); "
        f"Hellinger bias <= 2*delta: {bias_ok}/{total} ({bias_ok/total:.1%})",
    )
    assert passed


def test_criterion_8_delta_sweep_monotone(suite_runs):
    cells, cache, _ = suite_runs
    deltas = (0.01, 0.02, 0.03)
    ok_cells = 0
    total_cells = 0
    base = {(c.family, c.n, c.seed): c for c in cells}
    for family in TREND_FAMILIES:
        for n in TREND_SIZES:
            for seed in (1, 2, 3):
                cell = base[(family, n, seed)]
                shots = [cell.shots_used]  # delta = 0.01 from the shared runs
                for delta in deltas[1:]:
                    cfg = PlanConfig(delta=delta, alpha=0.05)
                    oracle = DistributionOracle(cell.noisy, seed=seed)
                    trace = estimate(oracle, cell.ideal, Plan(cell.batch, cfg))
                    shots.append(trace.shots_used)
                total_cells += 1
                if shots == sorted(shots, reverse=True):
                    ok_cells += 1
    passed = ok_cells / total_cells >= 0.95
    report(
        8,
        passed,
        f"non-increasing shots across deltas {deltas}: {ok_cells}/{total_cells} cells",
    )
    assert passed


# -- criterion 9: parser corpus and fuzz --------------------------------------


def test_criterion_9_parser_corpus_and_fuzz():
    corpus_specs = [
        BenchSpec.make(family, n, seed=1)
        for family in ("bv", "ghz", "qft", "qpe", "clifford", "ising", "su2", "xeb")
        for n in (4, 6)
    ] + [BenchSpec.make(family, 8, seed=1) for family in TREND_FAMILIES]
    assert len(corpus_specs) == 20
    stable = 0
    for spec in corpus_specs:
        circuit = generate(spec)
        text1 = emit_qasm(circuit)
        parsed = parse_qasm(text1)
        text2 = emit_qasm(parsed)
        if parsed == circuit and text1 == text2:
            stable += 1

    rng = np.random.default_rng(0xFA22)
    crashes = 0
    for _ in range(100_000):
        size = int(rng.integers(0, 64))
        blob = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        try:
            parse_qasm(blob)
        except QasmError:
            pass
        except Exception:  # noqa: BLE001 - the criterion counts any other escape
            crashes += 1
    passed = stable == 20 and crashes == 0
    report(9, passed, f"corpus fixed-point {stable}/20; fuzz crashes {crashes}/100000")
    assert passed


# -- criterion 10: sweep determinism -------------------------------------------


def test_criterion_10_sweep_byte_identical(tmp_path):
    import json

    from qfid.cli import main

    suite = tmp_path / "suite.json"
    suite.write_text(
        json.dumps(
            [{"family": family, "n": n} for family in TREND_FAMILIES for n in (3, 4)]
        )
    )
    argv = [
        "sweep", "--suite", f"@{suite}", "--deltas", "0.01,0.02", "--seeds", "1,2",
        "--noise", "p1=1e-3,p2=1e-2,ro=1e-2",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report(10, identical, f"two sweep runs byte-identical: {identical} "
                          f"({len(out1.read_bytes())} bytes)")
    assert identical
