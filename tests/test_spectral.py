"""Spectral engine: kernel construction, operator rows, both eigen paths."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfid
from qfid import spectral
from qfid.circuit import Circuit
from qfid.dag import EmptyGraph, GateDag, build_dag, longest_path_len
from qfid.deformation import DeformationReport
from qfid.spectral import (
    KernelConfig,
    SpectralError,
    _symmetric_similar,
    analyze_spectrum,
    build_kernel,
    spectral_complexity,
)

from helpers import operator_rows, random_circuit

ZERO = DeformationReport(0.0, 0.0, 0.0)


def jacobi_eigenvalues(matrix: np.ndarray, sweeps: int = 60, tol: float = 1e-14):
    """Cyclic Jacobi rotations; independent cross-check for small kernels."""
    a = matrix.astype(float).copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                off = max(off, abs(a[p, q]))
                theta = 0.5 * math.atan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < tol:
            break
    return sorted(np.diag(a), key=lambda x: (-abs(x), -x))


def two_node_single_edge() -> GateDag:
    c = Circuit(2)
    c.add("h", (0,))
    c.add("cx", (0, 1))
    return build_dag(c)


def two_node_double_edge() -> GateDag:
    c = Circuit(2)
    c.add("cx", (0, 1))
    c.add("cx", (0, 1))
    return build_dag(c)


def test_kernel_two_node_single_edge():
    k = build_kernel(two_node_single_edge(), ZERO)
    assert np.allclose(k.matrix, [[0.5, 0.5], [0.5, 0.5]])


def test_kernel_parallel_edges_sum():
    k = build_kernel(two_node_double_edge(), ZERO)
    assert np.allclose(k.matrix, [[0.5, 1.0], [1.0, 0.5]])


def test_kernel_isolated_node():
    c = Circuit(1)
    c.add("h", (0,))
    k = build_kernel(build_dag(c), ZERO)
    assert np.allclose(k.matrix, [[0.5]])
    assert np.allclose(operator_rows(k), [[1.0]])


def test_kernel_empty_graph_raises():
    with pytest.raises(EmptyGraph):
        build_kernel(build_dag(Circuit(1)), ZERO)


def test_kernel_symmetric_and_deformation_weighted():
    c = random_circuit(4, 30, seed=3, measure=True)
    dag = build_dag(c)
    base = build_kernel(dag, ZERO)
    boosted = build_kernel(dag, DeformationReport(0.2, 0.5, 0.3))
    for k in (base, boosted):
        assert np.array_equal(k.matrix, k.matrix.T)
        assert np.all(np.diag(k.matrix) == 0.5)
        assert np.all(k.matrix >= 0)
    # multipliers never shrink weights below the base kernel
    assert np.all(boosted.matrix >= base.matrix - 1e-15)
    assert boosted.vals.sum() > base.vals.sum()


def test_kernel_negative_deltas_are_clamped():
    dag = build_dag(random_circuit(3, 15, seed=4))
    shrunk = build_kernel(dag, DeformationReport(0.0, -0.7, -0.9))
    base = build_kernel(dag, ZERO)
    assert np.allclose(shrunk.matrix, base.matrix)


def test_operator_rows_hand_normalized():
    k = build_kernel(two_node_double_edge(), ZERO)
    p = operator_rows(k)
    assert np.allclose(p, [[1 / 3, 2 / 3], [2 / 3, 1 / 3]], atol=1e-15)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_top_eigenvalues_analytic_two_by_two():
    k = build_kernel(two_node_double_edge(), ZERO)
    eigs = analyze_spectrum(k, 2).eigenvalues
    assert eigs[0] == pytest.approx(1.0, abs=1e-12)
    assert eigs[1] == pytest.approx(-1 / 3, abs=1e-12)


def test_single_node_spectrum():
    c = Circuit(1)
    c.add("h", (0,))
    k = build_kernel(build_dag(c), ZERO)
    assert analyze_spectrum(k, 1).eigenvalues == pytest.approx([1.0], abs=1e-12)


def test_three_node_path_matches_jacobi_oracle():
    c = Circuit(1)
    for _ in range(3):
        c.add("h", (0,))
    k = build_kernel(build_dag(c), ZERO)
    d = k.degrees()
    s = k.matrix / np.sqrt(np.outer(d, d))
    expected = jacobi_eigenvalues(s)
    spec = analyze_spectrum(k)
    assert spec.k == k.n == 3  # below 10 nodes, every mode is kept
    assert np.allclose(spec.eigenvalues, expected, atol=1e-8)


def test_dense_matches_jacobi_oracle_random_kernels():
    for seed in range(10):
        c = random_circuit(3, 12, seed, measure=True)
        k = build_kernel(build_dag(c), ZERO)
        d = k.degrees()
        s = k.matrix / np.sqrt(np.outer(d, d))
        expected = jacobi_eigenvalues(s)
        got = analyze_spectrum(k, k.n, method="dense").eigenvalues
        assert np.allclose(got, expected, atol=1e-8), seed


def test_iterative_matches_dense():
    rng = np.random.default_rng(42)
    for trial in range(25):
        nq = int(rng.integers(2, 7))
        ng = int(rng.integers(5, 60))
        report = DeformationReport(0.1, float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        k = build_kernel(build_dag(random_circuit(nq, ng, trial, measure=True)), report)
        kk = min(10, k.n)
        dense = analyze_spectrum(k, kk, method="dense").eigenvalues
        iterative = analyze_spectrum(k, kk, method="iterative").eigenvalues
        assert np.allclose(
            [abs(x) for x in dense], [abs(x) for x in iterative], atol=1e-6
        ), trial


def test_row_stochastic_and_perron_properties():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        c = random_circuit(int(rng.integers(2, 8)), int(rng.integers(5, 80)), seed, measure=True)
        k = build_kernel(build_dag(c), ZERO)
        p = operator_rows(k)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9
        eigs = analyze_spectrum(k, min(10, k.n)).eigenvalues
        assert abs(abs(eigs[0]) - 1.0) <= 1e-9
        assert all(abs(e) <= 1 + 1e-9 for e in eigs)


def test_spectral_complexity_rules():
    assert spectral_complexity([1.0, -1 / 3], 2) == pytest.approx(4 / 3)
    assert spectral_complexity([1.0], 10) == pytest.approx(1.0)
    eigs = [0.9, -0.8, 0.3]
    assert spectral_complexity(eigs, 2) == pytest.approx(1.7)
    assert spectral_complexity(eigs, 3) <= 3
    with pytest.raises(SpectralError):
        spectral_complexity(eigs, 0)


def test_kernel_total_weight_monotone_under_insertion():
    # zero-delta kernels: adding a gate never shrinks node count or weight
    rng = np.random.default_rng(11)
    for trial in range(10):
        nq = int(rng.integers(2, 5))
        ng = int(rng.integers(2, 30))
        c1 = random_circuit(nq, ng, trial)
        c2 = random_circuit(nq, ng + 1, trial)  # same prefix + one gate
        k1 = build_kernel(build_dag(c1), ZERO)
        k2 = build_kernel(build_dag(c2), ZERO)
        assert k2.n >= k1.n
        assert k2.vals.sum() >= k1.vals.sum() - 1e-12


def test_analyze_spectrum_summary():
    c = random_circuit(4, 40, seed=8, measure=True)
    dag = build_dag(c)
    spec = analyze_spectrum(build_kernel(dag, ZERO))
    assert spec.n > 10 and spec.k == 10
    assert len(spec.eigenvalues) == spec.k
    assert 0 < spec.complexity <= spec.k
    assert spec.converged
    assert spec.method == "dense"


def test_fanin_quantile_affects_weights():
    c = random_circuit(4, 40, seed=9, measure=True)
    dag = build_dag(c)
    report = DeformationReport(0.0, 0.0, 1.0)  # only the fan-in multiplier acts
    narrow = build_kernel(dag, report, KernelConfig(fanin_quantile=0.99))
    broad = build_kernel(dag, report, KernelConfig(fanin_quantile=0.0))
    assert broad.vals.sum() >= narrow.vals.sum()


def test_spectrum_records_the_kernel_settings():
    # the spectrum reads both settings off the kernel, not off a default config
    dag = build_dag(random_circuit(4, 40, seed=9, measure=True))
    kernel = build_kernel(dag, ZERO, KernelConfig(fanin_quantile=0.5, self_loop=0.7))
    spec = analyze_spectrum(kernel)
    assert (spec.fanin_quantile, spec.self_loop) == (0.5, 0.7)


def test_kernel_config_validation():
    for bad in ({"self_loop": 0.0}, {"self_loop": math.inf}, {"self_loop": math.nan},
                {"fanin_quantile": 1.5}, {"k": 0}):
        with pytest.raises(SpectralError):
            KernelConfig(**bad)
    assert KernelConfig(k=1).k == 1


def test_iterative_handles_singular_kernel():
    # single-edge kernel is rank 1: spectrum {1, 0}
    k = build_kernel(two_node_single_edge(), ZERO)
    dense = analyze_spectrum(k, 2, method="dense").eigenvalues
    assert dense == pytest.approx([1.0, 0.0], abs=1e-12)
    iterative = analyze_spectrum(k, 2, method="iterative").eigenvalues
    assert iterative == pytest.approx([1.0, 0.0], abs=1e-8)


def test_sparse_kernel_path_beyond_dense_limit():
    # > 1024 nodes: kernel stored sparse, auto method routes to iterative
    c = random_circuit(4, 1100, seed=5, measure=True)
    dag = build_dag(c)
    assert dag.num_nodes > 1024
    k = build_kernel(dag, ZERO)
    spec = analyze_spectrum(k)
    assert spec.method == "iterative"
    assert spec.converged
    assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)
    assert 0 < spec.complexity <= 10


def test_convergence_failure_carries_partial_results(monkeypatch):
    c = Circuit(1)
    for _ in range(650):  # long chain: one restart cannot reach 1e-8 residuals
        c.add("h", (0,))
    k = build_kernel(build_dag(c), ZERO)
    with monkeypatch.context() as m:
        m.setattr(spectral, "_MAX_ITER", 1)
        flagged = analyze_spectrum(k, k=3, method="iterative")
    assert (flagged.method, flagged.converged, flagged.residual) == ("iterative", False, math.inf)
    assert len(flagged.eigenvalues) == 3
    # partial values are eigenvalues of P, mapped back from the shift-inverted
    # operator (an unmapped mu near 1 would read about -1/_SHIFT)
    assert any(flagged.eigenvalues)
    assert all(-1 - 1e-9 <= v <= 1 + 1e-9 for v in flagged.eigenvalues)
    assert flagged.complexity == spectral_complexity(flagged.eigenvalues, 3)

    spec = analyze_spectrum(k, k=3, method="iterative")
    assert spec.converged  # the default iteration budget is enough


def h_chain(length: int, self_loop: float):
    """Kernel of a one-qubit chain of h gates: a path graph, so bipartite."""
    c = Circuit(1)
    for _ in range(length):
        c.add("h", (0,))
    return build_kernel(build_dag(c), ZERO, KernelConfig(self_loop=self_loop))


def test_spectrum_reports_the_solver_that_ran():
    # the iterative path needs k < n - 1, so a larger k runs dense and says so
    kernel = h_chain(30, 0.5)
    spec = analyze_spectrum(kernel, k=kernel.n, method="iterative")
    assert (spec.method, spec.residual) == ("dense", 0.0)
    assert analyze_spectrum(kernel, k=kernel.n - 2, method="iterative").method == "iterative"


def test_iterative_finds_negative_modes_in_top_k():
    # a small self-loop on a bipartite chain puts lambda near -1: the top 10
    # by |lambda| hold four negative modes, which only the bottom end reaches
    kernel = h_chain(30, 0.05)
    dense = analyze_spectrum(kernel, 10, method="dense").eigenvalues
    assert sum(v < 0 for v in dense) >= 3
    spec = analyze_spectrum(kernel, k=10, method="iterative")
    assert np.allclose(spec.eigenvalues, dense, rtol=0, atol=1e-10)
    assert spec.converged and spec.residual <= 1e-8


def test_iterative_ends_overlap_without_duplicates():
    # n = 12, k = 10: each end's 10 modes share 8 with the other end's
    kernel = h_chain(12, 0.05)
    assert kernel.n == 12
    dense = analyze_spectrum(kernel, 10, method="dense").eigenvalues
    iterative = analyze_spectrum(kernel, 10, method="iterative").eigenvalues
    assert np.allclose(iterative, dense, rtol=0, atol=1e-10)
    assert len(set(np.round(iterative, 8))) == 10


def test_spectrum_above_gershgorin_floor():
    # P's row discs: centre s/d_i, radius 1 - s/d_i, so lambda >= 2 min(s/d) - 1
    rng = np.random.default_rng(19)
    for trial in range(20):
        nq, ng = int(rng.integers(1, 6)), int(rng.integers(2, 60))
        report = DeformationReport(0.0, *(float(rng.uniform(0, 1)) for _ in range(2)))
        cfg = KernelConfig(self_loop=float(rng.uniform(0.1, 2)))
        kernel = build_kernel(build_dag(random_circuit(nq, ng, trial, measure=True)), report, cfg)
        floor = 2 * float((cfg.self_loop / kernel.degrees()).min()) - 1
        eigs = analyze_spectrum(kernel, kernel.n, method="dense").eigenvalues
        assert min(eigs) >= floor - 1e-12, trial


def dense_kernel_oracle(dag: GateDag, report: DeformationReport, cfg: KernelConfig):
    """0.5*(W + W^T) + s*I with W filled edge by edge, as a dense array."""
    n = dag.num_nodes
    w = np.zeros((n, n))
    for src, dst in zip(dag.src.tolist(), dag.dst.tolist()):
        w[src, dst] += 1.0
    degs = dag.degree_array().tolist()
    threshold = sorted(degs)[max(1, math.ceil(cfg.fanin_quantile * n)) - 1]
    dist_src, dist_sink = dag.longest_dists
    longest = longest_path_len(dag)
    for i, j in zip(*np.nonzero(w)):
        mult = 1.0
        if dist_src[i] + 1 + dist_sink[j] == longest:
            mult *= 1.0 + max(0.0, report.delta_path)
        if degs[i] >= threshold or degs[j] >= threshold:
            mult *= 1.0 + max(0.0, report.delta_conn)
        w[i, j] *= mult
    return 0.5 * (w + w.T) + cfg.self_loop * np.eye(n)


def test_kernel_entries_bit_exact_against_dense_oracle():
    rng = np.random.default_rng(5)
    for trial in range(15):
        nq, ng = int(rng.integers(1, 6)), int(rng.integers(1, 80))
        dag = build_dag(random_circuit(nq, ng, trial, measure=True))
        report = DeformationReport(0.0, *(float(rng.uniform(-0.2, 1)) for _ in range(2)))
        cfg = KernelConfig(
            self_loop=float(rng.uniform(0.1, 2)), fanin_quantile=float(rng.uniform(0, 1))
        )
        kernel = build_kernel(dag, report, cfg)
        assert np.array_equal(kernel.matrix, dense_kernel_oracle(dag, report, cfg)), trial
        # entries follow the edges' first occurrence, which fixes the order
        # degrees() sums them in
        pairs = list(dict.fromkeys(zip(dag.src.tolist(), dag.dst.tolist())))
        entries = zip(kernel.rows.tolist(), kernel.cols.tolist())
        assert list(entries)[: len(pairs)] == pairs, trial
        k = kernel.matrix
        isq = 1.0 / np.sqrt(k.sum(axis=1))
        assert np.array_equal(_symmetric_similar(kernel), k * np.outer(isq, isq)), trial


def criterion_2_kernels(trials):
    """Replay test_criterion_2's kernel stream (rng 77) and keep the given trials."""
    rng = np.random.default_rng(77)
    kernels, trial = [], 0
    while trial < max(trials):
        trial += 1
        nq, ng = int(rng.integers(2, 6)), int(rng.integers(4, 40))
        dag = build_dag(random_circuit(nq, ng, seed=1000 + trial, measure=True))
        if dag.num_nodes > 64:
            continue
        report = DeformationReport(*(float(rng.uniform(0, hi)) for hi in (0.5, 1, 1)))
        if trial in trials:
            kernels.append(build_kernel(dag, report))
    return kernels


def test_iterative_finds_every_copy_of_repeated_eigenvalues():
    # three disjoint identical chains: every eigenvalue, lambda = 1 among them,
    # three times; n is large enough that ARPACK's Krylov space is not all of R^n
    chains = Circuit(3)
    for _ in range(12):
        for q in range(3):
            chains.add("h", (q,))
    kernel = build_kernel(build_dag(chains), ZERO)
    assert kernel.n == 36
    top = analyze_spectrum(kernel, 10, method="dense").eigenvalues[:3]
    assert top == pytest.approx([1.0] * 3, abs=1e-12)
    # the criterion-2 kernels on which Lanczos alone missed a repeated mode
    for kernel in [kernel, *criterion_2_kernels({3, 36, 48})]:
        k = min(10, kernel.n)
        assert k < kernel.n - 1
        dense = analyze_spectrum(kernel, k, method="dense").eigenvalues
        spec = analyze_spectrum(kernel, k=k, method="iterative")
        assert np.allclose(spec.eigenvalues, dense, rtol=0, atol=1e-10)
        assert spec.converged and spec.residual <= 1e-8


def test_iterative_reproducible_beyond_dense_limit():
    kernel = build_kernel(build_dag(random_circuit(4, 1100, seed=5, measure=True)), ZERO)
    assert kernel.n > 1024
    first = analyze_spectrum(kernel)
    assert first.method == "iterative"
    assert 0 < first.residual <= 1e-8
    assert analyze_spectrum(kernel, method="iterative").eigenvalues == first.eigenvalues
    dense = analyze_spectrum(kernel, method="dense")
    assert dense.residual == 0.0
    assert np.allclose(first.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-10)


def test_importing_cli_leaves_scipy_linalg_unloaded():
    # scipy.sparse.linalg pulls in scipy.linalg; only the iterative eigensolver
    # may load it, so runs that never take that path skip its import time and memory
    paths = [str(Path(qfid.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = (
        "import sys, qfid.cli; "
        "print([m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
