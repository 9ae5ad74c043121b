"""Spans around the calls ``qfid.cli`` and ``qfid.report`` make into each layer.

``Tracer.patched()`` swaps module attributes for wrappers that record a span
(name, start, end, parent span, operation id) and the layer's counts, and
restores the originals on exit.  Nothing in ``qfid`` is edited: the wrappers
live here and are installed only for the traced pass.  Spans stay in memory
until the run writes them out.

A layer's self time is the total duration of its spans minus the time their
direct child spans cover.  ``simulator.noisy_peak_mb`` and
``spectral.spectrum_peak_mb`` are tracemalloc peaks inside one call (the
largest over calls).  They come from a tracer made with ``memory=True``,
which runs tracemalloc inside those two spans; tracemalloc slows the many
small allocations of a 4-qubit simulation several times over, so its pass
is not the one timed.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from collections import defaultdict

MB = 1024.0 * 1024.0

# span name -> per-layer time metric built from its self time
SELF_TIME = {
    "cli.main": "cli.self_s",
    "report.run_estimate": "report.self_s",
    "report.analyze_circuit": "report.self_s",
    "report.sweep_csv": "report.self_s",
    "report.to_json": "report.to_json_s",
    "transpile.transpile": "transpile.transpile_s",
    "dag.build_dag": "dag.build_s",
    "deformation.compare": "deformation.compare_s",
    "spectral.build_kernel": "spectral.kernel_s",
    "spectral.analyze_spectrum": "spectral.spectrum_s",
    "simulator.ideal_distribution": "simulator.ideal_s",
    "simulator.noisy_distribution": "simulator.noisy_s",
    "simulator.sample": "simulator.sample_s",
    "estimator.estimate": "estimator.estimate_s",
    "qasm.parse_qasm": "qasm.parse_s",
    "bench.generate": "bench.generate_s",
}
COUNTS = (
    "simulator.noisy_calls", "simulator.noisy_gates", "simulator.noisy_qubits_max",
    "simulator.noisy_distinct", "simulator.shots", "estimator.batches",
    "spectral.iterative_calls", "spectral.dense_calls", "spectral.unconverged",
    "transpile.calls", "transpile.swaps", "dag.nodes", "qasm.parse_bytes",
    "bench.generate_calls", "report.run_estimate_calls",
)
PEAKS = ("simulator.noisy_peak_mb", "spectral.spectrum_peak_mb")


class Tracer:
    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.op = "setup"
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._circuits: set = set()

    def wrap(self, name: str, fn, on_return=None, peak: str | None = None):
        """``fn`` wrapped to record a span; ``on_return(args, result)`` counts."""
        peak = peak if self.memory else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if peak:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if peak:
                    used = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                    self.counts[peak] = max(self.counts[peak], used)
            if on_return:
                on_return(args, result)
            return result

        return traced

    # -- counters -------------------------------------------------------------

    def _count(self, key: str, amount=1) -> None:
        self.counts[key] += amount

    def _on_noisy(self, args, result) -> None:
        circuit, noise = args[0], args[1]
        self._count("simulator.noisy_calls")
        self._count("simulator.noisy_gates", len(circuit.gates))
        self.counts["simulator.noisy_qubits_max"] = max(
            self.counts["simulator.noisy_qubits_max"], circuit.num_qubits)
        self._circuits.add((circuit.num_qubits, circuit.num_clbits, tuple(circuit.ops),
                            noise.p1, noise.p2, noise.p_ro))
        self.counts["simulator.noisy_distinct"] = len(self._circuits)

    def _on_spectrum(self, args, result) -> None:
        self._count(f"spectral.{result.method}_calls")
        self._count("spectral.unconverged", 0 if result.converged else 1)

    def _on_transpile(self, args, result) -> None:
        self._count("transpile.calls")
        self._count("transpile.swaps", result.swap_count)

    def _patches(self):
        """(owner, attribute, span name, counter, tracemalloc peak key)."""
        from qfid import bench, cli, report, simulator

        c = self._count
        gen = (lambda a, r: c("bench.generate_calls"))
        return [
            (cli, "run_estimate", "report.run_estimate", lambda a, r: c("report.run_estimate_calls"), None),
            (report, "run_estimate", "report.run_estimate", lambda a, r: c("report.run_estimate_calls"), None),
            (cli, "analyze_circuit", "report.analyze_circuit", None, None),
            (report, "analyze_circuit", "report.analyze_circuit", None, None),
            (cli, "sweep_csv", "report.sweep_csv", None, None),
            (cli, "to_json", "report.to_json", None, None),
            (cli, "parse_qasm", "qasm.parse_qasm", lambda a, r: c("qasm.parse_bytes", len(a[0])), None),
            (cli, "generate", "bench.generate", gen, None),
            (report, "generate", "bench.generate", gen, None),
            (bench, "generate", "bench.generate", gen, None),
            (cli, "build_dag", "dag.build_dag", lambda a, r: c("dag.nodes", r.num_nodes), None),
            (report, "build_dag", "dag.build_dag", lambda a, r: c("dag.nodes", r.num_nodes), None),
            (report, "transpile", "transpile.transpile", self._on_transpile, None),
            (report, "compare", "deformation.compare", None, None),
            (report, "build_kernel", "spectral.build_kernel", None, None),
            (report, "analyze_spectrum", "spectral.analyze_spectrum", self._on_spectrum,
             "spectral.spectrum_peak_mb"),
            (report, "ideal_distribution", "simulator.ideal_distribution", None, None),
            (report, "noisy_distribution", "simulator.noisy_distribution", self._on_noisy,
             "simulator.noisy_peak_mb"),
            (report, "estimate", "estimator.estimate", lambda a, r: c("estimator.batches", len(r.batches)), None),
            (simulator.DistributionOracle, "sample", "simulator.sample",
             lambda a, r: c("simulator.shots", a[1]), None),
        ]

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers; restore every original attribute on exit."""
        saved = []
        try:
            for owner, attr, name, on_return, peak in self._patches():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, on_return, peak))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer plus the counts, over every recorded span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        metrics: dict[str, float] = {m: 0.0 for m in SELF_TIME.values()}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            metrics[SELF_TIME[name]] += (end - start) - child
        for key in COUNTS:
            metrics[key] = int(self.counts[key])
        for key in PEAKS:
            metrics[key] = float(self.counts[key])
        return metrics
