"""qfid: adaptive shot budgeting for quantum-circuit fidelity estimation.

Pipeline: parse or generate a circuit, build its gate dependency DAG,
transpile onto a coupling map, quantify the structural deformation, derive
a noise-propagation operator and its spectral complexity, size measurement
batches from it, and sample against a noisy simulator with
confidence-interval early stopping.
"""

from .bench import BenchSpec, default_suite, generate
from .circuit import Circuit, Gate, gate_unitary
from .dag import build_dag, degree_histogram, longest_path_len
from .deformation import compare as deformation_report
from .estimator import Plan, PlanConfig, batch_size, estimate, hellinger_distance, z_quantile
from .qasm import emit_qasm, parse_qasm
from .report import analyze_circuit, run_estimate
from .simulator import NoiseModel, ideal_distribution, noisy_distribution
from .spectral import analyze_spectrum, build_kernel, spectral_complexity
from .transpile import CouplingMap, transpile

__version__ = "0.1.0"

__all__ = [
    "BenchSpec",
    "Circuit",
    "CouplingMap",
    "Gate",
    "NoiseModel",
    "Plan",
    "PlanConfig",
    "analyze_circuit",
    "analyze_spectrum",
    "batch_size",
    "build_dag",
    "build_kernel",
    "default_suite",
    "deformation_report",
    "degree_histogram",
    "emit_qasm",
    "estimate",
    "gate_unitary",
    "generate",
    "hellinger_distance",
    "ideal_distribution",
    "longest_path_len",
    "noisy_distribution",
    "parse_qasm",
    "run_estimate",
    "spectral_complexity",
    "transpile",
    "z_quantile",
]
