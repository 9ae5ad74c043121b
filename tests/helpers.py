"""Test-only references: random circuits, a layer count, dense unitaries and
operators, one gate's transfer matrix, and coupling-map checks.

No command of the package reaches these; tests import them from here.
"""

import math

import numpy as np

from qfid.circuit import GATE_SIGNATURES, Barrier, Circuit, Gate, gate_unitary
from qfid.simulator import TooManyQubits, _apply_matrix, _ptms
from qfid.spectral import WeightedKernel
from qfid.transpile import CouplingMap, _bfs_path


def random_circuit(
    num_qubits: int,
    num_gates: int,
    seed: int,
    measure: bool = False,
    gate_pool: tuple[str, ...] = (
        "h", "x", "y", "z", "s", "t", "sx", "rx", "ry", "rz", "cx", "cz", "swap",
    ),
) -> Circuit:
    """Seeded random circuit for structural fuzzing and property tests."""
    rng = np.random.default_rng(seed)
    c = Circuit(num_qubits, num_qubits if measure else 0)
    for _ in range(num_gates):
        kind = gate_pool[rng.integers(0, len(gate_pool))]
        nq, npar = GATE_SIGNATURES[kind]
        if nq > num_qubits:
            kind, nq, npar = "h", 1, 0
        qubits = tuple(int(q) for q in rng.choice(num_qubits, size=nq, replace=False))
        params = tuple(float(rng.uniform(-math.pi, math.pi)) for _ in range(npar))
        c.add(kind, qubits, params)
    if measure:
        for q in range(num_qubits):
            c.measure(q, q)
    return c


def layer_depth(c: Circuit) -> int:
    """Critical-path length in layers, walked wire by wire: an independent
    count of ``dag.depth`` for barrier-free circuits.

    Ops conflict iff they share a qubit, and a measure occupies one layer.
    """
    level = [0] * c.num_qubits
    depth = 0
    for op in c.ops:
        if isinstance(op, Barrier):
            continue
        qubits = op.qubits if isinstance(op, Gate) else (op.qubit,)
        layer = max(level[q] for q in qubits) + 1
        for q in qubits:
            level[q] = layer
        depth = max(depth, layer)
    return depth


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n unitary of the circuit's gates (measures/barriers skipped)."""
    n = c.num_qubits
    if n > 10:
        raise TooManyQubits(f"{n} qubits is too large for a dense unitary")
    u = np.eye(2**n, dtype=complex).reshape((2,) * (2 * n))
    for gate in c.gates:
        # local bit j of a gate matrix belongs to qubits[j], and ket axis j to
        # qubit n-1-j, so the last qubit's axis carries the most significant bit
        axes = tuple(n - 1 - q for q in reversed(gate.qubits))
        u = _apply_matrix(u, gate_unitary(gate), axes)
    return u.reshape(2**n, 2**n)


def ptm(u: np.ndarray, p: float) -> np.ndarray:
    """The Pauli transfer matrix of one gate's unitary, as the simulator builds it."""
    return _ptms(u[None], p)[0]


def check_coupling(circuit: Circuit, cmap: CouplingMap) -> bool:
    """True iff every 2-qubit gate of ``circuit`` sits on an edge of ``cmap``."""
    return all(
        (min(g.qubits), max(g.qubits)) in cmap.edges for g in circuit.gates if len(g.qubits) == 2
    )


def shortest_path(cmap: CouplingMap, src: int, dst: int) -> list[int]:
    """The router's BFS shortest path; ties go to the lowest physical index."""
    return _bfs_path(cmap.adjacency(), src, dst)


def operator_rows(kernel: WeightedKernel) -> np.ndarray:
    """Dense row-stochastic operator P = D^-1 K."""
    k = kernel.matrix
    return k / k.sum(axis=1)[:, None]
