"""Hardware-agnostic circuit representation shared by all pipeline stages.

Qubits and classical bits are flat integer indices; register structure from
any input format is erased at construction time.  Circuits hold an ordered
op list of gates, measurements and barriers, with ids strictly increasing
in op order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np


class CircuitError(ValueError):
    """Invalid gate, operand, or circuit construction."""


class NonUnitaryOp(CircuitError):
    """A unitary matrix was requested for a measure or barrier."""


# gate name -> (number of qubits, number of params)
GATE_SIGNATURES: dict[str, tuple[int, int]] = {
    "u": (1, 3),
    "u1": (1, 1),
    "u2": (1, 2),
    "u3": (1, 3),
    "rx": (1, 1),
    "ry": (1, 1),
    "rz": (1, 1),
    "x": (1, 0),
    "y": (1, 0),
    "z": (1, 0),
    "h": (1, 0),
    "s": (1, 0),
    "sdg": (1, 0),
    "t": (1, 0),
    "tdg": (1, 0),
    "sx": (1, 0),
    "cx": (2, 0),
    "cz": (2, 0),
    "swap": (2, 0),
    "ccx": (3, 0),
}


@dataclass(frozen=True)
class Gate:
    """A unitary gate application: kind, ordered qubits, evaluated angles."""

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    id: int = -1

    def __post_init__(self) -> None:
        sig = GATE_SIGNATURES.get(self.kind)
        if sig is None:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        nq, npar = sig
        qubits, params = self.qubits, self.params
        if len(qubits) != nq:
            raise CircuitError(
                f"gate {self.kind!r} expects {nq} qubit(s), got {len(qubits)}"
            )
        if len(params) != npar:
            raise CircuitError(
                f"gate {self.kind!r} expects {npar} parameter(s), got {len(params)}"
            )
        # one qubit cannot repeat
        if nq > 1 and len(set(qubits)) != nq:
            raise CircuitError(f"gate {self.kind!r} has duplicate qubits {qubits}")
        for p in params:
            if not math.isfinite(p):
                raise CircuitError(f"gate {self.kind!r} has non-finite parameter {p}")


@dataclass(frozen=True)
class Measure:
    """Projective readout of one qubit into one classical bit."""

    qubit: int
    clbit: int
    id: int = -1


@dataclass(frozen=True)
class Barrier:
    """Scheduling fence across the listed qubits; no unitary action."""

    qubits: tuple[int, ...]
    id: int = -1


Op = Gate | Measure | Barrier


@dataclass
class Circuit:
    num_qubits: int
    num_clbits: int = 0
    ops: list[Op] = field(default_factory=list)

    def _check_qubits(self, qubits: tuple[int, ...]) -> None:
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(
                    f"qubit index {q} out of range for {self.num_qubits}-qubit circuit"
                )

    def add(self, kind: str, qubits: tuple[int, ...] | list[int], params=()) -> Gate:
        gate = Gate(kind, tuple(qubits), tuple(map(float, params)), len(self.ops))
        self._check_qubits(gate.qubits)
        self.ops.append(gate)
        return gate

    def measure(self, qubit: int, clbit: int) -> Measure:
        self._check_qubits((qubit,))
        if not 0 <= clbit < self.num_clbits:
            raise CircuitError(
                f"clbit index {clbit} out of range for {self.num_clbits} clbits"
            )
        m = Measure(qubit, clbit, id=len(self.ops))
        self.ops.append(m)
        return m

    def barrier(self, *qubits: int) -> Barrier:
        qs = tuple(qubits) if qubits else tuple(range(self.num_qubits))
        self._check_qubits(qs)
        b = Barrier(qs, id=len(self.ops))
        self.ops.append(b)
        return b

    @property
    def gates(self) -> list[Gate]:
        return [op for op in self.ops if isinstance(op, Gate)]

    @property
    def measures(self) -> list[Measure]:
        return [op for op in self.ops if isinstance(op, Measure)]


_SQ2 = 1.0 / math.sqrt(2.0)


def _u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def gate_unitary(g: Gate | Measure | Barrier) -> np.ndarray:
    """Dense unitary for a gate, 2^q x 2^q for a q-qubit gate.

    Basis convention: bit j of the local index corresponds to g.qubits[j],
    so for cx the control is the low-order bit.
    """
    if not isinstance(g, Gate):
        raise NonUnitaryOp(f"{type(g).__name__} has no unitary")
    k = g.kind
    p = g.params
    if k in ("u", "u3"):
        return _u3_matrix(*p)
    if k == "u2":
        return _u3_matrix(math.pi / 2.0, p[0], p[1])
    if k == "u1":
        return np.array([[1, 0], [0, cmath.exp(1j * p[0])]], dtype=complex)
    if k == "rx":
        c, s = math.cos(p[0] / 2.0), math.sin(p[0] / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if k == "ry":
        c, s = math.cos(p[0] / 2.0), math.sin(p[0] / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if k == "rz":
        return np.array(
            [[cmath.exp(-0.5j * p[0]), 0], [0, cmath.exp(0.5j * p[0])]], dtype=complex
        )
    if k == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if k == "y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if k == "z":
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if k == "h":
        return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
    if k == "s":
        return np.array([[1, 0], [0, 1j]], dtype=complex)
    if k == "sdg":
        return np.array([[1, 0], [0, -1j]], dtype=complex)
    if k == "t":
        return np.array([[1, 0], [0, cmath.exp(0.25j * math.pi)]], dtype=complex)
    if k == "tdg":
        return np.array([[1, 0], [0, cmath.exp(-0.25j * math.pi)]], dtype=complex)
    if k == "sx":
        return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
    if k == "cx":
        # control = local bit 0 (qubits[0]), target = local bit 1
        return np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
    if k == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if k == "swap":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    if k == "ccx":
        m = np.eye(8, dtype=complex)
        # controls = local bits 0,1; target = local bit 2: |011> <-> |111>
        m[3, 3] = m[7, 7] = 0
        m[3, 7] = m[7, 3] = 1
        return m
    raise CircuitError(f"no unitary rule for gate kind {k!r}")

