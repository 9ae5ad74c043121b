"""Circuit IR: gate unitaries, the DAG depth convention, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfid.circuit import (
    GATE_SIGNATURES,
    Circuit,
    CircuitError,
    Gate,
    NonUnitaryOp,
    gate_unitary,
)
from qfid.dag import build_dag, depth

from helpers import random_circuit


def test_x_matrix():
    assert np.array_equal(gate_unitary(Gate("x", (0,))), np.array([[0, 1], [1, 0]]))


def test_rz_zero_is_identity():
    u = gate_unitary(Gate("rz", (0,), (0.0,)))
    assert np.allclose(u, np.eye(2), atol=1e-12)


def test_h_involution():
    h = gate_unitary(Gate("h", (0,)))
    assert np.allclose(h @ h, np.eye(2), atol=1e-12)


def test_rz_convention():
    theta = 0.7
    u = gate_unitary(Gate("rz", (0,), (theta,)))
    expected = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    assert np.allclose(u, expected, atol=1e-15)


def test_cx_control_is_first_qubit():
    # |q1 q0> basis with control q0: |01> -> |11>
    cx = gate_unitary(Gate("cx", (0, 1)))
    state = np.zeros(4)
    state[0b01] = 1.0
    assert np.argmax(np.abs(cx @ state)) == 0b11


def test_sx_squared_is_x():
    sx = gate_unitary(Gate("sx", (0,)))
    assert np.allclose(sx @ sx, gate_unitary(Gate("x", (0,))), atol=1e-12)


def test_non_unitary_ops_raise():
    c = Circuit(1, 1)
    m = c.measure(0, 0)
    b = c.barrier(0)
    with pytest.raises(NonUnitaryOp):
        gate_unitary(m)
    with pytest.raises(NonUnitaryOp):
        gate_unitary(b)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_parameterized_gates_are_unitary(seed):
    rng = np.random.default_rng(seed)
    kinds = [k for k, (nq, npar) in GATE_SIGNATURES.items() if npar > 0]
    kind = kinds[rng.integers(0, len(kinds))]
    _, npar = GATE_SIGNATURES[kind]
    params = tuple(float(x) for x in rng.uniform(-2 * math.pi, 2 * math.pi, npar))
    u = gate_unitary(Gate(kind, (0,), params))
    assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12)


def test_ten_thousand_random_parameterized_gates_unitary():
    rng = np.random.default_rng(123)
    kinds = [k for k, (nq, npar) in GATE_SIGNATURES.items() if npar > 0]
    for _ in range(10_000):
        kind = kinds[rng.integers(0, len(kinds))]
        _, npar = GATE_SIGNATURES[kind]
        params = tuple(float(x) for x in rng.uniform(-2 * math.pi, 2 * math.pi, npar))
        u = gate_unitary(Gate(kind, (0,), params))
        defect = np.abs(u.conj().T @ u - np.eye(2)).max()
        assert defect <= 1e-12


def test_gate_validation():
    with pytest.raises(CircuitError):
        Gate("cx", (0,))  # wrong arity
    with pytest.raises(CircuitError):
        Gate("cx", (1, 1))  # duplicate qubits
    with pytest.raises(CircuitError):
        Gate("rz", (0,), (math.nan,))
    with pytest.raises(CircuitError):
        Gate("nope", (0,))


def test_circuit_index_validation():
    c = Circuit(2, 1)
    with pytest.raises(CircuitError):
        c.add("h", (2,))
    with pytest.raises(CircuitError):
        c.measure(0, 1)


def test_gate_ids_strictly_increasing():
    c = Circuit(2, 2)
    c.add("h", (0,))
    c.measure(0, 0)
    c.add("x", (1,))
    assert [op.id for op in c.ops] == [0, 1, 2]


def _depth(c: Circuit) -> int:
    return depth(build_dag(c))


def test_depth_parallel_gates():
    c = Circuit(2)
    c.add("h", (0,))
    c.add("h", (1,))
    assert _depth(c) == 1


def test_depth_shared_qubit_chain():
    c = Circuit(2)
    c.add("h", (0,))
    c.add("cx", (0, 1))
    c.add("h", (1,))
    assert _depth(c) == 3


def test_depth_empty():
    assert _depth(Circuit(1)) == 0


def test_depth_measure_counts():
    c = Circuit(1, 1)
    c.add("h", (0,))
    c.measure(0, 0)
    assert _depth(c) == 2


def test_depth_barrier_adds_no_layer():
    c = Circuit(2)
    c.add("h", (0,))
    c.barrier(0, 1)
    c.add("h", (1,))
    assert _depth(c) == 1
    # the same as without the barrier: the two H's are parallel
    c2 = Circuit(2)
    c2.add("h", (0,))
    c2.add("h", (1,))
    assert _depth(c2) == 1


def test_depth_single_wire_equals_gate_count():
    c = Circuit(1)
    for _ in range(7):
        c.add("h", (0,))
    assert _depth(c) == 7


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_depth_at_most_op_count(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(int(rng.integers(1, 6)), int(rng.integers(0, 30)), seed)
    assert _depth(c) <= len(c.ops)
