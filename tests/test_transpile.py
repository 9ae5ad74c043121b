"""Transpiler: decomposition identities, routing legality, semantics."""

import hashlib

import numpy as np
import pytest

from qfid.bench import FAMILIES, BenchSpec, default_suite, generate
from qfid.circuit import Circuit, Gate, Measure, gate_unitary
from qfid.qasm import emit_qasm
from qfid.report import analyze_circuit
from qfid.simulator import ideal_distribution
from qfid.transpile import (
    BASIS_GATES,
    CouplingMap,
    DisconnectedMap,
    LayoutError,
    TranspileError,
    coupling_from_json,
    grid_map,
    heavy_hex_27,
    linear_map,
    ring_map,
    transpile,
)

from helpers import check_coupling, circuit_unitary, layer_depth, random_circuit, shortest_path


def in_basis(c: Circuit) -> bool:
    return all(
        op.kind in BASIS_GATES for op in c.ops if isinstance(op, Gate)
    )


def lower(c: Circuit) -> Circuit:
    """``c`` in the native basis: transpiled onto a map where every pair of
    qubits is linked, so nothing is routed and the layout stays the identity."""
    n = c.num_qubits
    complete = CouplingMap.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    return transpile(c, complete).circuit_t


def unitary_equal_up_to_phase(u1: np.ndarray, u2: np.ndarray, tol: float) -> bool:
    idx = np.unravel_index(np.argmax(np.abs(u2)), u2.shape)
    if abs(u2[idx]) < 1e-14:
        return bool(np.allclose(u1, u2, atol=tol))
    phase = u1[idx] / u2[idx]
    return bool(np.allclose(u1, phase * u2, atol=tol))


def layout_permutation(final_layout, n_physical):
    dim = 2**n_physical
    p = np.zeros((dim, dim))
    for x in range(dim):
        y = 0
        for logical in range(len(final_layout)):
            y |= ((x >> logical) & 1) << final_layout[logical]
        # bits of x beyond the logical width stay in place only if unmapped;
        # restrict usage to maps with n_physical == n_logical
        p[y, x] = 1
    return p


# -- coupling maps ---------------------------------------------------------


def test_map_builders():
    assert linear_map(4).edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert (0, 4) in ring_map(5).edges  # the closing edge, normalized
    assert len(ring_map(5).edges) == 5
    g = grid_map(2, 3)
    assert g.num_physical_qubits == 6
    assert (0, 3) in g.edges and (2, 5) in g.edges
    hh = heavy_hex_27()
    assert hh.num_physical_qubits == 27
    assert len(hh.edges) == 28


def test_map_validation():
    with pytest.raises(TranspileError):
        CouplingMap.from_edges(2, [(0, 0)])
    with pytest.raises(TranspileError):
        CouplingMap.from_edges(2, [(0, 5)])


def test_map_from_json():
    cmap = coupling_from_json('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    assert cmap.num_physical_qubits == 3
    with pytest.raises(TranspileError):
        coupling_from_json("not json")


def test_shortest_path_lowest_index_ties():
    # two equal-length routes 0-1-3 and 0-2-3: BFS must pick via 1
    cmap = CouplingMap.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert shortest_path(cmap, 0, 3) == [0, 1, 3]


# -- decomposition ----------------------------------------------------------


def test_swap_becomes_three_cx():
    c = Circuit(2)
    c.add("swap", (0, 1))
    d = lower(c)
    assert [(op.kind, op.qubits) for op in d.ops] == [
        ("cx", (0, 1)),
        ("cx", (1, 0)),
        ("cx", (0, 1)),
    ]


def test_h_is_three_basis_gates_and_equivalent():
    c = Circuit(1)
    c.add("h", (0,))
    d = lower(c)
    assert len(d.ops) == 3
    assert unitary_equal_up_to_phase(
        circuit_unitary(d), gate_unitary(Gate("h", (0,))), 1e-12
    )


def test_rz_merge_and_zero_drop():
    c = Circuit(1)
    c.add("rz", (0,), (0.3,))
    c.add("rz", (0,), (0.4,))
    d = lower(c)
    assert [(op.kind, op.params) for op in d.ops] == [("rz", (0.7,))]

    c2 = Circuit(1)
    c2.add("rz", (0,), (0.5,))
    c2.add("rz", (0,), (-0.5,))
    assert lower(c2).ops == []

    c3 = Circuit(1)
    c3.add("rz", (0,), (0.0,))
    assert lower(c3).ops == []


def test_rz_merge_respects_wire_boundaries():
    c = Circuit(2)
    c.add("rz", (0,), (0.3,))
    c.add("h", (1,))  # other wire: must not block the merge
    c.add("rz", (0,), (0.4,))
    d = lower(c)
    rz_angles = [op.params[0] for op in d.ops if isinstance(op, Gate) and op.kind == "rz"]
    assert 0.7 in rz_angles

    c2 = Circuit(1)
    c2.add("rz", (0,), (0.3,))
    c2.add("x", (0,))  # same wire: blocks the merge
    c2.add("rz", (0,), (0.4,))
    d2 = lower(c2)
    angles = [op.params[0] for op in d2.ops if isinstance(op, Gate) and op.kind == "rz"]
    assert 0.3 in angles and 0.4 in angles


def test_rz_cancellation_across_a_long_idle_stretch():
    # rz(a) and rz(-a) cancel across 200 ops on the other wire; the x before
    # them is again the wire's last op, so the next rz merges only with the
    # rz after it
    c = Circuit(2)
    c.add("x", (0,))
    c.add("rz", (0,), (0.3,))
    for _ in range(200):
        c.add("sx", (1,))
    c.add("rz", (0,), (-0.3,))
    c.add("rz", (0,), (0.2,))
    for _ in range(200):
        c.add("sx", (1,))
    c.add("rz", (0,), (0.1,))
    c.add("cx", (0, 1))
    c.add("rz", (1,), (0.5,))
    c.add("rz", (1,), (-0.5,))
    c.add("h", (1,))
    ops = [(op.kind, op.qubits, op.params) for op in lower(c).ops]
    assert ops == [
        ("x", (0,), ()),
        *[("sx", (1,), ())] * 400,
        ("rz", (0,), (0.2 + 0.1,)),
        ("cx", (0, 1), ()),
        ("rz", (1,), (np.pi / 2,)),
        ("sx", (1,), ()),
        ("rz", (1,), (np.pi / 2,)),
    ]


def test_decomposition_of_default_suite_pinned():
    # sha256 over the emitted QASM of every default-suite circuit, lowered
    digest = hashlib.sha256()
    for spec in default_suite():
        digest.update(emit_qasm(lower(generate(spec))).encode())
    assert digest.hexdigest() == "f56b5fd4091c799e857d41ca55b39cc1049f169d4123d061265a3e0af05f62a7"


def test_rz_merge_keeps_both_gates_when_the_sum_overflows():
    # 1e308 + 1e308 is inf: merging would turn a valid circuit into an error
    c = Circuit(1)
    c.add("rz", (0,), (1e308,))
    c.add("rz", (0,), (1e308,))
    c.add("rz", (0,), (-1e308,))  # merges with the second one, to 0, and drops it
    c.add("rz", (0,), (0.5,))
    ops = [(op.kind, op.params) for op in lower(c).ops]
    assert ops == [("rz", (1e308,)), ("rz", (0.5,))]
    assert transpile(c, linear_map(1)).circuit_t.ops == lower(c).ops


def test_u3_whose_z_angles_overflow_lowers_to_two_rz():
    c = Circuit(1)
    c.add("u3", (0,), (0.0, 1.7e308, 1.7e308))
    ops = [(op.kind, op.params) for op in lower(c).ops]
    assert ops == [("rz", (1.7e308,)), ("rz", (1.7e308,))]


@pytest.mark.parametrize(
    "kind,params,nq",
    [
        ("h", (), 1), ("x", (), 1), ("y", (), 1), ("z", (), 1), ("s", (), 1),
        ("sdg", (), 1), ("t", (), 1), ("tdg", (), 1), ("sx", (), 1),
        ("rx", (0.7,), 1), ("ry", (-1.3,), 1), ("rz", (2.1,), 1),
        ("u1", (0.9,), 1), ("u2", (0.4, -1.1), 1), ("u3", (1.2, 0.3, -0.8), 1),
        ("u", (2.5, -0.4, 1.9), 1),
        ("cx", (), 2), ("cz", (), 2), ("swap", (), 2), ("ccx", (), 3),
    ],
)
def test_every_gate_decomposes_equivalently(kind, params, nq):
    c = Circuit(nq)
    c.add(kind, tuple(range(nq)), params)
    d = lower(c)
    assert in_basis(d)
    assert unitary_equal_up_to_phase(circuit_unitary(d), circuit_unitary(c), 1e-11)


def test_barriers_dropped_measures_kept():
    c = Circuit(2, 2)
    c.add("h", (0,))
    c.barrier(0, 1)
    c.measure(0, 0)
    d = lower(c)
    assert all(not type(op).__name__ == "Barrier" for op in d.ops)
    assert sum(isinstance(op, Measure) for op in d.ops) == 1


# -- routing -----------------------------------------------------------------


def test_route_cx_0_2_on_linear_three():
    c = Circuit(3)
    c.add("cx", (0, 2))
    res = transpile(c, linear_map(3))
    kinds = [op.kind for op in res.circuit_t.ops]
    assert kinds == ["cx"] * 4  # one swap (3 cx) + the routed cx
    assert res.swap_count == 1
    assert res.circuit_t.ops[-1].qubits == (1, 2)
    assert res.final_layout == (1, 0, 2)


def test_route_compatible_circuit_unchanged():
    c = Circuit(3)
    c.add("x", (0,))
    c.add("cx", (0, 1))
    c.add("cx", (1, 2))
    res = transpile(c, linear_map(3))
    assert res.swap_count == 0
    assert [op.kind for op in res.circuit_t.ops] == ["x", "cx", "cx"]


def test_ghz_chain_needs_no_swaps():
    res = transpile(generate(BenchSpec.make("ghz", 3)), linear_map(3))
    assert res.swap_count == 0


def test_layout_error():
    with pytest.raises(LayoutError):
        transpile(generate(BenchSpec.make("ghz", 4)), linear_map(3))


def test_disconnected_map():
    cmap = CouplingMap.from_edges(4, [(0, 1), (2, 3)])
    c = Circuit(4)
    c.add("cx", (0, 3))
    with pytest.raises(DisconnectedMap):
        transpile(c, cmap)


def test_untouched_qubits_may_lie_beyond_the_map():
    # q3 and q4 are declared but touched by nothing but a barrier: they get -1
    c = Circuit(5, 2)
    c.add("cx", (0, 2))
    c.barrier()
    c.measure(0, 0)
    c.measure(2, 1)
    res = transpile(c, linear_map(3))
    assert res.swap_count == 1
    assert res.initial_layout == (0, 1, 2, -1, -1)
    assert res.final_layout == (1, 0, 2, -1, -1)
    c.add("x", (3,))
    with pytest.raises(LayoutError, match="circuit needs 4 qubits, map has 3"):
        transpile(c, linear_map(3))
    # without measures every qubit is read out, so every qubit needs a place
    with pytest.raises(LayoutError, match="circuit needs 5 qubits, map has 3"):
        transpile(Circuit(5), linear_map(3))


def test_transpile_empty_circuit():
    res = transpile(Circuit(2), linear_map(2))
    assert layer_depth(res.circuit_t) == 0
    assert res.swap_count == 0


_STREAM_MAPS = {
    "linear": linear_map,
    "ring": ring_map,
    "grid:4x4": lambda n: grid_map(4, 4),
    "heavyhex27": lambda n: heavy_hex_27(),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_transpile_equals_route_of_decompose(family):
    # a circuit already lowered to the basis transpiles to the same ops,
    # layouts and swaps as the original, and each output gate must pass the
    # full Gate check again
    for n in (4, 8, 12):
        c = generate(BenchSpec.make(family, n))
        for name, make in _STREAM_MAPS.items():
            cmap = make(c.num_qubits)
            got = transpile(c, cmap)
            want = transpile(lower(c), cmap)
            assert got.circuit_t.ops == want.circuit_t.ops, (family, n, name)
            assert (got.initial_layout, got.final_layout, got.swap_count) == (
                want.initial_layout, want.final_layout, want.swap_count)
            for op in got.circuit_t.gates:
                assert Gate(op.kind, op.qubits, op.params, op.id) == op


def test_route_tracks_depth_through_barriers_and_measures():
    c = Circuit(3, 1)
    c.add("x", (0,))
    c.add("x", (0,))
    c.barrier(0, 2)
    c.add("sx", (2,))
    c.add("cx", (0, 2))
    c.measure(1, 0)
    report, tr = analyze_circuit(c, linear_map(3))
    # the barrier is dropped, so sx leaves wire 2 at layer 1; wire 0 reaches
    # layer 2, the swap's 3 cx take wires 0-1 to layer 5 and cx(1,2) to 6;
    # logical 1 now sits on physical 0, so its measure also ends at layer 6
    assert report.transpiled["depth"] == report.deformation.raw["depth_t"] == 6
    assert layer_depth(tr.circuit_t) == 6


def _with_barriers_and_measures(c: Circuit, rng) -> Circuit:
    """``c`` with barriers on random qubit sets between its ops, then a
    random subset of its qubits measured."""
    n = c.num_qubits
    out = Circuit(n, n)
    for op in c.ops:
        if rng.random() < 0.2:
            out.barrier(*sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist()))
        out.add(op.kind, op.qubits, op.params)
    for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]:
        out.measure(int(q), int(q))
    return out


def test_report_reads_the_routed_depth_off_the_routed_dag():
    circuits = [generate(spec) for spec in default_suite(include_ten=True)]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        nq = int(rng.integers(2, 8))
        c = random_circuit(nq, int(rng.integers(1, 40)), seed)
        circuits.append(_with_barriers_and_measures(c, rng))
    for c in circuits:
        for name, make in _STREAM_MAPS.items():
            report, tr = analyze_circuit(c, make(c.num_qubits))
            raw = report.deformation.raw
            assert report.transpiled["depth"] == raw["depth_t"] == layer_depth(tr.circuit_t), name
            # the logical depth too: a barrier adds no layer
            assert report.circuit["depth"] == raw["depth_0"] == layer_depth(c), name


def test_determinism():
    c = generate(BenchSpec.make("qft", 5))
    r1 = transpile(c, linear_map(5))
    r2 = transpile(c, linear_map(5))
    assert r1.circuit_t == r2.circuit_t
    assert r1.final_layout == r2.final_layout


def test_bv_depth_and_legality_on_linear():
    c = generate(BenchSpec.make("bv", 4, secret="111"))
    cmap = linear_map(4)
    res = transpile(c, cmap)
    assert layer_depth(res.circuit_t) >= layer_depth(c) - len(c.measures)
    assert check_coupling(res.circuit_t, cmap)


def test_qft3_unitary_preserved_up_to_phase_and_layout():
    c = generate(BenchSpec.make("qft", 3))
    res = transpile(c, linear_map(3))
    u_logical = circuit_unitary(c)
    u_routed = circuit_unitary(res.circuit_t)
    p = layout_permutation(res.final_layout, 3)
    assert unitary_equal_up_to_phase(u_routed, p @ u_logical, 1e-9)


def test_legality_on_all_benchmarks_and_random_circuits():
    from qfid.bench import default_suite

    for spec in default_suite():
        c = generate(spec)
        cmap = linear_map(c.num_qubits)
        assert check_coupling(transpile(c, cmap).circuit_t, cmap), spec.label()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        nq = int(rng.integers(2, 8))
        c = random_circuit(nq, int(rng.integers(1, 60)), seed, measure=True)
        cmap = [linear_map(nq), ring_map(max(nq, 3)), grid_map(2, (nq + 1) // 2 + 1)][seed % 3]
        assert check_coupling(transpile(c, cmap).circuit_t, cmap)


def test_noiseless_distribution_preserved_through_routing():
    for spec in [
        BenchSpec.make("qft", 4),
        BenchSpec.make("qpe", 3),
        BenchSpec.make("su2", 4, seed=5),
        BenchSpec.make("clifford", 5, seed=2),
    ]:
        c = generate(spec)
        res = transpile(c, linear_map(c.num_qubits))
        d0 = ideal_distribution(c)
        dt = ideal_distribution(res.circuit_t)
        assert np.abs(d0.probs - dt.probs).max() < 1e-9, spec.label()


def test_statevector_overlap_small_circuits():
    # |<psi_logical | psi_routed>| with the layout permutation applied
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        nq = int(rng.integers(2, 4))
        c = random_circuit(nq, int(rng.integers(1, 25)), seed)
        res = transpile(c, linear_map(nq))
        psi0 = circuit_unitary(c)[:, 0]
        psi_t = circuit_unitary(res.circuit_t)[:, 0]
        p = layout_permutation(res.final_layout, nq)
        overlap = abs(np.vdot(p @ psi0, psi_t))
        assert overlap >= 1 - 1e-9


# -- readout after routing -------------------------------------------------

_X_CX_FAR = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nx q[0];\ncx q[0],q[2];\n'


@pytest.mark.parametrize("cmap", [linear_map(3), grid_map(2, 2)], ids=["linear3", "grid2x2"])
def test_measureless_circuit_reads_logical_qubits_after_routing(cmap):
    # no measure: logical q reads into clbit q, wherever routing left it
    from qfid.qasm import parse_qasm
    from qfid.report import run_estimate
    from qfid.simulator import NoiseModel

    record = run_estimate(parse_qasm(_X_CX_FAR), cmap, NoiseModel(), oracle_seed=1)
    assert record.bias["f_true_exact"] == 1.0
    assert record.trace.fhat == 1.0


def test_readout_circuit_measures_final_layout():
    from qfid.qasm import parse_qasm

    res = transpile(parse_qasm(_X_CX_FAR), linear_map(3))
    assert res.swap_count == 1 and res.final_layout == (1, 0, 2)
    readout = res.readout_circuit()
    assert readout.ops[: len(res.circuit_t.ops)] == res.circuit_t.ops
    assert [(m.qubit, m.clbit) for m in readout.measures] == [(1, 0), (0, 1), (2, 2)]
    assert not res.circuit_t.measures  # the routed circuit itself is left as it was
    measured = transpile(generate(BenchSpec.make("ghz", 3)), linear_map(3))
    assert measured.readout_circuit() is measured.circuit_t


def test_noiseless_readout_preserved_through_routing_without_measures():
    from qfid.simulator import NoiseModel, noisy_distribution

    for seed in range(30):
        rng = np.random.default_rng(2000 + seed)
        nq = int(rng.integers(2, 6))
        c = random_circuit(nq, int(rng.integers(1, 30)), seed)
        cmap = [linear_map(nq), ring_map(max(nq, 3)), grid_map(2, (nq + 1) // 2 + 1)][seed % 3]
        res = transpile(c, cmap)
        exact = noisy_distribution(res.readout_circuit(), NoiseModel())
        assert np.abs(exact.probs - ideal_distribution(c).probs).max() < 1e-9, seed
