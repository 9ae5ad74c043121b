"""Deformation metrics: TV distance, path growth, density inflation."""

import pytest

from qfid.bench import BenchSpec, generate
from qfid.circuit import Circuit
from qfid.dag import EmptyGraph, GateDag, build_dag
from qfid.deformation import compare, delta_conn, delta_deg, delta_path
from qfid.transpile import linear_map, transpile

from helpers import random_circuit


def dag_of(circ: Circuit) -> GateDag:
    return build_dag(circ)


def chain(n: int) -> GateDag:
    c = Circuit(1)
    for _ in range(n):
        c.add("h", (0,))
    return build_dag(c)


def dag_from(num_qubits: int, *gates: tuple[str, tuple[int, ...]]) -> GateDag:
    c = Circuit(num_qubits)
    for kind, qubits in gates:
        c.add(kind, qubits)
    return build_dag(c)


def repeated(kind: str, k: int, times: int = 2) -> GateDag:
    """``times`` k-qubit ``kind`` gates on the same qubits: k parallel edges
    between each consecutive pair."""
    return dag_from(k, *[(kind, tuple(range(k)))] * times)


def test_identical_graphs_give_zero_triple():
    for spec in [BenchSpec.make("ghz", 4), BenchSpec.make("qft", 3)]:
        g = dag_of(generate(spec))
        report = compare(g, g)
        assert report.delta_deg == 0.0
        assert report.delta_path == 0.0
        assert report.delta_conn == 0.0


def test_delta_deg_hand_computed():
    # degrees {1,1,2} vs {1,2,2,3} -> TV = 5/12
    g0 = dag_from(2, ("h", (0,)), ("h", (1,)), ("cx", (0, 1)))
    gt = dag_from(2, ("h", (0,)), ("cx", (0, 1)), ("h", (1,)), ("cx", (0, 1)))
    assert sorted(g0.degree_array().tolist()) == [1, 1, 2]
    assert sorted(gt.degree_array().tolist()) == [1, 2, 2, 3]
    assert delta_deg(g0, gt) == pytest.approx(5 / 12, abs=1e-12)


def test_delta_deg_disjoint_supports_is_one():
    # degrees {1,1} vs {3,3}
    g0, gt = repeated("h", 1), repeated("ccx", 3)
    assert delta_deg(g0, gt) == pytest.approx(1.0)


def test_delta_deg_symmetric():
    g0 = chain(3)
    gt = chain(6)
    assert delta_deg(g0, gt) == pytest.approx(delta_deg(gt, g0))


def test_delta_deg_empty_raises():
    with pytest.raises(EmptyGraph):
        delta_deg(build_dag(Circuit(1)), chain(2))


def test_delta_path_values():
    assert delta_path(chain(5), chain(7))[0] == pytest.approx(0.5)  # 4 -> 6 edges
    assert delta_path(chain(3), chain(3)) == (0.0, False)
    value, degenerate = delta_path(chain(1), chain(4))  # 0 -> 3 edges
    assert degenerate and value == 3.0
    assert delta_path(chain(1), chain(1)) == (0.0, True)


def test_delta_path_sign_flips_for_shrinking():
    value, _ = delta_path(chain(7), chain(5))
    assert value < 0


def test_delta_conn_values():
    # density 1.0 -> 1.5 gives 0.5
    g0, gt = repeated("cx", 2), repeated("ccx", 3)
    assert delta_conn(g0, gt)[0] == pytest.approx(0.5)
    # density doubling: 3 nodes and 6 edges
    assert delta_conn(g0, repeated("ccx", 3, times=3))[0] == pytest.approx(1.0)
    # degenerate: no logical edges
    single = chain(1)
    value, degenerate = delta_conn(single, g0)
    assert degenerate and value == pytest.approx(1.0)


def test_swap_insertion_increases_connectivity():
    c = Circuit(3)
    c.add("cx", (0, 2))
    res = transpile(c, linear_map(3))
    report = compare(build_dag(c), build_dag(res.circuit_t))
    assert report.delta_conn > 0
    assert report.raw["edges_t"] > report.raw["edges_0"]


def test_report_raw_fields():
    c = generate(BenchSpec.make("qft", 4))
    res = transpile(c, linear_map(4))
    report = compare(build_dag(c), build_dag(res.circuit_t))
    for key in ("nodes_0", "edges_0", "nodes_t", "edges_t", "longest_0", "longest_t"):
        assert key in report.raw
    assert 0.0 <= report.delta_deg <= 1.0


def test_self_comparison_is_zero_for_random_circuits():
    for seed in range(15):
        c = random_circuit(3, 25, seed, measure=True)
        g = build_dag(c)
        report = compare(g, g)
        assert (report.delta_deg, report.delta_path, report.delta_conn) == (0.0, 0.0, 0.0)
