"""DAG construction, degree histograms, longest paths, invariants."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfid.bench import BenchSpec, generate, random_circuit
from qfid.circuit import Barrier, Circuit, Gate, circuit_depth
from qfid.dag import (
    DagError,
    DagNode,
    GateDag,
    build_dag,
    degree_histogram,
    longest_dist_from_sources,
    longest_dist_to_sinks,
    longest_path_len,
    to_dot,
)


def chain_circuit():
    c = Circuit(2)
    c.add("h", (0,))
    c.add("cx", (0, 1))
    c.add("h", (1,))
    return c


def test_build_edges_per_carrier_qubit():
    dag = build_dag(chain_circuit())
    assert dag.edges == [(0, 1, 0), (1, 2, 1)]
    assert longest_path_len(dag) == 2


def test_parallel_edges_for_repeated_cx():
    c = Circuit(2)
    c.add("cx", (0, 1))
    c.add("cx", (0, 1))
    dag = build_dag(c)
    assert sorted(dag.edges) == [(0, 1, 0), (0, 1, 1)]


def test_bv_style_structure():
    # x q1; h q0; h q1; cx q0,q1; h q0; measure both
    c = Circuit(2, 2)
    c.add("x", (1,))
    c.add("h", (0,))
    c.add("h", (1,))
    c.add("cx", (0, 1))
    c.add("h", (0,))
    c.measure(0, 0)
    c.measure(1, 1)
    dag = build_dag(c)
    assert dag.num_nodes == 7  # measures are nodes, barriers are not
    cx_id = 3
    assert dag.in_degrees()[cx_id] == 2


def test_barriers_are_not_nodes():
    c = Circuit(2)
    c.add("h", (0,))
    c.barrier(0, 1)
    c.add("cx", (0, 1))
    dag = build_dag(c)
    assert dag.num_nodes == 2
    assert dag.edges == [(0, 2, 0)]


def test_degree_histogram_single_node():
    dag = build_dag(Circuit(1, 0))
    c = Circuit(1)
    c.add("h", (0,))
    dag = build_dag(c)
    assert degree_histogram(dag, "total") == {0: 1}


def test_degree_histogram_two_node_chain():
    c = Circuit(1)
    c.add("h", (0,))
    c.add("h", (0,))
    assert degree_histogram(build_dag(c), "total") == {1: 2}


def test_degree_histogram_chain_example():
    assert degree_histogram(build_dag(chain_circuit()), "total") == {1: 2, 2: 1}


def test_degree_histogram_modes_sum_to_node_count():
    dag = build_dag(generate(BenchSpec.make("qft", 4)))
    for mode in ("in", "out", "total"):
        assert sum(degree_histogram(dag, mode).values()) == dag.num_nodes


def test_longest_path_chain_and_edgeless():
    c = Circuit(1)
    for _ in range(5):
        c.add("h", (0,))
    assert longest_path_len(build_dag(c)) == 4
    c2 = Circuit(3)
    c2.add("h", (0,))
    c2.add("h", (1,))
    assert longest_path_len(build_dag(c2)) == 0


def test_longest_path_diamond():
    dag = GateDag(
        nodes=[DagNode(i, "h", (0,)) for i in range(4)],
        edges=[(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 0)],
    )
    assert longest_path_len(dag) == 2


def test_edge_count_formula():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = random_circuit(int(rng.integers(2, 7)), int(rng.integers(0, 60)), seed, measure=True)
        dag = build_dag(c)
        touches = {}
        for node in dag.nodes:
            for q in node.qubits:
                touches[q] = touches.get(q, 0) + 1
        expected = sum(max(0, t - 1) for t in touches.values())
        assert dag.num_edges == expected


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_topological_sort_succeeds(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(int(rng.integers(1, 8)), int(rng.integers(0, 50)), seed, measure=bool(seed % 2))
    dag = build_dag(c)
    order = dag.topological_order()
    assert len(order) == dag.num_nodes
    position = {nid: i for i, nid in enumerate(order)}
    assert all(position[a] < position[b] for a, b, _ in dag.edges)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_longest_path_consistent_with_depth(seed):
    # barrier-free circuits: layered depth equals the longest node chain
    rng = np.random.default_rng(seed)
    c = random_circuit(int(rng.integers(1, 7)), int(rng.integers(1, 40)), seed)
    dag = build_dag(c)
    assert longest_path_len(dag) + 1 >= circuit_depth(c)


def test_dot_export():
    text = to_dot(build_dag(chain_circuit()))
    assert text.startswith("digraph")
    assert 'n0 -> n1 [label="q0"]' in text


# -- the index-array DAG against a plain edge-list reference -------------------


def reference_graph(c: Circuit) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Node ids and (src id, dst id, carrier) edges by a scan of each wire."""
    ids, edges, last = [], [], {}
    for op in c.ops:
        if isinstance(op, Barrier):
            continue
        ids.append(op.id)
        for q in op.qubits if isinstance(op, Gate) else (op.qubit,):
            if q in last:
                edges.append((last[q], op.id, q))
            last[q] = op.id
    return ids, edges


def reference_dists(ids, edges) -> tuple[dict[int, int], dict[int, int]]:
    """Longest edge counts from a source and to a sink, over a Kahn order."""
    succs = {i: [] for i in ids}
    preds = {i: [] for i in ids}
    indeg = dict.fromkeys(ids, 0)
    for src, dst, _ in edges:
        succs[src].append(dst)
        preds[dst].append(src)
        indeg[dst] += 1
    order = [i for i in ids if indeg[i] == 0]
    for i in order:  # grows while it is walked
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    assert len(order) == len(ids)
    fwd, bwd = dict.fromkeys(ids, 0), dict.fromkeys(ids, 0)
    for i in order:
        for j in succs[i]:
            fwd[j] = max(fwd[j], fwd[i] + 1)
    for i in reversed(order):
        for j in preds[i]:
            bwd[j] = max(bwd[j], bwd[i] + 1)
    return fwd, bwd


_OP = st.one_of(
    st.tuples(st.sampled_from(["h", "rz"]), st.lists(st.integers(0, 4), min_size=1, max_size=1)),
    st.tuples(st.sampled_from(["cx", "cz"]), st.lists(st.integers(0, 4), min_size=2, max_size=2,
                                                      unique=True)),
    st.tuples(st.just("ccx"), st.lists(st.integers(0, 4), min_size=3, max_size=3, unique=True)),
    st.tuples(st.just("measure"), st.lists(st.integers(0, 4), min_size=1, max_size=1)),
    st.tuples(st.just("barrier"), st.lists(st.integers(0, 4), max_size=5, unique=True)),
)


def build_circuit(ops) -> Circuit:
    c = Circuit(5, 5)
    for kind, qubits in ops:
        if kind == "measure":
            c.measure(qubits[0], qubits[0])
        elif kind == "barrier":
            c.barrier(*qubits)
        else:
            c.add(kind, qubits, (0.5,) if kind == "rz" else ())
    return c


@given(st.lists(_OP, max_size=40), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_array_dag_matches_edge_list_reference(ops, rnd):
    c = build_circuit(ops)
    dag = build_dag(c)
    ids, edges = reference_graph(c)
    assert [node.id for node in dag.nodes] == ids
    assert dag.edges == edges
    for mode, ends in (("in", [1]), ("out", [0]), ("total", [0, 1])):
        expected = dict.fromkeys(ids, 0)
        for edge in edges:
            for end in ends:
                expected[edge[end]] += 1
        got = {"in": dag.in_degrees, "out": dag.out_degrees, "total": dag.total_degrees}[mode]()
        assert got == expected
        assert degree_histogram(dag, mode) == dict(Counter(expected.values()))
    fwd, bwd = reference_dists(ids, edges)
    assert longest_dist_from_sources(dag) == fwd
    assert longest_dist_to_sinks(dag) == bwd
    assert longest_path_len(dag) == max(fwd.values(), default=0)

    # the same graph built by hand, nodes and edges shuffled, takes the Kahn route
    nodes, shuffled = list(dag.nodes), list(edges)
    rnd.shuffle(nodes)
    rnd.shuffle(shuffled)
    by_hand = GateDag(nodes=nodes, edges=shuffled)
    assert longest_dist_from_sources(by_hand) == fwd
    assert longest_dist_to_sinks(by_hand) == bwd
    assert longest_path_len(by_hand) == max(fwd.values(), default=0)


@pytest.mark.parametrize("edges", [
    [(0, 1, 0), (1, 2, 0), (2, 0, 0)],
    [(0, 1, 0), (1, 1, 1)],
    [(2, 0, 0), (0, 2, 1)],
])
def test_hand_built_cycle_raises(edges):
    dag = GateDag(nodes=[DagNode(i, "h", (0,)) for i in range(3)], edges=edges)
    for query in (longest_path_len, longest_dist_from_sources, longest_dist_to_sinks):
        with pytest.raises(DagError):
            query(dag)
    with pytest.raises(DagError):
        dag.topological_order()


def test_hand_built_edge_to_unknown_node_raises():
    with pytest.raises(DagError):
        GateDag(nodes=[DagNode(0, "h", (0,))], edges=[(0, 7, 0)])
