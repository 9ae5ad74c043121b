"""DAG construction, degree histograms, longest paths, invariants."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qfid.circuit import Barrier, Circuit, Gate
from qfid.dag import GateDag, build_dag, degree_histogram, depth, longest_path_len, to_dot

from helpers import layer_depth, random_circuit


def edges_of(dag: GateDag) -> list[tuple[int, int, int]]:
    """(src position, dst position, carrier qubit) per edge, in edge order."""
    return list(zip(dag.src.tolist(), dag.dst.tolist(), dag.carrier.tolist()))


def chain_circuit():
    c = Circuit(2)
    c.add("h", (0,))
    c.add("cx", (0, 1))
    c.add("h", (1,))
    return c


def test_build_edges_per_carrier_qubit():
    dag = build_dag(chain_circuit())
    assert edges_of(dag) == [(0, 1, 0), (1, 2, 1)]
    assert longest_path_len(dag) == 2


def test_parallel_edges_for_repeated_cx():
    c = Circuit(2)
    c.add("cx", (0, 1))
    c.add("cx", (0, 1))
    dag = build_dag(c)
    assert sorted(edges_of(dag)) == [(0, 1, 0), (0, 1, 1)]


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
    cx_pos = 3
    assert np.count_nonzero(dag.dst == cx_pos) == 2


def test_barriers_are_not_nodes():
    c = Circuit(2)
    c.add("h", (0,))
    c.barrier(0, 1)
    c.add("cx", (0, 1))
    dag = build_dag(c)
    assert [op.id for op in dag.nodes] == [0, 2]
    assert edges_of(dag) == [(0, 1, 0)]


def test_degree_histogram_single_node():
    dag = build_dag(Circuit(1, 0))
    c = Circuit(1)
    c.add("h", (0,))
    dag = build_dag(c)
    assert degree_histogram(dag) == {0: 1}


def test_degree_histogram_two_node_chain():
    c = Circuit(1)
    c.add("h", (0,))
    c.add("h", (0,))
    assert degree_histogram(build_dag(c)) == {1: 2}


def test_degree_histogram_chain_example():
    assert degree_histogram(build_dag(chain_circuit())) == {1: 2, 2: 1}


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
    # cx fans out to one h per wire, which both feed the second cx
    c = Circuit(2)
    c.add("cx", (0, 1))
    c.add("h", (0,))
    c.add("h", (1,))
    c.add("cx", (0, 1))
    dag = build_dag(c)
    assert edges_of(dag) == [(0, 1, 0), (0, 2, 1), (1, 3, 0), (2, 3, 1)]
    assert longest_path_len(dag) == 2


def test_edge_count_formula():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = random_circuit(int(rng.integers(2, 7)), int(rng.integers(0, 60)), seed, measure=True)
        dag = build_dag(c)
        touches = {}
        for op in dag.nodes:
            for q in op.qubits if isinstance(op, Gate) else (op.qubit,):
                touches[q] = touches.get(q, 0) + 1
        expected = sum(max(0, t - 1) for t in touches.values())
        assert dag.num_edges == expected


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_topological_sort_succeeds(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(int(rng.integers(1, 8)), int(rng.integers(0, 50)), seed, measure=bool(seed % 2))
    dag = build_dag(c)
    # node order is a topological order, and edges come in order of their heads,
    # which is what the one-sweep longest distances rely on
    assert (dag.src < dag.dst).all()
    assert (np.diff(dag.dst) >= 0).all()


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_longest_path_consistent_with_depth(seed):
    # barrier-free circuits: layered depth equals the longest node chain
    rng = np.random.default_rng(seed)
    c = random_circuit(int(rng.integers(1, 7)), int(rng.integers(1, 40)), seed)
    dag = build_dag(c)
    assert depth(dag) == longest_path_len(dag) + 1 == layer_depth(c)


def test_dot_export():
    text = to_dot(build_dag(chain_circuit()))
    assert text.startswith("digraph")
    assert 'n0 -> n1 [label="q0"]' in text


def test_dot_bytes_pinned():
    # a barrier (no node; the ids skip it), a ccx pair (three parallel
    # edges) and two measures
    c = Circuit(3, 2)
    c.add("h", (0,))
    c.barrier(0, 1, 2)
    c.add("ccx", (0, 1, 2))
    c.add("ccx", (0, 1, 2))
    c.add("rz", (2,), (0.5,))
    c.measure(2, 1)
    c.measure(0, 0)
    assert to_dot(build_dag(c)) == DOT_PIN


DOT_PIN = """digraph gatedag {
  n0 [label="h q0 (#0)"];
  n2 [label="ccx q0,1,2 (#2)"];
  n3 [label="ccx q0,1,2 (#3)"];
  n4 [label="rz q2 (#4)"];
  n5 [label="measure q2 (#5)"];
  n6 [label="measure q0 (#6)"];
  n0 -> n2 [label="q0"];
  n2 -> n3 [label="q0"];
  n2 -> n3 [label="q1"];
  n2 -> n3 [label="q2"];
  n3 -> n4 [label="q2"];
  n4 -> n5 [label="q2"];
  n3 -> n6 [label="q0"];
}
"""


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


@given(st.lists(_OP, max_size=40))
@settings(max_examples=200, deadline=None)
def test_array_dag_matches_edge_list_reference(ops):
    c = build_circuit(ops)
    dag = build_dag(c)
    ids, edges = reference_graph(c)
    assert [node.id for node in dag.nodes] == ids
    position = {nid: i for i, nid in enumerate(ids)}
    assert edges_of(dag) == [(position[s], position[d], q) for s, d, q in edges]
    degree = dict.fromkeys(ids, 0)
    for src, dst, _ in edges:
        degree[src] += 1
        degree[dst] += 1
    assert dag.degree_array().tolist() == list(degree.values())
    assert degree_histogram(dag) == dict(Counter(degree.values()))
    fwd, bwd = reference_dists(ids, edges)
    assert dag.longest_dists == (list(fwd.values()), list(bwd.values()))
    assert longest_path_len(dag) == max(fwd.values(), default=0)
