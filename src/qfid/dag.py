"""Gate dependency DAG: multi-directed graph over gates and measures.

Nodes are the circuit's non-barrier ops; for every qubit, consecutive ops
touching it are linked by a directed edge carrying that qubit, so two ops
sharing two qubits get two parallel edges.  Barriers contribute no nodes
and no extra edges.

Edges are three parallel index arrays over node positions (indices into
``nodes``), not node ids.  ``build_dag`` appends them in circuit order, so
every edge points forward and the heads never decrease; the longest-path
distances are then one sweep over the edges in each direction, run once
per graph and cached.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, Gate, Measure


class DagError(ValueError):
    pass


class EmptyGraph(DagError):
    """An operation that needs at least one node got an empty DAG."""


class DagNode(NamedTuple):
    id: int
    kind: str  # gate name, or "measure"
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()


class GateDag:
    """Nodes in circuit order; edge e runs from node position ``src[e]`` to
    ``dst[e]`` and carries qubit ``carrier[e]``.

    Degrees and distances are read off these arrays; the distances are
    cached, so a graph must not change once it is queried.
    """

    def __init__(
        self,
        nodes: list[DagNode] | None = None,
        edges: Iterable[tuple[int, int, int]] = (),
    ):
        """A graph over ``nodes`` with ``edges`` as (src id, dst id, carrier qubit)."""
        self.nodes = list(nodes or [])
        position = {node.id: i for i, node in enumerate(self.nodes)}
        try:
            triples = [(position[s], position[d], q) for s, d, q in edges]
        except KeyError as exc:
            raise DagError(f"edge names an unknown node id {exc.args[0]}") from None
        self.src, self.dst, self.carrier = np.array(triples, dtype=np.intp).reshape(-1, 3).T

    @classmethod
    def _from_positions(
        cls, nodes: list[DagNode], src: list[int], dst: list[int], carrier: list[int]
    ) -> GateDag:
        dag = cls.__new__(cls)
        dag.nodes = nodes
        dag.src, dag.dst, dag.carrier = (np.array(a, dtype=np.intp) for a in (src, dst, carrier))
        return dag

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.src)

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """(src id, dst id, carrier qubit) per edge, in edge order."""
        ids = [node.id for node in self.nodes]
        return [
            (ids[s], ids[d], q)
            for s, d, q in zip(self.src.tolist(), self.dst.tolist(), self.carrier.tolist())
        ]

    def degree_array(self, mode: str = "total") -> np.ndarray:
        """Per node position, its in-, out- or total degree."""
        n = self.num_nodes
        if mode == "in":
            return np.bincount(self.dst, minlength=n)
        if mode == "out":
            return np.bincount(self.src, minlength=n)
        if mode == "total":
            return np.bincount(self.src, minlength=n) + np.bincount(self.dst, minlength=n)
        raise DagError(f"mode must be in|out|total, got {mode!r}")

    def _by_id(self, values: list[int]) -> dict[int, int]:
        return dict(zip((node.id for node in self.nodes), values))

    def in_degrees(self) -> dict[int, int]:
        return self._by_id(self.degree_array("in").tolist())

    def out_degrees(self) -> dict[int, int]:
        return self._by_id(self.degree_array("out").tolist())

    def total_degrees(self) -> dict[int, int]:
        return self._by_id(self.degree_array("total").tolist())

    def _kahn(self) -> list[int]:
        """Node positions in Kahn order, ties by smallest id; DagError on a cycle."""
        n = self.num_nodes
        indeg = self.degree_array("in").tolist()
        succs: list[list[int]] = [[] for _ in range(n)]
        for s, d in zip(self.src.tolist(), self.dst.tolist()):
            succs[s].append(d)
        ids = [node.id for node in self.nodes]
        queue = deque(sorted((i for i in range(n) if indeg[i] == 0), key=ids.__getitem__))
        order: list[int] = []
        while queue:
            i = queue.popleft()
            order.append(i)
            for j in succs[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(order) != n:
            raise DagError("graph contains a cycle")
        return order

    def topological_order(self) -> list[int]:
        """Node ids by Kahn's algorithm; raises DagError on a cycle (cannot
        happen for DAGs built from circuits, but guards hand-constructed graphs)."""
        return [self.nodes[i].id for i in self._kahn()]

    @cached_property
    def longest_dists(self) -> tuple[list[int], list[int]]:
        """Per node position, the max edge count of any path from a source to
        it, and from it to a sink.

        Edges relax in order of their heads: forward for the first, backward
        for the second.  Built from a circuit, that is the edge order itself;
        a hand-built graph whose edges are out of that order is put in Kahn
        order first, which also finds a cycle.
        """
        tails, heads = self.src, self.dst
        if (tails >= heads).any() or (np.diff(heads) < 0).any():
            rank = np.empty(self.num_nodes, dtype=np.intp)
            rank[self._kahn()] = np.arange(self.num_nodes)
            order = np.argsort(rank[heads], kind="stable")
            tails, heads = tails[order], heads[order]
        tails, heads = tails.tolist(), heads.tolist()
        return (
            _relax(tails, heads, self.num_nodes),
            _relax(heads[::-1], tails[::-1], self.num_nodes),
        )


def _relax(tails: list[int], heads: list[int], n: int) -> list[int]:
    """Longest edge count into each node, relaxing the edges in the given
    order; exact when every edge into a tail precedes every edge out of it."""
    dist = [0] * n
    for t, h in zip(tails, heads):
        if dist[t] >= dist[h]:
            dist[h] = dist[t] + 1
    return dist


def build_dag(c: Circuit) -> GateDag:
    nodes: list[DagNode] = []
    src: list[int] = []
    dst: list[int] = []
    carrier: list[int] = []
    last_on_qubit: dict[int, int] = {}  # qubit -> position of its latest node
    for op in c.ops:
        if isinstance(op, Gate):
            node = DagNode(op.id, op.kind, op.qubits, op.params)
        elif isinstance(op, Measure):
            node = DagNode(op.id, "measure", (op.qubit,))
        else:
            continue
        pos = len(nodes)
        nodes.append(node)
        for q in node.qubits:
            prev = last_on_qubit.get(q)
            if prev is not None:
                src.append(prev)
                dst.append(pos)
                carrier.append(q)
            last_on_qubit[q] = pos
    return GateDag._from_positions(nodes, src, dst, carrier)


def degree_histogram(dag: GateDag, mode: str = "total") -> dict[int, int]:
    """Histogram of node degrees, keyed in order of first occurrence over the
    nodes; counts sum to the node count."""
    return dict(Counter(dag.degree_array(mode).tolist()))


def longest_dist_from_sources(dag: GateDag) -> dict[int, int]:
    """Per node, the max edge count of any path reaching it from a source."""
    return dag._by_id(dag.longest_dists[0])


def longest_dist_to_sinks(dag: GateDag) -> dict[int, int]:
    """Per node, the max edge count of any path from it to a sink."""
    return dag._by_id(dag.longest_dists[1])


def longest_path_len(dag: GateDag) -> int:
    """Length (in edges) of the longest path; 0 for edgeless graphs."""
    if not dag.nodes:
        return 0
    return max(dag.longest_dists[0])


def to_dot(dag: GateDag, name: str = "gatedag") -> str:
    lines = [f"digraph {name} {{"]
    for node in dag.nodes:
        qubits = ",".join(str(q) for q in node.qubits)
        lines.append(f'  n{node.id} [label="{node.kind} q{qubits} (#{node.id})"];')
    for src, dst, carrier in dag.edges:
        lines.append(f'  n{src} -> n{dst} [label="q{carrier}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
