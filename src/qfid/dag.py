"""Gate dependency DAG: multi-directed graph over gates and measures.

Nodes are the circuit's non-barrier ops; for every qubit, consecutive ops
touching it are linked by a directed edge carrying that qubit, so two ops
sharing two qubits get two parallel edges.  Barriers contribute no nodes
and no extra edges.

Edges are three parallel index arrays over node positions (indices into
``nodes``), not op ids.  ``build_dag`` appends them in circuit order, so
every edge points forward and the heads never decrease; the longest-path
distances are then one sweep over the edges in each direction, run once
per graph and cached.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np

from .circuit import Barrier, Circuit, Gate, Measure


class DagError(ValueError):
    pass


class EmptyGraph(DagError):
    """An operation that needs at least one node got an empty DAG."""


def _qubits(op: Gate | Measure) -> tuple[int, ...]:
    return op.qubits if isinstance(op, Gate) else (op.qubit,)


class GateDag:
    """The circuit's non-barrier ops in order; edge e runs from node position
    ``src[e]`` to ``dst[e]`` and carries qubit ``carrier[e]``.

    Made by ``build_dag``.  Degrees and distances are read off the arrays;
    the distances are cached, so a graph must not change once it is queried.
    """

    def __init__(
        self, nodes: list[Gate | Measure], src: list[int], dst: list[int], carrier: list[int]
    ):
        self.nodes = nodes
        self.src, self.dst, self.carrier = (np.array(a, dtype=np.intp) for a in (src, dst, carrier))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def degree_array(self) -> np.ndarray:
        """Per node position, its total (in plus out) degree."""
        n = self.num_nodes
        return np.bincount(self.src, minlength=n) + np.bincount(self.dst, minlength=n)

    @cached_property
    def longest_dists(self) -> tuple[list[int], list[int]]:
        """Per node position, the max edge count of any path from a source to
        it, and from it to a sink.

        Edges relax in order of their heads: forward for the first, backward
        for the second.  ``build_dag`` appends them in that order.
        """
        tails, heads = self.src.tolist(), self.dst.tolist()
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
    nodes: list[Gate | Measure] = []
    src: list[int] = []
    dst: list[int] = []
    carrier: list[int] = []
    last_on_qubit: dict[int, int] = {}  # qubit -> position of its latest node
    for op in c.ops:
        if isinstance(op, Barrier):
            continue
        pos = len(nodes)
        nodes.append(op)
        for q in _qubits(op):
            prev = last_on_qubit.get(q)
            if prev is not None:
                src.append(prev)
                dst.append(pos)
                carrier.append(q)
            last_on_qubit[q] = pos
    return GateDag(nodes, src, dst, carrier)


def degree_histogram(dag: GateDag) -> dict[int, int]:
    """Histogram of total node degrees, keyed in order of first occurrence
    over the nodes; counts sum to the node count."""
    return dict(Counter(dag.degree_array().tolist()))


def longest_path_len(dag: GateDag) -> int:
    """Length (in edges) of the longest path; 0 for edgeless graphs."""
    if not dag.nodes:
        return 0
    return max(dag.longest_dists[0])


def depth(dag: GateDag) -> int:
    """The circuit's depth: the longest path counted in nodes, 0 for an empty
    graph.  Barriers add no node, so they add no layer."""
    return longest_path_len(dag) + 1 if dag.nodes else 0


def to_dot(dag: GateDag, name: str = "gatedag") -> str:
    lines = [f"digraph {name} {{"]
    for op in dag.nodes:
        kind = op.kind if isinstance(op, Gate) else "measure"
        qubits = ",".join(str(q) for q in _qubits(op))
        lines.append(f'  n{op.id} [label="{kind} q{qubits} (#{op.id})"];')
    ids = [op.id for op in dag.nodes]
    for s, d, q in zip(dag.src.tolist(), dag.dst.tolist(), dag.carrier.tolist()):
        lines.append(f'  n{ids[s]} -> n{ids[d]} [label="q{q}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
