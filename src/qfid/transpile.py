"""Basis decomposition and greedy SWAP routing onto a coupling map.

The native basis is {rz, sx, x, cx} plus measures; barriers are dropped
during decomposition.  Routing keeps an identity initial layout and, for
each cx whose endpoints are not adjacent, walks the control toward the
target along a BFS shortest path, inserting SWAPs as 3-cx blocks.  The
whole pipeline is deterministic for a fixed (circuit, map).

``transpile`` is the one entry point and one stream: decomposition yields
basis ops as (kind, qubits, params) tuples and the router consumes them, so
each output gate is built and validated once, by ``Circuit.add``.  On a map
where every pair of qubits is linked nothing is routed, and the output is
the circuit lowered to the basis.
"""

from __future__ import annotations

import json
import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from .circuit import Circuit, Gate, Measure

BASIS_GATES = ("rz", "sx", "x", "cx")


class TranspileError(ValueError):
    pass


class UnsupportedGate(TranspileError):
    pass


class LayoutError(TranspileError):
    pass


class DisconnectedMap(TranspileError):
    pass


@dataclass(frozen=True)
class CouplingMap:
    """Undirected physical-qubit connectivity graph."""

    num_physical_qubits: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if a == b:
                raise TranspileError(f"self-loop edge ({a},{b}) in coupling map")
            if not (0 <= a < self.num_physical_qubits and 0 <= b < self.num_physical_qubits):
                raise TranspileError(f"edge ({a},{b}) outside {self.num_physical_qubits} qubits")

    @staticmethod
    def from_edges(n: int, pairs) -> "CouplingMap":
        edges = frozenset((min(a, b), max(a, b)) for a, b in pairs)
        return CouplingMap(n, edges)

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {q: [] for q in range(self.num_physical_qubits)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {q: sorted(nbrs) for q, nbrs in adj.items()}


def _bfs_path(adj: dict[int, list[int]], src: int, dst: int) -> list[int]:
    """BFS shortest path over sorted adjacency lists, so ties go to the lowest index."""
    if src == dst:
        return [src]
    parent: dict[int, int] = {src: src}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nbr in adj[cur]:
            if nbr not in parent:
                parent[nbr] = cur
                if nbr == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return path[::-1]
                queue.append(nbr)
    raise DisconnectedMap(f"no path between physical qubits {src} and {dst}")


def linear_map(n: int) -> CouplingMap:
    return CouplingMap.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def ring_map(n: int) -> CouplingMap:
    if n < 3:
        return linear_map(n)
    return CouplingMap.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def grid_map(rows: int, cols: int) -> CouplingMap:
    pairs = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                pairs.append((q, q + 1))
            if r + 1 < rows:
                pairs.append((q, q + cols))
    return CouplingMap.from_edges(rows * cols, pairs)


# 27-qubit heavy-hex patch (IBM Falcon layout)
_HEAVY_HEX_27 = [
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7), (7, 10),
    (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14), (14, 16),
    (15, 18), (16, 19), (17, 18), (18, 21), (19, 20), (19, 22), (21, 23),
    (22, 25), (23, 24), (24, 25), (25, 26),
]


def heavy_hex_27() -> CouplingMap:
    return CouplingMap.from_edges(27, _HEAVY_HEX_27)


def coupling_from_json(text: str) -> CouplingMap:
    """Load a map from JSON of the form {"n": int, "edges": [[a, b], ...]}."""
    try:
        data = json.loads(text)
        n = data["n"]
        pairs = [(a, b) for a, b in data["edges"]]
        # JSON integers only: int() would read 1.5 as 1, "3" as 3 and true as 1
        bad = [v for v in (n, *(v for ab in pairs for v in ab)) if type(v) is not int]
        if bad or n < 0:
            raise ValueError(f"n and endpoints must be integers, n >= 0; got {(bad or [n])[0]!r}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise TranspileError(f"bad coupling map JSON: {exc}") from None
    return CouplingMap.from_edges(n, pairs)


@dataclass
class TranspileResult:
    circuit_t: Circuit
    initial_layout: tuple[int, ...]
    final_layout: tuple[int, ...]
    swap_count: int

    def readout_circuit(self) -> Circuit:
        """``circuit_t`` with the input's readout made explicit, for simulation.

        A circuit without measures reads out every logical qubit q into
        clbit q.  After routing, logical q sits on physical qubit
        ``final_layout[q]``, so those measures are appended; a circuit that
        measures already carries its readout through routing unchanged.
        """
        c = self.circuit_t
        if c.measures:
            return c
        out = Circuit(c.num_qubits, len(self.final_layout), list(c.ops))
        for q, p in enumerate(self.final_layout):
            out.measure(p, q)
        return out


# -- basis decomposition -------------------------------------------------

# single-qubit gates as u3 angle triples (theta, phi, lam), up to global phase
_SQ_AS_U3 = {
    "h": (math.pi / 2, 0.0, math.pi),
    "x": (math.pi, 0.0, math.pi),
    "y": (math.pi, math.pi / 2, math.pi / 2),
    "z": (0.0, 0.0, math.pi),
    "s": (0.0, 0.0, math.pi / 2),
    "sdg": (0.0, 0.0, -math.pi / 2),
    "t": (0.0, 0.0, math.pi / 4),
    "tdg": (0.0, 0.0, -math.pi / 4),
}


# a basis op on its way to the router: a (kind, qubits, params) tuple for a
# gate, or a Measure
_BasisOp = tuple[str, tuple[int, ...], tuple[float, ...]] | Measure


def _expand_multiqubit(
    kind: str, qubits: tuple[int, ...], params: tuple[float, ...]
) -> list[tuple]:
    """Rewrite swap/cz/ccx as (kind, qubits, params) tuples of cx plus 1q
    gates; any other gate comes back as its own tuple."""
    if kind == "swap":
        a, b = qubits
        return [("cx", (a, b), ()), ("cx", (b, a), ()), ("cx", (a, b), ())]
    if kind == "cz":
        a, b = qubits
        return [("h", (b,), ()), ("cx", (a, b), ()), ("h", (b,), ())]
    if kind != "ccx":
        return [(kind, qubits, params)]
    a, b, c = qubits
    return [
        ("h", (c,), ()),
        ("cx", (b, c), ()),
        ("tdg", (c,), ()),
        ("cx", (a, c), ()),
        ("t", (c,), ()),
        ("cx", (b, c), ()),
        ("tdg", (c,), ()),
        ("cx", (a, c), ()),
        ("t", (b,), ()),
        ("t", (c,), ()),
        ("h", (c,), ()),
        ("cx", (a, b), ()),
        ("t", (a,), ()),
        ("tdg", (b,), ()),
        ("cx", (a, b), ()),
    ]


def _single_qubit_basis(kind: str, params: tuple[float, ...], q: int) -> list[tuple]:
    """ZXZXZ rewrite of a 1q gate as (kind, qubits, params) tuples, with short
    forms for theta in {0, pi/2}."""
    wire = (q,)
    if kind in ("rz", "sx", "x"):
        return [(kind, wire, params)]
    if kind in ("u", "u3"):
        theta, phi, lam = params
    elif kind == "u2":
        theta, phi, lam = math.pi / 2, params[0], params[1]
    elif kind == "u1":
        theta, phi, lam = 0.0, 0.0, params[0]
    elif kind == "rx":
        theta, phi, lam = params[0], -math.pi / 2, math.pi / 2
    elif kind == "ry":
        theta, phi, lam = params[0], 0.0, 0.0
    elif kind in _SQ_AS_U3:
        theta, phi, lam = _SQ_AS_U3[kind]
    else:
        raise UnsupportedGate(f"cannot decompose gate {kind!r}")
    if abs(theta) < 1e-12:
        angle = phi + lam
        if math.isfinite(angle):
            return [("rz", wire, (angle,))]
        return [("rz", wire, (lam,)), ("rz", wire, (phi,))]  # their sum overflows
    if abs(theta - math.pi / 2) < 1e-12:
        # u2 identity: U(pi/2, phi, lam) ~ RZ(phi + pi/2) . SX . RZ(lam - pi/2)
        return [
            ("rz", wire, (lam - math.pi / 2,)),
            ("sx", wire, ()),
            ("rz", wire, (phi + math.pi / 2,)),
        ]
    # general case: U(theta, phi, lam) ~ RZ(phi + pi) . SX . RZ(theta + pi) . SX . RZ(lam)
    return [
        ("rz", wire, (lam,)),
        ("sx", wire, ()),
        ("rz", wire, (theta + math.pi,)),
        ("sx", wire, ()),
        ("rz", wire, (phi + math.pi,)),
    ]


def _basis_stream(c: Circuit) -> Iterator[_BasisOp]:
    """Yield ``c`` lowered to {rz, sx, x, cx} and measures, in order.

    Barriers are dropped.  An rz that follows an rz on its wire merges into
    it, and a run whose angles sum to 0.0 is dropped; two rz whose sum
    overflows stay apart.
    """
    staged: list[_BasisOp | None] = []
    # wire -> position in ``staged`` of the rz that is the last op on it
    last_rz: dict[int, int] = {}

    def push(kind: str, qubits: tuple[int, ...], params: tuple[float, ...]) -> None:
        if kind == "rz":
            q = qubits[0]
            prev = last_rz.get(q)
            if prev is not None:
                angle = params[0] + staged[prev][2][0]
                if math.isfinite(angle):
                    staged[prev] = None
                    del last_rz[q]
                    if angle == 0.0:
                        # the op before a dropped run is no rz (unless an
                        # overflowing sum kept two apart), so q needs no
                        # entry until its next op
                        return
                    params = (angle,)
            elif params[0] == 0.0:
                return
            last_rz[q] = len(staged)
        else:
            for q in qubits:
                last_rz.pop(q, None)
        staged.append((kind, qubits, params))

    for op in c.ops:
        if isinstance(op, Gate):
            for kind, qubits, params in _expand_multiqubit(op.kind, op.qubits, op.params):
                if kind == "cx":
                    push(kind, qubits, params)
                else:
                    for basis_op in _single_qubit_basis(kind, params, qubits[0]):
                        push(*basis_op)
        elif isinstance(op, Measure):
            last_rz.pop(op.qubit, None)
            staged.append(op)
    for item in staged:
        if item is not None:
            yield item


# -- routing ---------------------------------------------------------------


def transpile(c: Circuit, cmap: CouplingMap) -> TranspileResult:
    """Decompose to the native basis and route onto ``cmap``, as one stream:
    each output gate is built once, by ``Circuit.add``.

    The BFS path choice (lowest physical index first) breaks every tie, so
    identical inputs always give identical results.  The result holds only
    what routing decides; the routed depth is the routed DAG's, which
    ``deformation.compare`` records.
    """
    num_qubits = c.num_qubits
    n_phys = cmap.num_physical_qubits
    needed = num_qubits
    if needed > n_phys and c.measures:
        # only the qubits a gate or measure touches need a place on the map; a
        # circuit without measures reads out, and so touches, every qubit
        needed = 1 + max([q for g in c.gates for q in g.qubits] + [m.qubit for m in c.measures])
    if needed > n_phys:
        raise LayoutError(f"circuit needs {needed} qubits, map has {n_phys}")
    l2p = [q if q < n_phys else -1 for q in range(num_qubits)]  # -1: untouched, off the map
    p2l = [i if i < num_qubits else -1 for i in range(n_phys)]
    initial_layout = tuple(l2p)
    out = Circuit(n_phys, c.num_clbits)
    add = out.add
    adj = cmap.adjacency()
    linked = {(a, b) for a in adj for b in adj[a]}
    paths: dict[tuple[int, int], list[int]] = {}
    swap_count = 0

    for op in _basis_stream(c):
        if isinstance(op, tuple):
            kind, qubits, params = op
            if kind != "cx":
                add(kind, (l2p[qubits[0]],), params)
                continue
            pa, pb = l2p[qubits[0]], l2p[qubits[1]]
            if (pa, pb) not in linked:
                path = paths.get((pa, pb))
                if path is None:
                    path = paths[pa, pb] = _bfs_path(adj, pa, pb)
                for u, v in zip(path, path[1:-1]):
                    # a SWAP as three cx
                    add("cx", (u, v))
                    add("cx", (v, u))
                    add("cx", (u, v))
                    lu, lv = p2l[u], p2l[v]
                    p2l[u], p2l[v] = lv, lu
                    if lu != -1:
                        l2p[lu] = v
                    if lv != -1:
                        l2p[lv] = u
                    swap_count += 1
                pa = path[-2]
            add("cx", (pa, pb))
        else:  # a Measure
            out.measure(l2p[op.qubit], op.clbit)

    return TranspileResult(
        circuit_t=out,
        initial_layout=initial_layout,
        final_layout=tuple(l2p),
        swap_count=swap_count,
    )

