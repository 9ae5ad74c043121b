"""Basis decomposition and greedy SWAP routing onto a coupling map.

The native basis is {rz, sx, x, cx} plus measures; barriers are dropped
during decomposition.  Routing keeps an identity initial layout and, for
each cx whose endpoints are not adjacent, walks the control toward the
target along a BFS shortest path, inserting SWAPs as 3-cx blocks.  The
whole pipeline is deterministic for a fixed (circuit, map).
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

from .circuit import Barrier, Circuit, Gate, Measure, circuit_depth

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

    def are_connected(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def shortest_path(self, src: int, dst: int) -> list[int]:
        """BFS shortest path; ties resolved by lowest physical index first."""
        if src == dst:
            return [src]
        adj = self.adjacency()
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
        n = int(data["n"])
        pairs = [(int(a), int(b)) for a, b in data["edges"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise TranspileError(f"bad coupling map JSON: {exc}") from None
    return CouplingMap.from_edges(n, pairs)


@dataclass
class TranspileResult:
    circuit_t: Circuit
    initial_layout: tuple[int, ...]
    final_layout: tuple[int, ...]
    depth_t: int
    swap_count: int
    coupling: CouplingMap | None = field(repr=False, default=None)

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


def _expand_multiqubit(op: Gate) -> list[Gate]:
    """Rewrite swap/cz/ccx in terms of cx plus 1q gates."""
    if op.kind == "swap":
        a, b = op.qubits
        return [Gate("cx", (a, b)), Gate("cx", (b, a)), Gate("cx", (a, b))]
    if op.kind == "cz":
        a, b = op.qubits
        return [Gate("h", (b,)), Gate("cx", (a, b)), Gate("h", (b,))]
    if op.kind == "ccx":
        a, b, c = op.qubits
        return [
            Gate("h", (c,)),
            Gate("cx", (b, c)),
            Gate("tdg", (c,)),
            Gate("cx", (a, c)),
            Gate("t", (c,)),
            Gate("cx", (b, c)),
            Gate("tdg", (c,)),
            Gate("cx", (a, c)),
            Gate("t", (b,)),
            Gate("t", (c,)),
            Gate("h", (c,)),
            Gate("cx", (a, b)),
            Gate("t", (a,)),
            Gate("tdg", (b,)),
            Gate("cx", (a, b)),
        ]
    return [op]


def _single_qubit_basis(kind: str, params: tuple[float, ...], q: int) -> list[Gate]:
    """ZXZXZ rewrite of a 1q gate, with short forms for theta in {0, pi/2}."""
    if kind == "rz":
        return [Gate("rz", (q,), params)]
    if kind == "sx":
        return [Gate("sx", (q,))]
    if kind == "x":
        return [Gate("x", (q,))]
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
        return [Gate("rz", (q,), (phi + lam,))]
    if abs(theta - math.pi / 2) < 1e-12:
        # u2 identity: U(pi/2, phi, lam) ~ RZ(phi + pi/2) . SX . RZ(lam - pi/2)
        return [
            Gate("rz", (q,), (lam - math.pi / 2,)),
            Gate("sx", (q,)),
            Gate("rz", (q,), (phi + math.pi / 2,)),
        ]
    # general case: U(theta, phi, lam) ~ RZ(phi + pi) . SX . RZ(theta + pi) . SX . RZ(lam)
    return [
        Gate("rz", (q,), (lam,)),
        Gate("sx", (q,)),
        Gate("rz", (q,), (theta + math.pi,)),
        Gate("sx", (q,)),
        Gate("rz", (q,), (phi + math.pi,)),
    ]


def decompose_to_basis(c: Circuit) -> Circuit:
    """Lower to {rz, sx, x, cx} + measures; merge rz runs, drop zero rz."""
    out = Circuit(c.num_qubits, c.num_clbits)
    # per-qubit index of the last op in out.ops touching that wire
    last_on_wire: dict[int, int] = {}
    staging: list[Gate | Measure | None] = []

    def push(item: Gate | Measure) -> None:
        if isinstance(item, Gate) and item.kind == "rz":
            q = item.qubits[0]
            angle = item.params[0]
            prev = last_on_wire.get(q)
            if prev is not None:
                prev_op = staging[prev]
                if isinstance(prev_op, Gate) and prev_op.kind == "rz":
                    angle += prev_op.params[0]
                    staging[prev] = None
                    last_on_wire.pop(q)
            if angle == 0.0:
                # no two staged rz are adjacent on a wire, so the op before a
                # dropped one is no rz: q needs no pointer until its next op
                return
            item = Gate("rz", (q,), (angle,))
        staging.append(item)
        touches = item.qubits if isinstance(item, Gate) else (item.qubit,)
        for q in touches:
            last_on_wire[q] = len(staging) - 1

    for op in c.ops:
        if isinstance(op, Barrier):
            continue
        if isinstance(op, Measure):
            push(op)
            continue
        for expanded in _expand_multiqubit(op):
            if expanded.kind == "cx":
                push(Gate("cx", expanded.qubits))
            else:
                for basis_gate in _single_qubit_basis(
                    expanded.kind, expanded.params, expanded.qubits[0]
                ):
                    push(basis_gate)

    for item in staging:
        if item is None:
            continue
        if isinstance(item, Measure):
            out.measure(item.qubit, item.clbit)
        else:
            out.add(item.kind, item.qubits, item.params)
    return out


# -- routing ---------------------------------------------------------------


def route(c: Circuit, cmap: CouplingMap) -> TranspileResult:
    """Greedy router for circuits already in the native basis.

    The BFS path choice (lowest physical index first) breaks every tie, so
    identical inputs always give identical results.
    """
    if c.num_qubits > cmap.num_physical_qubits:
        raise LayoutError(
            f"circuit needs {c.num_qubits} qubits, map has {cmap.num_physical_qubits}"
        )
    for op in c.ops:
        if isinstance(op, Gate) and op.kind not in BASIS_GATES:
            raise UnsupportedGate(f"route requires basis gates, got {op.kind!r}")

    n_log = c.num_qubits
    l2p = list(range(n_log))
    p2l = [i if i < n_log else -1 for i in range(cmap.num_physical_qubits)]
    initial_layout = tuple(l2p)
    out = Circuit(cmap.num_physical_qubits, c.num_clbits)
    swap_count = 0

    def emit_swap(u: int, v: int) -> None:
        nonlocal swap_count
        out.add("cx", (u, v))
        out.add("cx", (v, u))
        out.add("cx", (u, v))
        lu, lv = p2l[u], p2l[v]
        p2l[u], p2l[v] = lv, lu
        if lu != -1:
            l2p[lu] = v
        if lv != -1:
            l2p[lv] = u
        swap_count += 1

    for op in c.ops:
        if isinstance(op, Measure):
            out.measure(l2p[op.qubit], op.clbit)
        elif isinstance(op, Barrier):
            out.barrier(*(l2p[q] for q in op.qubits))
        elif op.kind == "cx":
            pa, pb = l2p[op.qubits[0]], l2p[op.qubits[1]]
            if not cmap.are_connected(pa, pb):
                path = cmap.shortest_path(pa, pb)
                for i in range(len(path) - 2):
                    emit_swap(path[i], path[i + 1])
                pa = path[-2]
            out.add("cx", (pa, pb))
        else:
            out.add(op.kind, (l2p[op.qubits[0]],), op.params)

    return TranspileResult(
        circuit_t=out,
        initial_layout=initial_layout,
        final_layout=tuple(l2p),
        depth_t=circuit_depth(out),
        swap_count=swap_count,
        coupling=cmap,
    )


def transpile(c: Circuit, cmap: CouplingMap) -> TranspileResult:
    """Decompose to the native basis, then route onto the coupling map."""
    return route(decompose_to_basis(c), cmap)


def check_coupling(result: TranspileResult) -> bool:
    """True iff every 2-qubit gate in the routed circuit sits on a map edge."""
    for op in result.circuit_t.ops:
        if isinstance(op, Gate) and len(op.qubits) == 2:
            if not result.coupling.are_connected(*op.qubits):
                return False
    return True
