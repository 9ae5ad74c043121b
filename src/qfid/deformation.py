"""Structural deformation between the logical and transpiled gate DAGs.

Three scale-free metrics summarize how compilation reshapes the graph:
total-variation shift of the degree distribution, relative growth of the
longest dependency path, and edge-density inflation.  Degenerate inputs
(no edges / zero-length paths in the logical graph) fall back to absolute
growth and are flagged in the report so downstream weighting can tell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dag import EmptyGraph, GateDag, degree_histogram, depth, longest_path_len


class DeformationError(ValueError):
    pass


@dataclass
class DeformationReport:
    delta_deg: float
    delta_path: float
    delta_conn: float
    path_degenerate: bool = False
    conn_degenerate: bool = False
    raw: dict[str, int] = field(default_factory=dict)


def delta_deg(g0: GateDag, gt: GateDag) -> float:
    """Total-variation distance between total-degree distributions, in [0,1]."""
    if g0.num_nodes == 0 or gt.num_nodes == 0:
        raise EmptyGraph("delta_deg needs nonempty graphs")
    h0 = degree_histogram(g0)
    ht = degree_histogram(gt)
    n0, nt = g0.num_nodes, gt.num_nodes
    support = set(h0) | set(ht)
    return 0.5 * sum(abs(h0.get(d, 0) / n0 - ht.get(d, 0) / nt) for d in support)


def delta_path(g0: GateDag, gt: GateDag) -> tuple[float, bool]:
    """Relative growth of the longest path (in edges); returns (value, degenerate).

    When the logical graph has no edges the relative form is undefined: the
    value is 0 if the transpiled graph is also edgeless, else the absolute
    transpiled length, with the degenerate flag set.
    """
    l0, lt = longest_path_len(g0), longest_path_len(gt)
    if l0 == 0:
        return (0.0 if lt == 0 else float(lt)), True
    return (lt - l0) / l0, False


def delta_conn(g0: GateDag, gt: GateDag) -> tuple[float, bool]:
    """Edge-density ratio minus one; returns (value, degenerate).

    Density is |E|/|V|.  With no logical edges the ratio is undefined: the
    value is 0 if the transpiled graph is also edgeless, else the absolute
    transpiled density, flagged degenerate.
    """
    if g0.num_nodes == 0 or gt.num_nodes == 0:
        raise EmptyGraph("delta_conn needs nonempty graphs")
    d0 = g0.num_edges / g0.num_nodes
    dt = gt.num_edges / gt.num_nodes
    if d0 == 0.0:
        return (0.0 if dt == 0.0 else dt), True
    return dt / d0 - 1.0, False


def compare(g0: GateDag, gt: GateDag) -> DeformationReport:
    """Full deformation report between a logical and a transpiled DAG; its raw
    counts include both graphs' depths, the only depths a report gives."""
    dd = delta_deg(g0, gt)
    dp, p_flag = delta_path(g0, gt)
    dc, c_flag = delta_conn(g0, gt)
    raw = {
        "nodes_0": g0.num_nodes,
        "edges_0": g0.num_edges,
        "nodes_t": gt.num_nodes,
        "edges_t": gt.num_edges,
        "longest_0": longest_path_len(g0),
        "longest_t": longest_path_len(gt),
        "depth_0": depth(g0),
        "depth_t": depth(gt),
    }
    return DeformationReport(dd, dp, dc, p_flag, c_flag, raw)
