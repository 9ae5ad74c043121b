"""Noise-propagation operator and spectral complexity.

The raw dependency DAG is strictly triangular, so row-normalizing it
directly would give an all-zero spectrum.  We instead build a symmetric
deformation-weighted kernel with a lazy self-loop, normalize it into a
row-stochastic operator P, and read complexity off the dominant |eigenvalue|
mass.  Because P is similar to the symmetric S = D^-1/2 K D^-1/2, the whole
spectrum is real and lives in [-1, 1], with the Perron eigenvalue pinned
at 1.

The kernel is held as its nonzero entries.  ``analyze_spectrum`` is the
one entry point to its eigenvalues, with two solvers chosen by size: a
dense full decomposition (LAPACK symmetric solver) for n <= 1024, and
beyond it ARPACK's implicitly restarted Lanczos in shift-invert mode at
each end of the Gershgorin interval, plus the deflation check for missed
copies of repeated eigenvalues.  The iterative solver is validated against
the dense one in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dag import EmptyGraph, GateDag
from .deformation import DeformationReport

DENSE_LIMIT = 1024
_POWER_SEED = 0x5EED1E5  # fixed: the iterative path must be reproducible
_SCALE_ROWS = 128  # rows of S scaled per block in the dense path
_SHIFT = 1e-3  # gap between each shift and its end of the Gershgorin interval
_TOL = 1e-8  # ARPACK's relative accuracy on the inverted operator
_MAX_ITER = 10_000  # cap on ARPACK's restarts at each solve


class SpectralError(ValueError):
    pass


class ConvergenceFailure(SpectralError):
    """The iterative solver hit its cap; carries whatever modes were resolved."""

    def __init__(self, message: str, partial: list[float]):
        self.partial = partial
        super().__init__(message)


@dataclass
class KernelConfig:
    """The spectral engine's settings: the kernel's self-loop weight and
    fan-in quantile, and ``k``, the spectral modes kept (None: min(10, n))."""

    self_loop: float = 0.5
    fanin_quantile: float = 0.9
    k: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.self_loop < math.inf:
            raise SpectralError("self_loop weight must be finite and > 0")
        if not 0.0 <= self.fanin_quantile <= 1.0:
            raise SpectralError("fanin_quantile must be in [0, 1]")
        if self.k is not None and self.k < 1:
            raise SpectralError(f"k must be >= 1, got {self.k}")


@dataclass
class WeightedKernel:
    """Symmetric nonnegative kernel K = (W + W^T)/2 + s*I over DAG nodes.

    Held as its nonzero entries K[rows[i], cols[i]] = vals[i], one per position.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    self_loop: float
    fanin_quantile: float

    @property
    def matrix(self) -> np.ndarray:
        """K as a new dense n x n array."""
        k = np.zeros((self.n, self.n))
        k[self.rows, self.cols] = self.vals
        return k

    def degrees(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.vals, minlength=self.n)


@dataclass
class PropagationSpectrum:
    n: int
    k: int
    eigenvalues: list[float]
    complexity: float
    self_loop: float
    fanin_quantile: float
    method: str
    converged: bool = True
    # max ||S v - theta v|| over the Ritz pairs; 0.0 if dense, inf if unconverged
    residual: float = 0.0


def _fanin_threshold(degrees: np.ndarray, quantile: float) -> float:
    """Degree value at the ceil(q*n)-th order statistic (1-indexed)."""
    ordered = np.sort(degrees)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return float(ordered[rank - 1])


def build_kernel(
    gt: GateDag, report: DeformationReport, cfg: KernelConfig | None = None
) -> WeightedKernel:
    """Deformation-weighted kernel over the transpiled DAG.

    Parallel edges sum into one base weight.  Edges on at least one longest
    path get a (1 + max(0, delta_path)) multiplier; edges incident to a node
    whose total degree reaches the fan-in quantile get (1 + max(0,
    delta_conn)); multipliers compose.  The result is symmetrized and given
    a constant self-loop so every degree is strictly positive.
    """
    cfg = cfg or KernelConfig()
    n = gt.num_nodes
    if n == 0:
        raise EmptyGraph("cannot build a kernel over an empty DAG")

    # parallel edges sum into one base weight, kept in order of first occurrence
    src, dst = gt.src, gt.dst
    _, first, counts = np.unique(src * n + dst, return_index=True, return_counts=True)
    order = np.argsort(first)
    pick = first[order]
    rows, cols, weights = src[pick], dst[pick], counts[order].astype(float)

    path_mult = 1.0 + max(0.0, report.delta_path)
    conn_mult = 1.0 + max(0.0, report.delta_conn)

    if len(weights):
        from_src, to_sink = (np.array(d) for d in gt.longest_dists)
        on_path = from_src[rows] + 1 + to_sink[cols] == from_src.max()
        deg = gt.degree_array().astype(float)
        threshold = _fanin_threshold(deg, cfg.fanin_quantile)
        fanin = (deg[rows] >= threshold) | (deg[cols] >= threshold)
        mult = np.ones(len(weights))
        mult[on_path] *= path_mult
        mult[fanin] *= conn_mult
        weights *= mult

    # a DAG has no self-loops and no antiparallel edges, so every entry of
    # (W + W^T)/2 + s*I below is one term and takes one position
    half = 0.5 * weights
    diag = np.arange(n)
    return WeightedKernel(
        n,
        np.concatenate([rows, cols, diag]),
        np.concatenate([cols, rows, diag]),
        np.concatenate([half, half, np.full(n, cfg.self_loop)]),
        cfg.self_loop,
        cfg.fanin_quantile,
    )


def _symmetric_similar(kernel: WeightedKernel) -> np.ndarray:
    """Dense S = D^-1/2 K D^-1/2, sharing P's spectrum but symmetric.

    Degrees are dense row sums, a fixed summation order; scaling is in place,
    by row blocks of np.outer(isq, isq).  eigvalsh copies S anyway, but a
    whole n x n temporary of 4 MiB or more gets huge pages from numpy, which
    raised peak RSS; a block is at most 1 MiB.
    """
    s = kernel.matrix
    isq = 1.0 / np.sqrt(s.sum(axis=1))
    for start in range(0, kernel.n, _SCALE_ROWS):
        s[start : start + _SCALE_ROWS] *= np.outer(isq[start : start + _SCALE_ROWS], isq)
    return s


def _iterative_top_k(kernel: WeightedKernel, k: int) -> tuple[np.ndarray, float]:
    """ARPACK's Lanczos in shift-invert mode at each end of the Gershgorin
    interval, plus the deflation check.

    P = D^-1 K has row discs centred at s/d_i with radius 1 - s/d_i, so the
    spectrum lies in [lo, 1], lo = 2 min(s/d_i) - 1.  The top end factors
    S - sigma I once (splu), sigma = 1 + _SHIFT, and runs ``eigsh`` on its
    inverse, whose largest |mu| are the lambda = sigma + 1/mu nearest sigma;
    clustered eigenvalues near 1 separate there.  The bottom end
    (sigma = lo - _SHIFT) runs only when -lo exceeds the smallest |lambda|
    of the top end, i.e. when a negative mode could enter the top k; the two
    ends merge by a two-pointer pick on |lambda|, which keeps a mode found
    from both ends once.

    Lanczos from one start vector can miss a copy of a repeated eigenvalue
    (a DAG with c components has lambda = 1 c times).  So at each end
    eigsh(k=1) from a fresh start vector runs on the inverse deflated by the
    k pairs found, lu.solve(x) - V M V^T x; a mode nearer sigma than the
    farthest of the k replaces it, and the check repeats, at most k times.
    Needs k < n - 1 (analyze_spectrum sends larger k to the dense solver).
    Returns the k eigenvalues and the largest ||S v - theta v||; raises
    ConvergenceFailure, padded with zeros to k values, if ARPACK exceeds
    _MAX_ITER restarts (_TOL is its relative accuracy on the inverse).
    """
    n = kernel.n
    # scipy.sparse.linalg imports scipy.linalg: a cost only this path pays
    from scipy.sparse import csc_matrix, identity
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

    degrees = kernel.degrees()
    isq = 1.0 / np.sqrt(degrees)
    svals = kernel.vals * isq[kernel.rows] * isq[kernel.cols]
    s = csc_matrix((svals, (kernel.rows, kernel.cols)), shape=(n, n))
    rng = np.random.default_rng(_POWER_SEED)

    def nearest(sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """The k eigenpairs of S nearest sigma, which lies outside [lo, 1]."""
        lu = splu(csc_matrix(s - sigma * identity(n)))

        def solve(matvec, count: int) -> tuple[np.ndarray, np.ndarray]:
            op = LinearOperator((n, n), matvec=matvec, dtype=float)
            v0 = rng.standard_normal(n)
            try:
                return eigsh(op, count, which="LM", v0=v0, tol=_TOL, maxiter=_MAX_ITER)
            except ArpackNoConvergence as exc:
                found = [sigma + 1.0 / float(mu) for mu in exc.eigenvalues]
                partial = found + [0.0] * (k - len(found))
                raise ConvergenceFailure(
                    f"ARPACK exceeded {_MAX_ITER} restarts", partial
                ) from None

        mu, vecs = solve(lu.solve, k)
        for _ in range(k):
            # 1/|mu| = |lambda - sigma|; tol is absolute in lambda, as |lambda| <= 1
            farthest = 1.0 / np.abs(mu).min()

            def deflated(x: np.ndarray) -> np.ndarray:
                return lu.solve(x) - vecs @ (mu * (vecs.T @ x))

            extra, u = solve(deflated, 1)
            if 1.0 / abs(extra[0]) >= farthest - _TOL:
                break
            keep = np.argsort(-np.abs(mu))[: k - 1]
            mu = np.append(mu[keep], extra)
            vecs = np.hstack([vecs[:, keep], u])
        return sigma + 1.0 / mu, vecs

    lo = 2.0 * float((kernel.self_loop / degrees).min()) - 1.0
    theta, vecs = nearest(1.0 + _SHIFT)
    if -lo > np.abs(theta).min():
        low, low_vecs = nearest(lo - _SHIFT)
        top, bottom = np.argsort(-theta), np.argsort(low)
        i = j = 0  # modes taken from the top and from the bottom end
        while i + j < k:
            if abs(theta[top[i]]) >= abs(low[bottom[j]]):
                i += 1
            else:
                j += 1
        theta = np.concatenate([theta[top[:i]], low[bottom[:j]]])
        vecs = np.hstack([vecs[:, top[:i]], low_vecs[:, bottom[:j]]])
    return theta, float(np.linalg.norm(s @ vecs - vecs * theta, axis=0).max())


def spectral_complexity(eigenvalues: list[float], k: int) -> float:
    """Sum of |lambda_i| over the top min(k, len) modes."""
    if k < 1:
        raise SpectralError(f"k must be >= 1, got {k}")
    top = sorted((abs(v) for v in eigenvalues), reverse=True)[:k]
    return float(sum(top))


def analyze_spectrum(
    kernel: WeightedKernel, k: int | None = None, method: str = "auto"
) -> PropagationSpectrum:
    """Top-k eigenvalues of P by magnitude, descending (all real), and their
    complexity; the kernel's self-loop and fan-in quantile are recorded.

    ``k`` defaults to min(10, n) and is capped at n.  method "auto" uses the
    dense solver up to n = DENSE_LIMIT and the iterative one beyond it; the
    iterative solver needs k < n - 1, so a larger k runs dense, and
    ``method`` records the solver that ran.  An iterative run that does not
    converge is flagged, not raised: ``converged`` is False, ``residual``
    inf, and the eigenvalues are the partial ones it resolved.
    """
    if method not in ("auto", "dense", "iterative"):
        raise SpectralError(f"method must be auto|dense|iterative, got {method!r}")
    if k is not None and k < 1:
        raise SpectralError(f"k must be >= 1, got {k}")
    n = kernel.n
    k = min(10 if k is None else k, n)
    if method == "auto":
        method = "dense" if n <= DENSE_LIMIT else "iterative"
    if k >= n - 1:
        method = "dense"
    if method == "dense":
        values, residual = np.linalg.eigvalsh(_symmetric_similar(kernel)), 0.0
    else:
        try:
            values, residual = _iterative_top_k(kernel, k)
        except ConvergenceFailure as exc:
            values, residual = exc.partial, math.inf
    eigs = [float(v) for v in sorted(values, key=lambda x: (-abs(x), -x))[:k]]
    return PropagationSpectrum(
        n=n,
        k=k,
        eigenvalues=eigs,
        complexity=spectral_complexity(eigs, k),
        self_loop=kernel.self_loop,
        fanin_quantile=kernel.fanin_quantile,
        method=method,
        converged=math.isfinite(residual),
        residual=residual,
    )
