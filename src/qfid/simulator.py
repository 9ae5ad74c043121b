"""Noiseless statevector and noisy density-matrix simulation, plus shot oracles.

Noise model: depolarizing after every gate (p1 on single-qubit gates, p2 on
the qubit set of wider gates) and a per-qubit readout confusion matrix at
measurement.  Distributions live over the classical-bit space, and an
outcome is its index there: bit j of the index is clbit j.  Inside the
pipeline a shot is that integer index, and oracles return arrays of them.
Bitstrings appear only at I/O (counts files and reports); they are written
most-significant-clbit first, so clbit 0 is the rightmost character and
``int(text, 2)`` is the index.

Measurements are treated as terminal: the state is evolved through all
unitaries, then read out.  A gate acting on an already-measured qubit is
rejected, which keeps the deferred readout exact.

The noisy simulator works in the Pauli transfer basis.  rho over n active
qubits is the real vector r_P = Tr(P rho) over the 4^n Pauli strings P, and
a gate with its depolarizing noise is the real 4^k x 4^k Pauli transfer
matrix R_ij = Tr(P_i U P_j U†) / 2^k with every row but the identity row
scaled by 1-p (Greenbaum, arXiv:1509.02921).  r takes half the memory of
a complex rho, and every contraction is real.  Consecutive gates whose
qubit sets nest are multiplied into one matrix before they touch r, so
single-qubit gates fold into their neighbouring cx and the three cx of a
routed SWAP cost one contraction.  r moves between two preallocated
buffers, one copy per contraction at most.  Only the active qubits --
those a gate or the readout touches -- are simulated, and
``DENSITY_MAX_QUBITS`` caps their number, so a small circuit routed onto a
large coupling map stays cheap.  A circuit without measurements reads out
every qubit, so all of its qubits are active; a routed circuit is read out
through ``TranspileResult.readout_circuit``, which measures its logical
qubits.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, Measure, gate_unitary

STATEVECTOR_MAX_QUBITS = 20
DENSITY_MAX_QUBITS = 12


class SimulationError(ValueError):
    pass


class TooManyQubits(SimulationError):
    pass


class MidCircuitMeasurement(SimulationError):
    """A gate touched a qubit after that qubit was measured."""


class ReplayExhausted(SimulationError):
    """A replay oracle ran out of recorded shots."""


@dataclass
class NoiseModel:
    p1: float = 0.0
    p2: float = 0.0
    p_ro: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p1 <= 1.0:
            raise SimulationError(f"p1 must be in [0,1], got {self.p1}")
        if not 0.0 <= self.p2 <= 1.0:
            raise SimulationError(f"p2 must be in [0,1], got {self.p2}")
        if not 0.0 <= self.p_ro <= 0.5:
            raise SimulationError(f"p_ro must be in [0,0.5], got {self.p_ro}")

    @property
    def is_noiseless(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0 and self.p_ro == 0.0


def bitstring(index: int, num_bits: int) -> str:
    """Outcome index as text, most-significant clbit first."""
    return format(index, f"0{num_bits}b") if num_bits else ""


@dataclass
class OutcomeDistribution:
    """Dense probability vector over the 2^num_bits outcome indices."""

    num_bits: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != (2**self.num_bits,):
            raise SimulationError(
                f"expected {2**self.num_bits} entries, got {self.probs.shape}"
            )
        if np.any(self.probs < -1e-10):
            raise SimulationError("negative probability entry")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-8:
            raise SimulationError(f"probabilities sum to {total}, not 1")
        self.probs = np.clip(self.probs, 0.0, None)

    def prob_of(self, bitstring: str) -> float:
        return float(self.probs[int(bitstring, 2)]) if bitstring else 1.0


# -- state evolution -------------------------------------------------------
#
# A pure state is a (2,)*n tensor whose axis j owns qubit n-1-j, matching
# index bit q = (x >> q) & 1.  A Pauli vector is a real (4,)*n tensor whose
# axis j owns qubit n-1-j, indexed 0=I, 1=X, 2=Y, 3=Z.


def _axes(qubits: tuple[int, ...], n: int) -> list[int]:
    """Ket axes of a gate's qubits, most significant local bit first.

    Local bit j of a gate matrix belongs to ``qubits[j]``, so the last qubit
    carries the most significant bit.
    """
    return [n - 1 - q for q in reversed(qubits)]


def _apply_matrix(tensor: np.ndarray, m: np.ndarray, axes: list[int]) -> np.ndarray:
    """Contract the d^k x d^k matrix ``m`` into ``axes`` of a (d,)*ndim tensor.

    ``axes[0]`` carries the most significant digit of m's row and column
    index; the result keeps the input's axis order.
    """
    order = axes + [a for a in range(tensor.ndim) if a not in axes]
    out = m @ tensor.transpose(order).reshape(len(m), -1)
    return out.reshape(tensor.shape).transpose(np.argsort(order))


_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@functools.lru_cache(maxsize=None)
def _pauli_basis(k: int) -> np.ndarray:
    """4^k x 4^k matrix whose column j is the row-major vec of Pauli string j.

    Base-4 digit i of j is the Pauli on local qubit i, so the last local
    qubit carries the most significant digit, as in a gate matrix.
    """
    basis = np.ones((1, 1, 1), dtype=complex)  # (string, row, column)
    for _ in range(k):
        dim = 2 * basis.shape[1]
        basis = np.einsum("iab,jcd->ijacbd", _PAULIS, basis).reshape(-1, dim, dim)
    t = basis.reshape(len(basis), -1).T
    t.flags.writeable = False
    return t


def _ptm(u: np.ndarray, p: float) -> np.ndarray:
    """Pauli transfer matrix of rho -> (1-p) U rho U† + p Tr_Q(rho) I/2^k.

    Entry (i, j) is Tr(P_i U P_j U†) / 2^k.  The channel preserves trace and
    the identity, so the first row and column are exactly e_0, and the
    product leaves r_I unchanged.  Depolarizing keeps the identity component
    and scales every other one by 1-p: it scales every row but the first.
    """
    dim = len(u)
    t = _pauli_basis(dim.bit_length() - 1)
    superop = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(dim * dim, -1)
    r = (t.conj().T @ superop @ t).real / dim
    r[0, :] = r[:, 0] = 0.0
    r[0, 0] = 1.0
    r[1:] *= 1.0 - p
    return r


def _compose(
    late: np.ndarray, late_q: tuple[int, ...], early: np.ndarray, early_q: tuple[int, ...]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """PTM of ``early`` followed by ``late``, where one qubit set holds the other.

    A PTM on k qubits, reshaped to (4,)*2k, has one Pauli axis per qubit for
    its rows and again for its columns.  The smaller matrix goes onto the
    larger one's rows (applied after it) or, transposed, onto its columns
    (applied before it).
    """
    if set(late_q) <= set(early_q):
        k, qubits = len(early_q), early_q
        pos = tuple(early_q.index(q) for q in late_q)
        t = _apply_matrix(early.reshape((4,) * (2 * k)), late, _axes(pos, k))
    else:
        k, qubits = len(late_q), late_q
        pos = tuple(late_q.index(q) for q in early_q)
        axes = [k + a for a in _axes(pos, k)]
        t = _apply_matrix(late.reshape((4,) * (2 * k)), early.T, axes)
    return t.reshape(4**k, 4**k), qubits


def _apply_ptm(
    bufs: list[np.ndarray], order: list[int], m: np.ndarray, axes: list[int]
) -> list[int]:
    """Contract the PTM ``m`` into ``axes`` of the Pauli vector in ``bufs[0]``.

    The vector's axes are stored permuted: stored axis i is axis
    ``order[i]``.  When the gate's axes are stored next to each other, the
    vector is a stack of (4^k, rest) matrices and m multiplies each of them
    from the left, straight into the spare buffer ``bufs[1]``.  Otherwise one
    copy into the spare buffer moves them to the front first.  m's rows and
    columns are permuted to the stored order of its axes, never the vector.
    Returns the new storage order, with ``bufs[0]`` holding the result.
    """
    k, n = len(axes), len(order)
    pos = sorted(order.index(a) for a in axes)
    if pos[-1] - pos[0] != k - 1:
        new = [order[i] for i in pos] + [a for a in order if a not in axes]
        stored = bufs[0].reshape((4,) * n).transpose([order.index(a) for a in new])
        np.copyto(bufs[1].reshape((4,) * n), stored)
        bufs.reverse()
        order, pos = new, list(range(k))
    lead = order[pos[0] : pos[0] + k]
    if lead != axes:
        perm = [axes.index(a) for a in lead]
        m = m.reshape((4,) * (2 * k)).transpose(perm + [k + i for i in perm]).reshape(4**k, -1)
    src = bufs[0].reshape(4 ** pos[0], 4**k, -1)
    dst = bufs[1].reshape(src.shape)
    if src.shape[2] == 1:  # trailing axes: one product on the right
        np.matmul(src[:, :, 0], m.T, out=dst[:, :, 0])
    else:
        np.matmul(m, src, out=dst)
    bufs.reverse()
    return order


def _diagonal(vec: np.ndarray, order: list[int]) -> np.ndarray:
    """Diagonal of rho from its Pauli vector, whose stored axis i is ``order[i]``.

    Tr(|x><x| rho) with |b><b| = (I + (-1)^b Z)/2 per qubit: the I and Z
    slice of the vector, contracted with [[1, 1], [1, -1]]/2 on every axis.
    """
    n = len(order)
    iz = vec.reshape((4,) * n).transpose(np.argsort(order))[(slice(None, None, 3),) * n]
    h = np.array([[0.5, 0.5], [0.5, -0.5]])
    for axis in range(n):
        iz = _apply_matrix(iz, h, [axis])
    return iz.reshape(-1)


def _readout_plan(c: Circuit) -> list[tuple[int, int]]:
    """Ordered (qubit, clbit) pairs; defaults to measuring every qubit.

    Also validates that no gate touches a qubit after it was measured and
    that no clbit is written twice.
    """
    measured: set[int] = set()
    written: set[int] = set()
    plan: list[tuple[int, int]] = []
    for op in c.ops:
        if isinstance(op, Measure):
            if op.clbit in written:
                raise SimulationError(f"clbit {op.clbit} measured twice")
            measured.add(op.qubit)
            written.add(op.clbit)
            plan.append((op.qubit, op.clbit))
        elif isinstance(op, Gate):
            for q in op.qubits:
                if q in measured:
                    raise MidCircuitMeasurement(
                        f"gate {op.kind!r} acts on qubit {q} after measurement"
                    )
    if not plan:
        plan = [(q, q) for q in range(c.num_qubits)]
    return plan


def _qubit_probs_to_outcome(
    qprobs: np.ndarray, plan: list[tuple[int, int]], num_clbits: int
) -> OutcomeDistribution:
    """Marginalize the qubit-space diagonal onto the clbit space."""
    m = num_clbits
    out = np.zeros(2**m)
    indices = np.arange(len(qprobs))
    cl_index = np.zeros(len(qprobs), dtype=np.int64)
    for qubit, clbit in plan:
        cl_index |= ((indices >> qubit) & 1) << clbit
    np.add.at(out, cl_index, qprobs)
    return OutcomeDistribution(m, out)


def ideal_distribution(c: Circuit) -> OutcomeDistribution:
    """Noiseless outcome distribution via statevector simulation."""
    n = c.num_qubits
    if n > STATEVECTOR_MAX_QUBITS:
        raise TooManyQubits(f"{n} qubits exceeds statevector cap {STATEVECTOR_MAX_QUBITS}")
    plan = _readout_plan(c)
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for gate in c.gates:
        psi = _apply_matrix(psi, gate_unitary(gate), _axes(gate.qubits, n))
    qprobs = np.abs(psi.reshape(-1)) ** 2
    num_clbits = c.num_clbits if c.measures else c.num_qubits
    return _qubit_probs_to_outcome(qprobs, plan, num_clbits)


def _apply_readout_flips(qprobs: np.ndarray, qubits: list[int], p_ro: float) -> np.ndarray:
    if p_ro == 0.0:
        return qprobs
    probs = qprobs
    idx = np.arange(len(probs))
    for q in qubits:
        flipped = probs[idx ^ (1 << q)]
        probs = (1.0 - p_ro) * probs + p_ro * flipped
    return probs


def noisy_distribution(c: Circuit, nm: NoiseModel) -> OutcomeDistribution:
    """Exact outcome distribution under depolarizing + readout noise.

    Only the active qubits -- those a gate or the readout touches -- are
    simulated, renumbered in order.  PTMs wait in open blocks: a gate's
    PTM is multiplied onto each open block whose qubits hold, or are held
    by, its own, and every other open block it overlaps is applied to the
    Pauli vector first.  So the vector takes one contraction per block
    rather than per gate, and no block spans more qubits than one gate.
    Every gate on a qubit that the vector has not seen sits in that qubit's
    block, in order, and blocks on disjoint qubits commute, so this is
    exact.  The vector lives in two buffers of 4^n floats and nothing else
    of its size is allocated.
    """
    plan = _readout_plan(c)
    active = sorted({q for g in c.gates for q in g.qubits} | {q for q, _ in plan})
    n = len(active)
    if n > DENSITY_MAX_QUBITS:
        raise TooManyQubits(
            f"{n} active qubits exceeds density-matrix cap {DENSITY_MAX_QUBITS}"
        )
    local = {q: i for i, q in enumerate(active)}
    bufs = [np.zeros(4**n), np.empty(4**n)]
    bufs[0].reshape((4,) * n)[(slice(None, None, 3),) * n] = 1.0  # |0><0| = (I + Z)/2 per qubit
    order = list(range(n))
    blocks: dict[int, tuple] = {}  # local qubit -> (PTM, qubits) of its open block
    ptms: dict[tuple, np.ndarray] = {}  # (kind, params) -> PTM; most gates repeat
    for gate in c.gates:
        qubits = tuple(local[q] for q in gate.qubits)
        key = (gate.kind, gate.params)
        if key not in ptms:
            ptms[key] = _ptm(gate_unitary(gate), nm.p1 if len(qubits) == 1 else nm.p2)
        r = ptms[key]
        overlapped = {blocks[q][1]: blocks[q] for q in qubits if q in blocks}  # each block once
        for early, early_q in overlapped.values():
            if set(early_q) <= set(qubits) or set(qubits) <= set(early_q):
                r, qubits = _compose(r, qubits, early, early_q)
            else:
                order = _apply_ptm(bufs, order, early, _axes(early_q, n))
            for q in early_q:
                del blocks[q]
        blocks.update((q, (r, qubits)) for q in qubits)
    for r, qubits in {b[1]: b for b in blocks.values()}.values():  # each block once
        order = _apply_ptm(bufs, order, r, _axes(qubits, n))
    qprobs = _diagonal(bufs[0], order)
    qprobs = qprobs / qprobs.sum()  # the channels preserve trace; drop rounding drift
    plan = [(local[q], clbit) for q, clbit in plan]
    qprobs = _apply_readout_flips(qprobs, [q for q, _ in plan], nm.p_ro)
    num_clbits = c.num_clbits if c.measures else c.num_qubits
    return _qubit_probs_to_outcome(qprobs, plan, num_clbits)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n unitary of the circuit's gates (measures/barriers skipped)."""
    n = c.num_qubits
    if n > 10:
        raise TooManyQubits(f"{n} qubits is too large for a dense unitary")
    u = np.eye(2**n, dtype=complex).reshape((2,) * (2 * n))
    for gate in c.gates:
        u = _apply_matrix(u, gate_unitary(gate), _axes(gate.qubits, n))
    return u.reshape(2**n, 2**n)


# -- shot oracles ------------------------------------------------------------


class DistributionOracle:
    """Samples i.i.d. outcome indices from a fixed distribution via inverse CDF.

    Owns its RNG stream: the same seed and call sequence always reproduce
    the same shots.  Not safe for concurrent use of one instance.
    """

    def __init__(self, dist: OutcomeDistribution, seed: int):
        self.distribution = dist
        self.num_bits = dist.num_bits
        self._cdf = np.cumsum(dist.probs)
        self._cdf[-1] = 1.0
        self._rng = np.random.default_rng(seed)

    def sample(self, batch_size: int) -> np.ndarray:
        if batch_size < 1:
            raise SimulationError(f"batch_size must be >= 1, got {batch_size}")
        return np.searchsorted(self._cdf, self._rng.random(batch_size), side="right")


class ReplayOracle:
    """Replays shots recorded in a counts file, in a seed-shuffled order."""

    def __init__(self, num_bits: int, counts: dict[str, int], seed: int = 0):
        self.num_bits = num_bits
        outcomes = sorted(counts.items())
        for bits, count in outcomes:
            if len(bits) != num_bits or set(bits) - {"0", "1"}:
                raise SimulationError(f"bad bitstring {bits!r} for {num_bits} bits")
            if int(count) < 0:
                raise SimulationError(f"negative count {count} for {bits!r}")
        shots = np.repeat(
            np.array([int(bits, 2) if bits else 0 for bits, _ in outcomes], dtype=np.int64),
            np.array([int(count) for _, count in outcomes], dtype=np.int64),
        )
        np.random.default_rng(seed).shuffle(shots)
        self._shots = shots
        self._pos = 0

    def sample(self, batch_size: int) -> np.ndarray:
        if self._pos + batch_size > len(self._shots):
            raise ReplayExhausted(
                f"requested {batch_size} shots with {len(self._shots) - self._pos} remaining"
            )
        batch = self._shots[self._pos : self._pos + batch_size]
        self._pos += batch_size
        return batch


def make_oracle(c: Circuit, nm: NoiseModel, seed: int) -> DistributionOracle:
    """Shot oracle over the exact noisy distribution of the circuit."""
    return DistributionOracle(noisy_distribution(c, nm), seed)


def counts_from_shots(shots: np.ndarray, num_bits: int) -> dict[str, int]:
    """Counts-file entries: each drawn outcome as a bitstring, in index order."""
    outcomes, counts = np.unique(shots, return_counts=True)
    return {bitstring(int(i), num_bits): int(c) for i, c in zip(outcomes, counts)}


def empirical_distribution(num_bits: int, shots: np.ndarray) -> OutcomeDistribution:
    """Relative frequency of each outcome index among ``shots``."""
    if len(shots) == 0:
        raise SimulationError("cannot form a distribution from zero shots")
    return OutcomeDistribution(num_bits, np.bincount(shots, minlength=2**num_bits) / len(shots))


def write_counts_file(path: str, num_bits: int, counts: dict[str, int]) -> None:
    payload = {"n": num_bits, "counts": {k: counts[k] for k in sorted(counts)}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_counts_file(path: str) -> tuple[int, dict[str, int]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return int(data["n"]), {str(k): int(v) for k, v in data["counts"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulationError(f"bad counts file: {exc}") from None
