"""Noiseless statevector and noisy density-matrix simulation, plus a shot oracle.

Noise model: depolarizing after every gate (p1 on single-qubit gates, p2 on
the qubit set of wider gates) and a per-qubit readout confusion matrix at
measurement.  Distributions live over the classical-bit space, and an
outcome is its index there: bit j of the index is clbit j.  Inside the
pipeline a shot is that integer index, and the oracle returns arrays of them.
Bitstrings appear only at I/O (counts files and reports); they are written
most-significant-clbit first, so clbit 0 is the rightmost character and
``int(text, 2)`` is the index.

Measurements are treated as terminal: the state is evolved through all
unitaries, then read out.  A gate acting on an already-measured qubit is
rejected, which keeps the deferred readout exact.  So is a qubit measured
twice: the readout flips each measured qubit once, and a second
measurement would need a flip of its own.

The noisy simulator works in the Pauli transfer basis.  rho over n active
qubits is the real vector r_P = Tr(P rho) over the 4^n Pauli strings P, and
a gate with its depolarizing noise is the real 4^k x 4^k Pauli transfer
matrix R_ij = Tr(P_i U P_j U†) / 2^k with every row but the identity row
scaled by 1-p (Greenbaum, arXiv:1509.02921).  r takes half the memory of
a complex rho, and every contraction is real.  A call builds the PTM of
each distinct gate (kind and angles) once, all those of one width as one
stacked product; the statevector simulator likewise builds each distinct
unitary once per call.  Consecutive gates whose qubit sets nest are
multiplied into one matrix before they touch r, so single-qubit gates
fold into their neighbouring cx and the three cx of a routed SWAP cost
one contraction; the smaller matrix is lifted onto the larger one's Pauli
digits, and the two multiply as plain matrices.  A block still open after
the last gate folds the same way into the last contraction that held its
qubits, if one contraction did: no later one touches them, so the trailing
single-qubit layer of a circuit costs no pass of its own.  r stores only
the qubits in play: a qubit joins r at its first contraction, as the I = Z = 1
components of |0><0|, and keeps only its I and Z components after its
last, which is all the readout reads.  A stored axis thus has four
entries or two, and r moves between two buffers as wide as the widest r
the circuit needs, one copy per contraction at most.  Contractions on
disjoint qubits commute, so they need not run in circuit order: among
those whose qubits' earlier contractions have run, the next is the one
that leaves r narrowest, and this order replaces circuit order when it
counts at most 0.9 of its flops.  So the widest r of ising:10 routed onto a
line holds 4^7 floats, not 4^10; a circuit whose qubits all stay live,
such as qft on a line, keeps circuit order.  Both simulators evolve only
the active qubits, those a gate or the readout touches, and cap their
number, so a small circuit on a large register or coupling map stays
cheap.  A circuit without measurements reads out every qubit, so all of its
qubits are active; a routed circuit is read out through
``TranspileResult.readout_circuit``, which measures its logical qubits.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

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


# -- state evolution -------------------------------------------------------
#
# A pure state is a (2,)*n tensor whose axis j owns qubit n-1-j, matching
# index bit q = (x >> q) & 1.  A Pauli vector has one real axis per stored
# qubit, indexed 0=I, 1=X, 2=Y, 3=Z, or 0=I, 1=Z where only the I and Z
# components are kept; ``_Step`` records which qubit each axis holds.


@functools.lru_cache(maxsize=None)
def _axis_order(axes: tuple[int, ...], ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that brings ``axes`` to the front, and its inverse."""
    order = axes + tuple(a for a in range(ndim) if a not in axes)
    return order, tuple(int(a) for a in np.argsort(order))


def _apply_matrix(tensor: np.ndarray, m: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract the d^k x d^k matrix ``m`` into ``axes`` of a (d,)*ndim tensor.

    ``axes[0]`` carries the most significant digit of m's row and column
    index; the result keeps the input's axis order.
    """
    order, inverse = _axis_order(axes, tensor.ndim)
    out = m @ tensor.transpose(order).reshape(len(m), -1)
    return out.reshape(tensor.shape).transpose(inverse)


_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@functools.lru_cache(maxsize=None)
def _pauli_basis(k: int) -> tuple[np.ndarray, np.ndarray]:
    """4^k x 4^k matrix whose column j is the row-major vec of Pauli string j,
    and its conjugate transpose.

    Base-4 digit i of j is the Pauli on local qubit i, so the last local
    qubit carries the most significant digit, as in a gate matrix.
    """
    basis = np.ones((1, 1, 1), dtype=complex)  # (string, row, column)
    for _ in range(k):
        dim = 2 * basis.shape[1]
        basis = np.einsum("iab,jcd->ijacbd", _PAULIS, basis).reshape(-1, dim, dim)
    t = basis.reshape(len(basis), -1).T
    t_dag = t.conj().T
    t.flags.writeable = t_dag.flags.writeable = False
    return t, t_dag


def _ptms(us: np.ndarray, p: float) -> np.ndarray:
    """Pauli transfer matrices of rho -> (1-p) U rho U† + p Tr_Q(rho) I/2^k,
    one for each unitary of the (m, 2^k, 2^k) stack ``us``, as one product.

    Entry (i, j) is Tr(P_i U P_j U†) / 2^k.  The channel preserves trace and
    the identity, so the first row and column are exactly e_0, and the
    product leaves r_I unchanged.  Depolarizing keeps the identity component
    and scales every other one by 1-p: it scales every row but the first.
    """
    dim = us.shape[1]
    t, t_dag = _pauli_basis(dim.bit_length() - 1)
    superop = us[:, :, None, :, None] * us.conj()[:, None, :, None, :]
    superop = superop.reshape(len(us), dim * dim, -1)
    r = (t_dag @ superop @ t).real / dim
    r[:, 0, :] = r[:, :, 0] = 0.0
    r[:, 0, 0] = 1.0
    r[:, 1:] *= 1.0 - p
    return r


def _unitaries(gates: list[Gate]) -> dict[tuple, np.ndarray]:
    """Each distinct (kind, params) among ``gates`` and its unitary; most gates repeat."""
    unitaries = {}
    for gate in gates:
        key = (gate.kind, gate.params)
        if key not in unitaries:
            unitaries[key] = gate_unitary(gate)
    return unitaries


@functools.lru_cache(maxsize=None)
def _lift_index(pos: tuple[int, ...], k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Gather arrays that lift a PTM on digits ``pos`` of a k-qubit block to the block.

    Entry (R, C) of the lift is the small PTM's entry at the Pauli digits R
    and C hold on ``pos``, if R and C agree on every other digit, and 0
    otherwise: (index, same), with the lift ``small.take(index) * same``.
    None if ``pos`` is every digit in order, where the lift is the PTM itself.
    """
    if pos == tuple(range(k)):
        return None
    block = np.arange(4**k)
    digits = [(block >> 2 * i) & 3 for i in pos]
    small = sum(d << 2 * m for m, d in enumerate(digits))
    rest = block - sum(d << 2 * i for i, d in zip(pos, digits))
    index = small[:, None] * 4 ** len(pos) + small[None, :]
    same = (rest[:, None] == rest[None, :]).astype(float)
    index.flags.writeable = same.flags.writeable = False
    return index, same


def _lift(small: np.ndarray, pos: tuple[int, ...], k: int) -> np.ndarray:
    """The PTM ``small`` on digits ``pos`` of a k-qubit block, as the block's PTM."""
    lift = _lift_index(pos, k)
    if lift is None:
        return small
    index, same = lift
    return small.take(index) * same


@functools.lru_cache(maxsize=4096)  # pairs of qubit tuples on up to 12 qubits: millions
def _nesting(
    late_q: tuple[int, ...], early_q: tuple[int, ...]
) -> tuple[bool, tuple[int, ...]] | None:
    """How two qubit sets nest: (whether the later one is inside, the inner
    one's digit positions in the outer), or None unless one holds the other."""
    if set(late_q).issubset(early_q):
        return True, tuple(early_q.index(q) for q in late_q)
    if set(late_q).issuperset(early_q):
        return False, tuple(late_q.index(q) for q in early_q)
    return None


def _compose(
    late: np.ndarray, late_q: tuple[int, ...], early: np.ndarray, early_q: tuple[int, ...]
) -> tuple[np.ndarray, tuple[int, ...]] | None:
    """PTM of ``early`` followed by ``late``, and its qubits; None unless one
    qubit set holds the other.

    The smaller matrix is lifted onto the larger one's Pauli digits, as the
    identity on the rest, and the two multiply as plain matrices.
    """
    nesting = _nesting(late_q, early_q)
    if nesting is None:
        return None
    late_inside, pos = nesting
    if late_inside:
        return _lift(late, pos, len(early_q)) @ early, early_q
    return late @ _lift(early, pos, len(late_q)), late_q


class _Step(NamedTuple):
    """One contraction of the stored Pauli vector, laid out by ``_schedule``.

    ``copy`` is None, or (size, shape, perm, target size, target shape): the
    stored vector, seen as ``shape`` and transposed by ``perm``, is copied
    into the spare buffer seen as ``target``; each joining qubit's one-entry
    axis fills its I and Z entries.  Then ``m`` multiplies each (columns,
    post) matrix of the (pre, columns, post) stack ``shape``.  ``order`` and
    ``dims`` are the stored qubits, most significant first, and their entry
    counts after the step.
    """

    copy: tuple | None
    m: np.ndarray
    shape: tuple[int, int, int]
    order: tuple[int, ...]
    dims: tuple[int, ...]


_PICK = {4: slice(None), 2: slice(None, None, 3)}  # an axis's d stored entries among I, X, Y, Z


@functools.lru_cache(maxsize=None)
def _slice_index(
    digits: tuple[int, ...], dout: tuple[int, ...], din: tuple[int, ...]
) -> np.ndarray:
    """Gather array that lays a 4^k x 4^k PTM out in stored order: ``index``
    with ``m.take(index)`` its (rows, columns) matrix.

    Row and column axis j hold the PTM's Pauli digit ``digits[j]`` and keep
    ``dout[j]`` and ``din[j]`` of its entries (all four, or I and Z).
    """
    k = len(digits)
    flat = np.arange(16**k).reshape((4,) * (2 * k))
    picked = tuple(_PICK[d] for d in dout + din)
    index = flat.transpose([*digits, *(k + i for i in digits)])[picked]
    index = np.ascontiguousarray(index.reshape(math.prod(dout), math.prod(din)))
    index.flags.writeable = False
    return index


# A planned order runs only at this share of circuit order's flops or less.
# Timed over the bench families on line, ring and grid maps, no circuit at or
# below it ran slower planned; between it and 1 most ran within noise of
# circuit order, and above 1 several ran slower.
_REORDER_MARGIN = 0.9


def _plan(contractions: list[tuple[np.ndarray, tuple[int, ...]]]) -> list[int]:
    """The order to run ``contractions`` in: a permutation of their indices
    that keeps each qubit's contractions in sequence.

    Contractions on disjoint qubits commute, so any such order is exact.
    Among the ready contractions -- those whose qubits' earlier ones have
    run -- it takes the one that leaves the narrowest vector during its
    step, then the one with the fewest flops (rows times input size), then
    the earliest.  As ``_schedule`` lays a step out, with j of its k qubits
    joining and r retiring, the vector doubles once per joining qubit on the
    way in, and the product has 4^k / 2^r rows and scales it by 2^(j - r).
    These factors depend on the step alone, so a ready contraction's rank
    never changes, and a heap gives the greedy order in one pass.  Greedy is
    myopic, so circuit order stays unless the planned one counts at most
    ``_REORDER_MARGIN`` of its flops.  A circuit whose qubits all stay live
    to the end, such as qft on the linear map, counts nearly the same flops
    either way and keeps circuit order.
    """
    count = len(contractions)
    chain: dict[int, list[int]] = {}  # qubit -> its contractions, in circuit order
    for s, (_, qubits) in enumerate(contractions):
        for q in qubits:
            chain.setdefault(q, []).append(s)
    joins, retires = [0] * count, [0] * count
    after: list[list[int]] = [[] for _ in range(count)]  # the next contraction on each qubit
    waiting = [0] * count  # earlier contractions on the same qubits not yet run
    for seq in chain.values():
        joins[seq[0]] += 1
        retires[seq[-1]] += 1
        for s, t in zip(seq, seq[1:]):
            after[s].append(t)
            waiting[t] += 1
    # log2 of each step's rows, and of its scaling of the vector
    rows = [2 * len(qubits) - r for (_, qubits), r in zip(contractions, retires)]
    scale = [j - r for j, r in zip(joins, retires)]

    def flops(order) -> int:
        size, total = 0, 0  # log2 of the stored vector's size, and the flops so far
        for s in order:
            size += joins[s]
            total += 1 << (size + rows[s])
            size += scale[s]
        return total

    def rank(s: int) -> tuple[int, int, int]:
        return max(joins[s], joins[s] + scale[s]), joins[s] + rows[s], s

    heap = [rank(s) for s in range(count) if not waiting[s]]
    heapq.heapify(heap)
    order = []
    while heap:
        s = heapq.heappop(heap)[2]
        order.append(s)
        for t in after[s]:
            waiting[t] -= 1
            if not waiting[t]:
                heapq.heappush(heap, rank(t))
    circuit = list(range(count))
    return order if flops(order) <= _REORDER_MARGIN * flops(circuit) else circuit


def _schedule(contractions: list[tuple[np.ndarray, tuple[int, ...]]]) -> tuple[list[_Step], int]:
    """Lay out ``contractions`` on a vector that stores only the qubits in play.

    A qubit is stored from its first contraction on.  Before it, it is still
    |0><0|, whose I and Z components are 1 and X and Y 0: it joins as an axis
    of two entries, both a copy of the vector, and the PTM reads only its I
    and Z columns.  At its last contraction the PTM writes only its I and Z
    rows, which are all the readout needs, so from then on its axis keeps two
    entries.  A live axis has four.  Stored axes follow one reference order
    of the qubits, the highest first as in a full vector, and a joining
    qubit takes its place in it; so on a linear map a gate's axes are stored
    next to each other.  Axes stored apart are gathered to the front, and
    the reference order follows.  Each step copies the vector once at most.
    Returns the steps and the widest vector, in floats.  The width follows
    the order the contractions come in, which ``_plan`` chooses: ising:10
    routed onto a line peaks at 4^7 floats in its planned order and at 4^10
    in circuit order.
    """
    last = {q: s for s, (_, qubits) in enumerate(contractions) for q in qubits}
    ref = sorted(last, reverse=True)  # the order stored axes keep; the highest qubit leads
    order: list[int] = []
    dims: list[int] = []
    size = width = 1
    steps = []
    for s, (m, qubits) in enumerate(contractions):
        gate = list(reversed(qubits))  # m's digits, most significant first
        k = len(gate)
        new = [q for q in gate if q not in order]
        stored = [q for q in ref if q in order or q in qubits] if new else order
        pos = [stored.index(q) for q in qubits]
        at = min(pos)
        if max(pos) - at != k - 1:  # the gate's axes lie apart: gather them at the front
            ref = [q for q in ref if q in qubits] + [q for q in ref if q not in qubits]
            stored = [q for q in ref if q in order or q in qubits]
            at = 0
        copy = None
        if stored != order:
            perm = tuple(order.index(q) if q in order else len(order) + new.index(q)
                         for q in stored)
            shape = (*dims, *[1] * len(new))
            dims = [dims[i] if i < len(order) else 2 for i in perm]
            copy = (size, shape, perm, size << len(new), tuple(dims))
            order = stored
            size <<= len(new)
        lead = order[at : at + k]
        din = dims[at : at + k]
        dout = [2 if last[q] == s else 4 for q in lead]
        cols, rows = math.prod(din), math.prod(dout)
        if lead != gate or cols * rows != 16**k:  # m's rows and columns in stored order
            m = m.take(_slice_index(tuple(gate.index(q) for q in lead), tuple(dout), tuple(din)))
        pre = math.prod(dims[:at])
        post = size // (pre * cols)
        if copy or din != dout:  # the layout moved
            dims[at : at + k] = dout
            layout = tuple(order), tuple(dims)
        steps.append(_Step(copy, m, (pre, cols, post), *layout))
        width = max(width, size, pre * rows * post)
        size = pre * rows * post
    return steps, width


def _contract(bufs: list[np.ndarray], step: _Step) -> None:
    """Apply one step to the Pauli vector in ``bufs[0]``, leaving the result there.

    The vector moves to the spare buffer ``bufs[1]`` for the copy, if the
    step has one, and again for the product, which multiplies each (columns,
    post) matrix of the stack from the left.
    """
    if step.copy is not None:
        size, shape, perm, target_size, target = step.copy
        src = bufs[0][:size].reshape(shape).transpose(perm)
        np.copyto(bufs[1][:target_size].reshape(target), src)
        bufs.reverse()
    m, (pre, cols, post) = step.m, step.shape
    src = bufs[0][: pre * cols * post].reshape(pre, cols, post)
    dst = bufs[1][: pre * len(m) * post].reshape(pre, len(m), post)
    if post == 1:  # trailing axes: one product on the right
        np.matmul(src[:, :, 0], m.T, out=dst[:, :, 0])
    else:
        np.matmul(m, src, out=dst)
    bufs.reverse()


def _diagonal(vec: np.ndarray, order: tuple[int, ...], dims: tuple[int, ...], n: int) -> np.ndarray:
    """Diagonal of rho over n qubits from its Pauli vector, stored as ``_Step`` says.

    Tr(|x><x| rho) with |b><b| = (I + (-1)^b Z)/2 per qubit: the I and Z
    slice of the vector, contracted with [[1, 1], [1, -1]]/2 on every axis.
    A qubit not stored is still |0><0|, whose I and Z components are 1: its
    bit reads 0, exactly.
    """
    iz = vec[: math.prod(dims)].reshape(dims)[tuple(slice(None, None, d - 1) for d in dims)]  # I, Z
    qubits = sorted(order, reverse=True)  # axis j of the result holds the j-th highest qubit
    iz = iz.transpose([order.index(q) for q in qubits])
    h = np.array([[0.5, 0.5], [0.5, -0.5]])
    for axis in range(len(qubits)):
        iz = _apply_matrix(iz, h, (axis,))
    out = np.zeros((2,) * n)
    out[tuple(slice(None) if q in order else 0 for q in reversed(range(n)))] = iz
    return out.reshape(-1)


def _active_qubits(c: Circuit, cap: int, simulator: str) -> tuple[dict, list, int]:
    """Each active qubit -- one a gate or the readout touches -- mapped to its
    index among them, the ordered (index, clbit) readout pairs, and the clbit
    count; without measures every qubit q is read into clbit q.

    Raises ``TooManyQubits`` if more than ``cap`` qubits are active, and
    rejects a gate on a measured qubit and a qubit or clbit measured twice.
    """
    measured: set[int] = set()
    written: set[int] = set()
    touched: set[int] = set()
    plan: list[tuple[int, int]] = []
    for op in c.ops:
        if isinstance(op, Measure):
            if op.clbit in written:
                raise SimulationError(f"clbit {op.clbit} measured twice")
            if op.qubit in measured:
                raise SimulationError(f"qubit {op.qubit} measured twice")
            measured.add(op.qubit)
            written.add(op.clbit)
            plan.append((op.qubit, op.clbit))
        elif isinstance(op, Gate):
            for q in op.qubits:
                if q in measured:
                    raise MidCircuitMeasurement(
                        f"gate {op.kind!r} acts on qubit {q} after measurement"
                    )
            touched.update(op.qubits)
    num_clbits = c.num_clbits
    if not plan:
        plan, num_clbits = [(q, q) for q in range(c.num_qubits)], c.num_qubits
    active = sorted(touched.union(q for q, _ in plan))
    if len(active) > cap:
        raise TooManyQubits(f"{len(active)} active qubits exceeds {simulator} cap {cap}")
    local = {q: i for i, q in enumerate(active)}
    return local, [(local[q], clbit) for q, clbit in plan], num_clbits


def _qubit_probs_to_outcome(
    qprobs: np.ndarray, plan: list[tuple[int, int]], num_clbits: int
) -> OutcomeDistribution:
    """Marginalize the qubit-space diagonal onto the clbit space."""
    indices = np.arange(len(qprobs))
    cl_index = np.zeros(len(qprobs), dtype=np.int64)
    for qubit, clbit in plan:
        cl_index |= ((indices >> qubit) & 1) << clbit
    # each outcome sums its qubit outcomes in index order
    return OutcomeDistribution(num_clbits, np.bincount(cl_index, qprobs, 2**num_clbits))


def ideal_distribution(c: Circuit) -> OutcomeDistribution:
    """Noiseless outcome distribution: a statevector over the active qubits."""
    local, plan, num_clbits = _active_qubits(c, STATEVECTOR_MAX_QUBITS, "statevector")
    n = len(local)
    axis = {q: n - 1 - i for q, i in local.items()}  # the ket axis of each active qubit
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    gates = c.gates
    unitaries = _unitaries(gates)
    for gate in gates:
        axes = tuple(map(axis.__getitem__, reversed(gate.qubits)))  # the last qubit is the most significant bit
        psi = _apply_matrix(psi, unitaries[gate.kind, gate.params], axes)
    qprobs = np.abs(psi.reshape(-1)) ** 2
    return _qubit_probs_to_outcome(qprobs, plan, num_clbits)


def _apply_readout_flips(qprobs: np.ndarray, qubits: list[int], p_ro: float) -> np.ndarray:
    """Each of ``qubits`` reads out flipped with probability ``p_ro``.

    Seen as (higher qubits, q, lower qubits), the vector with q flipped is
    that view with its middle axis reversed: a strided view, no gather.
    """
    if p_ro == 0.0:
        return qprobs
    probs = qprobs
    for q in qubits:
        view = probs.reshape(-1, 2, 1 << q)
        probs = ((1.0 - p_ro) * view + p_ro * view[:, ::-1]).reshape(-1)
    return probs


def _blocks(
    gates: list[Gate], local: dict[int, int], nm: NoiseModel
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The circuit's contractions, in order: one (PTM, local qubits) per block.

    PTMs wait in open blocks: a gate's PTM is multiplied onto each open
    block whose qubits hold, or are held by, its own, and every other open
    block it overlaps is emitted first.  So the vector takes one contraction
    per block rather than per gate, and no block spans more qubits than one
    gate.  Every gate on a qubit that the vector has not seen sits in that
    qubit's block, in order, and blocks on disjoint qubits commute, so this
    is exact.  After the last gate, each open block whose qubits were all
    last held by one emitted contraction C is multiplied onto C, one block
    at a time in a fixed order: every contraction after C acts on other
    qubits, so the block commutes past them.  ``_schedule`` then keeps only
    those qubits' I and Z rows at C, and a trailing single-qubit gate costs
    no pass over the vector.  Any other open block is emitted last.
    """
    by_dim: dict[int, dict] = {}  # gate dimension -> {(kind, params): unitary}
    for key, u in _unitaries(gates).items():
        by_dim.setdefault(len(u), {})[key] = u
    ptms: dict[tuple, np.ndarray] = {}  # (kind, params) -> PTM, one stacked build per width
    for dim, group in by_dim.items():
        stack = _ptms(np.array(list(group.values())), nm.p1 if dim == 2 else nm.p2)
        ptms.update(zip(group, stack))
    contractions = []
    held: dict[int, int] = {}  # local qubit -> index of the last contraction that holds it
    blocks: dict[int, tuple] = {}  # local qubit -> (PTM, qubits) of its open block
    for gate in gates:
        qubits = tuple(map(local.__getitem__, gate.qubits))
        r = ptms[gate.kind, gate.params]
        overlapped = {blocks[q][1]: blocks[q] for q in qubits if q in blocks}  # each block once
        for early, early_q in overlapped.values():
            composed = _compose(r, qubits, early, early_q)
            if composed is None:
                held.update(dict.fromkeys(early_q, len(contractions)))
                contractions.append((early, early_q))
            else:
                r, qubits = composed
            for q in early_q:
                del blocks[q]
        block = (r, qubits)
        for q in qubits:
            blocks[q] = block
    for r, qubits in {b[1]: b for b in blocks.values()}.values():  # each block once
        last = {held.get(q) for q in qubits}
        if len(last) == 1 and None not in last:  # contraction s is the last to hold them all
            s = last.pop()
            contractions[s] = _compose(r, qubits, *contractions[s])
        else:
            contractions.append((r, qubits))
    return contractions


def noisy_distribution(c: Circuit, nm: NoiseModel) -> OutcomeDistribution:
    """Exact outcome distribution under depolarizing + readout noise.

    ``_blocks`` builds the contractions, ``_plan`` orders them and
    ``_schedule`` lays them out: a qubit joins the Pauli vector at its first
    contraction and keeps only its I and Z components after its last, and a
    measured qubit no gate touches joins only at readout.  The vector lives
    in two buffers as wide as the widest vector any step holds, at most 4^n
    floats for n active qubits, and nothing else of that size is allocated.
    Contractions run in ``_plan``'s order, narrowest vector first, where
    that counts clearly fewer flops than circuit order: ising:10 on a line
    then holds 4^7 floats at most, not 4^10, while qft on a line, whose
    qubits all stay live, keeps circuit order.
    """
    local, plan, num_clbits = _active_qubits(c, DENSITY_MAX_QUBITS, "density-matrix")
    n = len(local)
    contractions = _blocks(c.gates, local, nm)
    steps, width = _schedule([contractions[s] for s in _plan(contractions)])
    bufs = [np.empty(width), np.empty(width)]
    bufs[0][0] = 1.0  # no qubit stored: the vector is r_I = Tr(rho)
    for step in steps:
        _contract(bufs, step)
    order, dims = (steps[-1].order, steps[-1].dims) if steps else ((), ())
    qprobs = _diagonal(bufs[0], order, dims, n)
    qprobs = qprobs / qprobs.sum()  # the channels preserve trace; drop rounding drift
    qprobs = _apply_readout_flips(qprobs, [q for q, _ in plan], nm.p_ro)
    return _qubit_probs_to_outcome(qprobs, plan, num_clbits)


# -- shot oracle -------------------------------------------------------------


class DistributionOracle:
    """Samples i.i.d. outcome indices from a fixed distribution via inverse CDF.

    Owns its RNG stream: the same seed and call sequence always reproduce
    the same shots.  Not safe for concurrent use of one instance.
    """

    def __init__(self, dist: OutcomeDistribution, seed: int):
        self.num_bits = dist.num_bits
        self._cdf = np.cumsum(dist.probs)
        self._cdf[-1] = 1.0
        self._rng = np.random.default_rng(seed)

    def sample(self, batch_size: int) -> np.ndarray:
        if batch_size < 1:
            raise SimulationError(f"batch_size must be >= 1, got {batch_size}")
        return np.searchsorted(self._cdf, self._rng.random(batch_size), side="right")


def counts_from_shots(shots: np.ndarray, num_bits: int) -> dict[str, int]:
    """Counts-file entries: each drawn outcome as a bitstring, in index order."""
    outcomes, counts = np.unique(shots, return_counts=True)
    return {bitstring(int(i), num_bits): int(c) for i, c in zip(outcomes, counts)}


def empirical_distribution(num_bits: int, shots: np.ndarray) -> OutcomeDistribution:
    """Relative frequency of each outcome index among ``shots``."""
    if len(shots) == 0:
        raise SimulationError("cannot form a distribution from zero shots")
    return OutcomeDistribution(num_bits, np.bincount(shots, minlength=2**num_bits) / len(shots))
