"""Simulator: statevector vs kron oracle, noise channels, oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfid.bench import BenchSpec, generate
from qfid.circuit import GATE_SIGNATURES, Circuit, Gate, gate_unitary
from qfid.simulator import (
    DistributionOracle,
    MidCircuitMeasurement,
    NoiseModel,
    OutcomeDistribution,
    SimulationError,
    TooManyQubits,
    counts_from_shots,
    empirical_distribution,
    ideal_distribution,
    noisy_distribution,
)

from helpers import ptm, random_circuit


def kron_unitary(gate: Gate, n: int) -> np.ndarray:
    """Oracle: embed a gate unitary into the full space index by index."""
    u = gate_unitary(gate)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in gate.qubits]
    for col in range(dim):
        local_in = sum(((col >> q) & 1) << j for j, q in enumerate(gate.qubits))
        for local_out in range(u.shape[0]):
            amp = u[local_out, local_in]
            if amp == 0:
                continue
            row = 0
            for j, q in enumerate(gate.qubits):
                row |= ((local_out >> j) & 1) << q
            for q in rest:
                row |= ((col >> q) & 1) << q
            full[row, col] += amp
    return full


def statevector_oracle(c: Circuit) -> np.ndarray:
    psi = np.zeros(2**c.num_qubits, dtype=complex)
    psi[0] = 1.0
    for op in c.ops:
        if isinstance(op, Gate):
            psi = kron_unitary(op, c.num_qubits) @ psi
    return psi


def test_statevector_matches_kron_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        nq = int(rng.integers(1, 5))
        c = random_circuit(nq, int(rng.integers(1, 20)), seed)
        expected = np.abs(statevector_oracle(c)) ** 2
        got = ideal_distribution(c).probs
        assert np.allclose(got, expected, atol=1e-12), seed


def test_h_then_measure():
    c = Circuit(1, 1)
    c.add("h", (0,))
    c.measure(0, 0)
    d = ideal_distribution(c)
    assert np.allclose(d.probs, [0.5, 0.5], atol=1e-12)


def test_ghz3_distribution():
    d = ideal_distribution(generate(BenchSpec.make("ghz", 3)))
    assert d.probs[int("000", 2)] == pytest.approx(0.5, abs=1e-12)
    assert d.probs[int("111", 2)] == pytest.approx(0.5, abs=1e-12)


def test_x_point_mass():
    c = Circuit(1, 1)
    c.add("x", (0,))
    c.measure(0, 0)
    assert ideal_distribution(c).probs[int("1", 2)] == pytest.approx(1.0, abs=1e-12)


def test_readout_order_follows_measure_map():
    # qubit 0 -> clbit 1, qubit 1 -> clbit 0; X on qubit 0 gives text "10"
    c = Circuit(2, 2)
    c.add("x", (0,))
    c.measure(0, 1)
    c.measure(1, 0)
    d = ideal_distribution(c)
    assert d.probs[int("10", 2)] == pytest.approx(1.0)


def test_partial_readout_marginalizes():
    c = Circuit(2, 1)
    c.add("h", (0,))
    c.add("x", (1,))
    c.measure(0, 0)  # qubit 1 unmeasured and traced out
    d = ideal_distribution(c)
    assert d.num_bits == 1
    assert np.allclose(d.probs, [0.5, 0.5], atol=1e-12)


def test_qubit_cap():
    with pytest.raises(TooManyQubits, match="21 active qubits exceeds statevector cap 20"):
        ideal_distribution(Circuit(21))  # no measure: every qubit is read out
    with pytest.raises(TooManyQubits, match="13 active qubits exceeds density-matrix cap 12"):
        noisy_distribution(Circuit(13), NoiseModel())
    c = Circuit(27, 1)  # 21 of 27 qubits active
    for q in range(20):
        c.add("cx", (q, q + 1))
    c.measure(0, 0)
    with pytest.raises(TooManyQubits, match="21 active qubits"):
        ideal_distribution(c)


def test_gate_after_measure_rejected():
    c = Circuit(1, 1)
    c.measure(0, 0)
    c.add("x", (0,))
    with pytest.raises(MidCircuitMeasurement):
        ideal_distribution(c)


def test_qubit_measured_twice_rejected():
    # a readout flip per measurement would give [0.81, 0.09, 0.09, 0.01]; one
    # flip of the qubit copied into both clbits gave [0.82, 0, 0, 0.18]
    c = Circuit(1, 2)
    c.measure(0, 0)
    c.measure(0, 1)
    for simulate in (ideal_distribution, lambda c: noisy_distribution(c, NoiseModel(p_ro=0.1))):
        with pytest.raises(SimulationError, match="qubit 0 measured twice"):
            simulate(c)


def test_noise_model_validation():
    with pytest.raises(SimulationError):
        NoiseModel(p1=1.5)
    with pytest.raises(SimulationError):
        NoiseModel(p_ro=0.7)


def test_noiseless_density_matches_statevector():
    from qfid.bench import default_suite

    specs = [s for s in default_suite() if generate(s).num_qubits <= 8]
    for spec in specs:
        c = generate(spec)
        ideal = ideal_distribution(c)
        noisy = noisy_distribution(c, NoiseModel())
        assert np.abs(ideal.probs - noisy.probs).max() < 1e-10, spec.label()


def test_full_depolarization_gives_uniform():
    c = Circuit(1, 1)
    c.add("x", (0,))
    c.measure(0, 0)
    d = noisy_distribution(c, NoiseModel(p1=1.0))
    assert np.allclose(d.probs, [0.5, 0.5], atol=1e-12)


def test_two_qubit_depolarization():
    c = Circuit(2, 2)
    c.add("cx", (0, 1))
    c.measure(0, 0)
    c.measure(1, 1)
    d = noisy_distribution(c, NoiseModel(p2=1.0))
    assert np.allclose(d.probs, [0.25] * 4, atol=1e-12)


def test_readout_confusion_row():
    c = Circuit(1, 1)
    c.measure(0, 0)
    d = noisy_distribution(c, NoiseModel(p_ro=0.1))
    assert np.allclose(d.probs, [0.9, 0.1], atol=1e-12)


def test_depolarizing_blends_toward_uniform():
    c = Circuit(1, 1)
    c.add("x", (0,))
    c.measure(0, 0)
    d = noisy_distribution(c, NoiseModel(p1=0.2))
    assert np.allclose(d.probs, [0.1, 0.9], atol=1e-12)


def test_hellinger_from_uniform_monotone_in_p1():
    from qfid.estimator import hellinger_distance

    c = Circuit(1, 1)
    c.add("x", (0,))
    c.measure(0, 0)
    uniform = OutcomeDistribution(1, np.array([0.5, 0.5]))
    last = None
    for p1 in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        h = hellinger_distance(noisy_distribution(c, NoiseModel(p1=p1)), uniform)
        if last is not None:
            assert h <= last + 1e-12
        last = h


def test_density_trace_preserved_gate_by_gate():
    # the Pauli vector that noisy_distribution evolves, stepped one gate at a time;
    # it is real, so the rho it stands for is Hermitian by construction
    c = generate(BenchSpec.make("qft", 4))
    from qfid.simulator import _contract, _diagonal, _schedule

    nm = NoiseModel(p1=1e-3, p2=1e-2)
    n = c.num_qubits
    steps, width = _schedule([
        (ptm(gate_unitary(op), nm.p1 if len(op.qubits) == 1 else nm.p2), op.qubits)
        for op in c.gates
    ])
    bufs = [np.zeros(width), np.empty(width)]
    bufs[0][0] = 1.0
    for step in steps:
        _contract(bufs, step)
        diag = _diagonal(bufs[0], step.order, step.dims, n)
        assert abs(bufs[0][0] - 1.0) < 1e-10  # r_I = Tr(rho)
        assert abs(diag.sum() - 1.0) < 1e-10
        assert diag.min() > -1e-12


PAULIS = (
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1.0, -1.0]),
)


def embed(ops_by_qubit: dict, n: int) -> np.ndarray:
    """Full 2^n operator with ops_by_qubit[q] on qubit q; qubit n-1 is the top bit."""
    full = np.eye(1)
    for q in reversed(range(n)):
        full = np.kron(full, ops_by_qubit.get(q, np.eye(2)))
    return full


def dense_noisy_oracle(c: Circuit, nm: NoiseModel) -> np.ndarray:
    """Exact distribution from full 2^n matrices, one gate at a time.

    rho -> (1-p) U rho U† + p Tr_Q(rho) (x) I/2^|Q|, with the depolarizing
    term written as the Pauli twirl (1/4^k) sum_P P (U rho U†) P† over Q.
    """
    n = c.num_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in c.gates:
        u = kron_unitary(gate, n)
        rho = u @ rho @ u.conj().T
        k = len(gate.qubits)
        p = nm.p1 if k == 1 else nm.p2
        twirl = np.zeros_like(rho)
        for paulis in itertools.product(PAULIS, repeat=k):
            pf = embed(dict(zip(gate.qubits, paulis)), n)
            twirl += pf @ rho @ pf.conj().T
        rho = (1.0 - p) * rho + p * twirl / 4**k
    qprobs = np.real(np.diag(rho))
    plan = [(m.qubit, m.clbit) for m in c.measures] or [(q, q) for q in range(n)]
    m = c.num_clbits if c.measures else n
    probs = np.zeros(2**m)
    for x, px in enumerate(qprobs):
        probs[sum(((x >> q) & 1) << b for q, b in plan)] += px
    confusion = np.array([[1.0 - nm.p_ro, nm.p_ro], [nm.p_ro, 1.0 - nm.p_ro]])
    return embed({b: confusion for _, b in plan}, m) @ probs


def random_noisy_circuit(seed: int) -> Circuit:
    """1-5 qubits, a gate mix with ccx, swap and cz; every other one measures a subset."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    pool = [("h", 1, 0), ("sx", 1, 0), ("t", 1, 0), ("rz", 1, 1), ("u", 1, 3), ("cx", 2, 0),
            ("cz", 2, 0), ("swap", 2, 0), ("ccx", 3, 0)]
    pool = [entry for entry in pool if entry[1] <= n]
    measured = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) if seed % 2 else []
    c = Circuit(n, len(measured))
    for _ in range(int(rng.integers(1, 16))):
        kind, width, npar = pool[int(rng.integers(len(pool)))]
        qubits = [int(q) for q in rng.choice(n, size=width, replace=False)]
        c.add(kind, qubits, rng.uniform(-np.pi, np.pi, size=npar))
    for clbit, q in enumerate(measured):
        c.measure(int(q), clbit)
    return c


def test_fused_simulator_matches_dense_oracle():
    kinds = set()
    for seed in range(30):
        c = random_noisy_circuit(seed)
        kinds |= {g.kind for g in c.gates}
        for p in (0.0, 1e-2, 1.0):
            nm = NoiseModel(p1=p, p2=p, p_ro=0.05 if seed % 2 else 0.0)
            got = noisy_distribution(c, nm).probs
            assert np.abs(got - dense_noisy_oracle(c, nm)).max() <= 1e-12, (seed, p)
    assert {"ccx", "swap", "cz"} <= kinds


def windowed_circuit(seed: int) -> Circuit:
    """1-5 qubits, each gated only inside its own window of the gate sequence.

    A window may open late, close early or be empty, so qubits join the Pauli
    vector late, retire early or are never gated; every fifth seed has no
    gates, and odd seeds measure a random subset (idle qubits included)
    while even ones measure nothing and so read out every qubit.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    length = 0 if seed % 5 == 0 else int(rng.integers(4, 20))
    windows = [sorted(int(t) for t in rng.integers(0, length + 1, size=2)) for _ in range(n)]
    pool = [("h", 1, 0), ("ry", 1, 1), ("u", 1, 3), ("cx", 2, 0), ("swap", 2, 0), ("ccx", 3, 0)]
    measured = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) if seed % 2 else []
    c = Circuit(n, len(measured))
    for t in range(length):
        free = [q for q, (lo, hi) in enumerate(windows) if lo <= t < hi]
        fits = [entry for entry in pool if entry[1] <= len(free)]
        if fits:
            kind, width, npar = fits[int(rng.integers(len(fits)))]
            qubits = [int(q) for q in rng.choice(free, size=width, replace=False)]
            c.add(kind, qubits, rng.uniform(-np.pi, np.pi, size=npar))
    for clbit, q in enumerate(measured):
        c.measure(int(q), clbit)
    return c


def test_joining_and_retiring_qubits_match_dense_oracle():
    seen = set()
    for seed in range(60):
        c = windowed_circuit(seed)
        first, last = {}, {}  # qubit -> index of its first and last gate
        for i, g in enumerate(c.gates):
            for q in g.qubits:
                first.setdefault(q, i)
                last[q] = i
        measured = {m.qubit for m in c.measures}
        seen |= {g.kind for g in c.gates}
        if not c.gates:
            seen.add("no gates")
        if not c.measures:
            seen.add("no measure")
        if any(i > 0 for i in first.values()):
            seen.add("joins late")
        if any(i < len(c.gates) - 1 for i in last.values()):
            seen.add("retires early")
        if measured - set(first):
            seen.add("measured, never gated")
        if measured and set(first) - measured:
            seen.add("gated, never measured")
        for p in (0.0, 1e-2, 1.0):
            nm = NoiseModel(p1=p, p2=p, p_ro=0.05 if seed % 2 else 0.0)
            got = noisy_distribution(c, nm).probs
            assert np.abs(got - dense_noisy_oracle(c, nm)).max() <= 1e-12, (seed, p)
    assert seen >= {"h", "ry", "u", "cx", "swap", "ccx", "no gates", "no measure", "joins late",
                    "retires early", "measured, never gated", "gated, never measured"}


def test_idle_qubits_leave_distribution_unchanged():
    def build(n: int, where: tuple[int, ...]) -> Circuit:
        c = Circuit(n, 3)
        c.add("h", (where[0],))
        c.add("cx", (where[0], where[1]))
        c.add("ry", (where[2],), (0.7,))
        c.add("ccx", (where[0], where[2], where[1]))
        c.add("cz", (where[1], where[2]))
        for clbit, q in enumerate(where):
            c.measure(q, clbit)
        return c

    nm = NoiseModel(p1=1e-2, p2=5e-2, p_ro=2e-2)
    compact = noisy_distribution(build(3, (0, 1, 2)), nm)
    padded = noisy_distribution(build(13, (2, 7, 11)), nm)  # 3 of 13 qubits active
    assert np.abs(compact.probs - padded.probs).max() <= 1e-12
    # 3 of 27: over the statevector cap if the declared register were simulated
    compact = ideal_distribution(build(3, (0, 1, 2)))
    assert np.array_equal(ideal_distribution(build(27, (2, 7, 26))).probs, compact.probs)


def test_density_cap_counts_active_qubits():
    with pytest.raises(TooManyQubits):
        noisy_distribution(Circuit(13), NoiseModel())  # no measure: all 13 read out
    c = Circuit(13, 1)
    for q in range(12):
        c.add("cx", (q, q + 1))
    c.measure(0, 0)  # one readout, but gates touch all 13 qubits
    with pytest.raises(TooManyQubits, match="13 active qubits"):
        noisy_distribution(c, NoiseModel())


def test_noisy_probabilities_sum_to_one():
    # the channels preserve trace, so a deep routed circuit must not lose
    # probability to rounding drift: qft's exact success fidelity is the sum
    from qfid.transpile import linear_map, transpile

    c = transpile(generate(BenchSpec.make("qft", 6)), linear_map(6)).circuit_t
    d = noisy_distribution(c, NoiseModel(p1=1e-3, p2=1e-2, p_ro=1e-2))
    assert abs(d.probs.sum() - 1.0) <= 1e-15


def test_oracle_determinism():
    c = generate(BenchSpec.make("ghz", 3))
    noisy = noisy_distribution(c, NoiseModel(p1=1e-3, p2=1e-2, p_ro=1e-2))
    a = DistributionOracle(noisy, seed=11)
    b = DistributionOracle(noisy, seed=11)
    assert np.array_equal(a.sample(50), b.sample(50))
    assert np.array_equal(a.sample(10), b.sample(10))  # streams stay aligned call by call


def test_oracle_stream_does_not_depend_on_batching():
    # estimate draws its shots in chunks of batches, and its trace, the kept
    # shots included, must not depend on the chunking
    c = generate(BenchSpec.make("ghz", 3))
    noisy = noisy_distribution(c, NoiseModel(p1=1e-3, p2=1e-2, p_ro=1e-2))
    batched = DistributionOracle(noisy, seed=4)
    drawn = np.concatenate([batched.sample(size) for size in (1, 7, 20, 33)])
    assert np.array_equal(drawn, DistributionOracle(noisy, seed=4).sample(61))
    rng = np.random.default_rng(0)
    weights = rng.random(8)
    dist = OutcomeDistribution(3, weights / weights.sum())
    whole = DistributionOracle(dist, seed=8).sample(500)
    for _ in range(20):  # random splits of the same 500 shots
        cuts = np.sort(rng.choice(np.arange(1, 500), size=rng.integers(1, 30), replace=False))
        split = DistributionOracle(dist, seed=8)
        parts = [split.sample(int(size)) for size in np.diff([0, *cuts, 500])]
        assert np.array_equal(np.concatenate(parts), whole)


def test_oracle_draws_pinned():
    # the first 20 shots of this oracle when it still returned bitstrings
    c = generate(BenchSpec.make("ghz", 3))
    noisy = noisy_distribution(c, NoiseModel(p1=1e-3, p2=1e-2, p_ro=1e-2))
    oracle = DistributionOracle(noisy, seed=11)
    expected = [0, 3, 7, 0, 0, 7, 0, 0, 7, 7, 0, 5, 7, 0, 0, 7, 7, 6, 7, 7]
    assert np.array_equal(oracle.sample(20), expected)


def test_oracle_frequencies_match_distribution():
    c = generate(BenchSpec.make("ghz", 3))
    oracle = DistributionOracle(ideal_distribution(c), 5)
    shots = oracle.sample(1_000_000)
    counts = counts_from_shots(shots, 3)
    # binomial at p = 0.5, n = 1e6: sd = 5e-4, so 0.002 is a 4-sigma bound
    assert abs(counts["000"] / 1_000_000 - 0.5) < 0.002
    assert abs(counts["111"] / 1_000_000 - 0.5) < 0.002


def test_million_shot_empirical_close_to_exact():
    from qfid.estimator import hellinger_distance

    c = generate(BenchSpec.make("ghz", 4))
    exact = ideal_distribution(c)
    oracle = DistributionOracle(ideal_distribution(c), 17)
    empirical = empirical_distribution(4, oracle.sample(1_000_000))
    assert hellinger_distance(empirical, exact) <= 0.01


def test_empirical_distribution():
    d = empirical_distribution(2, np.array([0, 0, 0, 3]))
    assert d.probs[0] == pytest.approx(0.75)
    assert d.probs[3] == pytest.approx(0.25)


def test_outcome_distribution_validation():
    with pytest.raises(SimulationError):
        OutcomeDistribution(1, np.array([0.7, 0.7]))
    with pytest.raises(SimulationError):
        OutcomeDistribution(2, np.array([1.0, 0.0]))


# -- Pauli transfer matrices ----------------------------------------------------


def explicit_ptm(u: np.ndarray) -> np.ndarray:
    """Tr(P_i U P_j U†) / 2^k over explicit k-qubit Pauli strings.

    Base-4 digit q of a string's index is the Pauli on local qubit q, and
    local qubit k-1 is the top bit, as in a gate matrix.
    """
    k = len(u).bit_length() - 1
    strings = [
        embed({q: PAULIS[(j >> (2 * q)) & 3] for q in range(k)}, k) for j in range(4**k)
    ]
    return np.array([[np.trace(pi @ u @ pj @ u.conj().T).real / 2**k for pj in strings]
                     for pi in strings])


@pytest.mark.parametrize("kind", sorted(GATE_SIGNATURES))
def test_ptm_of_every_gate_kind(kind):
    width, npar = GATE_SIGNATURES[kind]
    params = np.random.default_rng(width + npar).uniform(-np.pi, np.pi, size=npar)
    u = gate_unitary(Gate(kind, tuple(range(width)), tuple(params)))
    expected = explicit_ptm(u)
    for p in (0.0, 0.3):
        r = ptm(u, p)
        assert r.dtype == np.float64
        assert np.array_equal(r[0], np.eye(4**width)[0])  # trace preserved
        scale = np.r_[1.0, np.full(4**width - 1, 1.0 - p)][:, None]
        assert np.abs(r - scale * expected).max() <= 1e-13, p


@pytest.mark.parametrize("width", [1, 2, 3])
def test_stacked_ptms_of_every_gate_kind(width):
    # one stacked build over every kind of this width, each at two angle draws
    from qfid.simulator import _ptms

    rng = np.random.default_rng(width)
    p = 1e-3 if width == 1 else 1e-2  # the default p1 and p2
    gates = [Gate(kind, tuple(range(width)), tuple(rng.uniform(-np.pi, np.pi, size=npar)))
             for kind, (w, npar) in sorted(GATE_SIGNATURES.items()) if w == width
             for _ in range(2)]
    stack = _ptms(np.array([gate_unitary(g) for g in gates]), p)
    assert stack.shape == (len(gates), 4**width, 4**width)
    scale = np.r_[1.0, np.full(4**width - 1, 1.0 - p)][:, None]
    for gate, r in zip(gates, stack):
        assert np.abs(r - scale * explicit_ptm(gate_unitary(gate))).max() <= 1e-15, gate.kind


@pytest.mark.parametrize("spec", ["qft:6", "su2:6", "qpe:6"])  # default-suite entries
def test_blocks_from_stacked_ptms_match_per_gate_builds(monkeypatch, spec):
    # a stacked build gives every PTM bit for bit as a build of that gate alone
    import qfid.simulator as simulator
    from qfid.transpile import linear_map, transpile

    family, n = spec.split(":")
    logical = generate(BenchSpec.make(family, int(n)))
    c = transpile(logical, linear_map(logical.num_qubits)).readout_circuit()
    local = {q: q for q in range(c.num_qubits)}
    nm = NoiseModel(p1=1e-3, p2=1e-2)
    stacked = simulator._blocks(c.gates, local, nm)
    stack_build = simulator._ptms
    monkeypatch.setattr(simulator, "_ptms",
                        lambda us, p: np.array([stack_build(u[None], p)[0] for u in us]))
    per_gate = simulator._blocks(c.gates, local, nm)
    assert len(stacked) == len(per_gate) > 1
    for (a, a_q), (b, b_q) in zip(stacked, per_gate):
        assert a_q == b_q
        assert np.array_equal(a, b)


def lift_reference(small: np.ndarray, pos: tuple[int, ...], k: int) -> np.ndarray:
    """``small`` on digits ``pos`` of a k-qubit block: a kron with the identity,
    then a permutation of the Pauli digits."""
    j = len(pos)
    full = np.kron(np.eye(4 ** (k - j)), small)  # small on digits 0..j-1, identity above
    digit_of = list(pos) + [d for d in range(k) if d not in pos]  # full digit -> block digit
    source = [digit_of.index(d) for d in range(k)]  # block digit -> full digit
    axes = [k - 1 - source[k - 1 - a] for a in range(k)]  # axis a holds digit k-1-a
    t = full.reshape((4,) * (2 * k)).transpose(axes + [k + a for a in axes])
    return t.reshape(4**k, 4**k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_compose_matches_kron_lift(k):
    # the lift holds the small matrix's own entries and exact zeros, and the
    # product is the same matmul, so the two agree bit for bit
    from qfid.simulator import _compose

    rng = np.random.default_rng(k)
    block_q = (5, 2, 7)[:k]
    block = rng.standard_normal((4**k, 4**k))
    for j in range(1, k + 1):
        for pos in itertools.permutations(range(k), j):  # reversed pairs too
            small_q = tuple(block_q[p] for p in pos)
            small = rng.standard_normal((4**j, 4**j))
            lifted = lift_reference(small, pos, k)
            r, qubits = _compose(small, small_q, block, block_q)  # small applied after
            assert qubits == block_q
            assert np.array_equal(r, lifted @ block), pos
            if j < k:  # small applied before; equal sets always lift the later one
                r, qubits = _compose(block, block_q, small, small_q)
                assert qubits == block_q
                assert np.array_equal(r, block @ lifted), pos
    if k > 1:  # overlapping sets that do not nest stay apart
        assert _compose(block, block_q, block, block_q[1:] + (9,)) is None


def test_lift_reference_places_one_qubit_ptms_by_digit():
    # a 1q PTM onto each digit of a 3-qubit block is I(x)I(x)A, I(x)A(x)I, A(x)I(x)I
    a = np.arange(16.0).reshape(4, 4)
    eye = np.eye(4)
    expected = [np.kron(eye, np.kron(eye, a)), np.kron(eye, np.kron(a, eye)),
                np.kron(a, np.kron(eye, eye))]
    for digit in range(3):
        assert np.array_equal(lift_reference(a, (digit,), 3), expected[digit])


def _counting_contractions(monkeypatch):
    import qfid.simulator as simulator

    calls = []
    original = simulator._contract

    def counted(bufs, step):
        calls.append(step)
        return original(bufs, step)

    monkeypatch.setattr(simulator, "_contract", counted)
    return calls


def _routed_swap_circuit() -> Circuit:
    from qfid.transpile import linear_map, transpile

    c = Circuit(3, 2)
    c.add("ry", (0,), (0.4,))
    c.add("cx", (0, 2))
    c.add("h", (2,))
    c.measure(0, 0)
    c.measure(2, 1)
    tr = transpile(c, linear_map(3))
    assert tr.swap_count == 1
    return tr.circuit_t


NESTED = {
    # single-qubit gates before and after a cx fold into it
    "1q-into-cx": ([("h", (0,)), ("t", (1,)), ("cx", (0, 1)), ("sx", (1,)),
                    ("rz", (0,), (0.3,))], 1),
    # a cx before and after a ccx fold into it, and the ccx into the last cx
    "cx-into-ccx": ([("h", (2,)), ("cx", (2, 0)), ("ccx", (0, 1, 2)), ("cx", (1, 2)),
                     ("u", (0,), (0.1, 0.2, 0.3))], 1),
}


@pytest.mark.parametrize("case", sorted(NESTED) + ["routed-swap"])
def test_nested_blocks_match_dense_oracle(case, monkeypatch):
    if case == "routed-swap":
        # the swap's three cx and the gates around them make one block
        c, contractions = _routed_swap_circuit(), 2
    else:
        gates, contractions = NESTED[case]
        c = Circuit(3)
        for kind, qubits, *params in gates:
            c.add(kind, qubits, *params)
    calls = _counting_contractions(monkeypatch)
    for p in (1e-2, 0.3):
        nm = NoiseModel(p1=p / 2, p2=p, p_ro=0.02)
        calls.clear()
        got = noisy_distribution(c, nm).probs
        assert np.abs(got - dense_noisy_oracle(c, nm)).max() <= 1e-12, (case, p)
        assert len(calls) == contractions


def test_staircase_stores_a_fraction_of_the_pauli_vector(monkeypatch):
    # between contractions a cx staircase keeps one qubit live: the others
    # have not joined yet or keep only their I and Z components
    import tracemalloc

    n = 10
    c = Circuit(n, n)
    c.add("h", (0,))
    for q in range(n - 1):
        c.add("cx", (q, q + 1))
    for q in range(n):
        c.measure(q, q)
    nm = NoiseModel(p1=1e-3, p2=1e-2, p_ro=1e-2)
    steps = _counting_contractions(monkeypatch)
    tracemalloc.start()
    try:
        noisy_distribution(c, nm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    widest = max(pre * max(len(step.m), cols) * post for step in steps
                 for pre, cols, post in [step.shape])
    assert widest == 4 * 2 ** (n - 1)
    touched = sum(pre * (len(step.m) + cols) * post for step in steps
                  for pre, cols, post in [step.shape])  # read plus written
    assert touched <= 0.01 * len(steps) * 4**n
    # two buffers of the widest vector, and the readout's arrays of 2^n outcomes
    assert peak <= 2.25 * widest * 8 + 16 * 2**n * 8


def test_noisy_peak_memory_is_two_pauli_vectors():
    import tracemalloc

    c = Circuit(10, 10)
    for q in range(10):
        c.add("h", (q,))
    for q in range(9):
        c.add("cx", (q, q + 1))
        c.add("rz", (q + 1,), (0.2 * q,))
    c.add("cx", (9, 0))  # axes far apart: one contraction goes through the copy
    for q in range(10):
        c.measure(q, q)
    nm = NoiseModel(p1=1e-3, p2=1e-2, p_ro=1e-2)

    def peak_bytes(c: Circuit) -> int:
        tracemalloc.start()
        try:
            noisy_distribution(c, nm)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(c) <= 2.25 * 4**10 * 8
    # ising:10, planned: two buffers of its widest vector, 4^7 floats where
    # circuit order holds 4^10, and the readout's arrays of 2^10 outcomes
    assert peak_bytes(_linear("ising:10")) <= 2.25 * 4**7 * 8 + 16 * 2**10 * 8


# -- trailing blocks ------------------------------------------------------------
#
# At the end of the gates each open block folds into the last contraction
# that held all of its qubits, if one did.  Each case lists its gates on
# local labels 0..k-1 and the qubit sets of the contractions ``_blocks``
# emits for them alone.
TRAILING = {
    # ry(0) comes after (0, 1) was emitted, and folds into it
    "1q-after-last-2q": ([("cx", (0, 1)), ("cx", (1, 2)), ("ry", (0,), (0.7,))],
                         [(0, 1), (1, 2)]),
    # h(0) folds into (0, 1); u(1) joins the open (1, 2), emitted apart: no contraction held 2
    "1q-on-both-of-a-cx": ([("cx", (0, 1)), ("cx", (1, 2)), ("h", (0,)),
                            ("u", (1,), (0.1, 0.2, 0.3))], [(0, 1), (1, 2)]),
    # two 1q blocks fold into one ccx, in a fixed order
    "1q-on-two-of-a-ccx": ([("ccx", (0, 1, 2)), ("cx", (2, 3)), ("h", (0,)), ("t", (1,))],
                           [(0, 1, 2), (2, 3)]),
    # a trailing 2q block nested in the ccx that last held both its qubits
    "nested-2q": ([("ccx", (0, 1, 2)), ("cx", (2, 3)), ("cz", (1, 0))],
                  [(0, 1, 2), (2, 3)]),
    # no contraction ever holds qubit 0: its block is emitted alone
    "only-1q": ([("h", (0,)), ("rz", (0,), (0.3,))], [(0,)]),
    # 0 last met (0, 1) and 2 last met (1, 2): the (0, 2) block must not fold
    "met-apart": ([("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))],
                  [(0, 1), (1, 2), (0, 2)]),
}
_ONE_QUBIT = [("h", 0), ("sx", 0), ("t", 0), ("rz", 1), ("ry", 1), ("u", 3)]  # (kind, angles)
_BODY = [(kind, 1, npar) for kind, npar in _ONE_QUBIT] + [
    ("cx", 2, 0), ("cz", 2, 0), ("swap", 2, 0), ("ccx", 3, 0)]  # (kind, width, angles)


def _contractions(c: Circuit, nm: NoiseModel) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    from qfid.simulator import _blocks

    return _blocks(c.gates, {q: q for q in range(c.num_qubits)}, nm)


def _refolds_a_held_qubit(contractions) -> bool:
    """Whether a lone 1q contraction acts on a qubit an earlier contraction holds."""
    held = set()
    for _, qubits in contractions:
        if len(qubits) == 1 and qubits[0] in held:
            return True
        held.update(qubits)
    return False


@st.composite
def trailing_circuits(draw) -> Circuit:
    """1-5 qubits: a random body, one ``TRAILING`` case on a random placement,
    then a random layer of 1q gates; every other draw measures a subset."""
    case = draw(st.sampled_from(sorted(TRAILING)))
    gates, _ = TRAILING[case]
    need = 1 + max(q for _, qubits, *_ in gates for q in qubits)
    n = draw(st.integers(need, 5))
    angle = st.floats(-np.pi, np.pi)
    body = []
    for _ in range(draw(st.integers(0, 6))):
        kind, width, npar = draw(st.sampled_from([g for g in _BODY if g[1] <= n]))
        qubits = draw(st.permutations(range(n)))[:width]
        body.append((kind, qubits, [draw(angle) for _ in range(npar)]))
    place = draw(st.permutations(range(n)))
    case_gates = [(kind, [place[q] for q in qubits], *params) for kind, qubits, *params in gates]
    layer = []
    for q in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
        kind, npar = draw(st.sampled_from(_ONE_QUBIT))
        layer.append((kind, [q], [draw(angle) for _ in range(npar)]))
    measured = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    c = Circuit(n, len(measured))
    for kind, qubits, *params in body + case_gates + layer:
        c.add(kind, qubits, *params)
    for clbit, q in enumerate(measured):
        c.measure(q, clbit)
    return c


# the ci-deep profile (tests/conftest.py) raises the example count
@settings(deadline=None)
@given(trailing_circuits())
def test_trailing_fold_matches_dense_oracle(c):
    for p in (0.0, 1e-2, 1.0):
        nm = NoiseModel(p1=p, p2=p, p_ro=0.05 if c.measures else 0.0)
        got = noisy_distribution(c, nm).probs
        assert np.abs(got - dense_noisy_oracle(c, nm)).max() <= 1e-12, p
    assert not _refolds_a_held_qubit(_contractions(c, NoiseModel()))


@pytest.mark.parametrize("case", sorted(TRAILING))
def test_trailing_blocks_fold_where_their_qubits_last_met(case):
    gates, expected = TRAILING[case]
    c = Circuit(1 + max(q for _, qubits, *_ in gates for q in qubits))
    for kind, qubits, *params in gates:
        c.add(kind, qubits, *params)
    nm = NoiseModel(p1=1e-2, p2=5e-2, p_ro=0.02)
    assert [qubits for _, qubits in _contractions(c, nm)] == expected
    assert np.abs(noisy_distribution(c, nm).probs - dense_noisy_oracle(c, nm)).max() <= 1e-12


@pytest.mark.parametrize("spec, contractions", [("ising:10", 27), ("su2:8", 14), ("bv:10", 15),
                                                 ("qft:8", 106)])
def test_contraction_counts_on_the_linear_map(spec, contractions):
    # before trailing blocks folded: ising:10 35, su2:8 20, bv:10 17, qft:8 106
    from qfid.transpile import linear_map, transpile

    family, n = spec.split(":")
    logical = generate(BenchSpec.make(family, int(n)))
    c = transpile(logical, linear_map(logical.num_qubits)).readout_circuit()
    blocks = _contractions(c, NoiseModel(p1=1e-3, p2=1e-2))
    assert len(blocks) == contractions
    assert not _refolds_a_held_qubit(blocks)


# -- contraction order ---------------------------------------------------------


def _linear(spec: str) -> Circuit:
    """A bench circuit routed onto the linear map, read out on its logical qubits."""
    from qfid.transpile import linear_map, transpile

    family, n = spec.split(":")
    logical = generate(BenchSpec.make(family, int(n)))
    return transpile(logical, linear_map(logical.num_qubits)).readout_circuit()


@st.composite
def mapped_circuits(draw) -> Circuit:
    """1-10 qubits whose two-qubit gates lie on the edges of a line, a ring or
    a two-row grid, then measures of a random subset, possibly empty."""
    from qfid.transpile import grid_map, linear_map, ring_map

    n = draw(st.integers(1, 10))
    cmap = draw(st.sampled_from([linear_map(n), ring_map(n), grid_map(2, (n + 1) // 2)]))
    edges = sorted(e for e in cmap.edges if max(e) < n)
    angle = st.floats(-np.pi, np.pi)
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        if edges and draw(st.booleans()):
            kind = draw(st.sampled_from(["cx", "cz", "swap"]))
            gates.append((kind, draw(st.permutations(draw(st.sampled_from(edges)))), []))
        else:
            kind, npar = draw(st.sampled_from(_ONE_QUBIT))
            gates.append((kind, [draw(st.integers(0, n - 1))], [draw(angle) for _ in range(npar)]))
    measured = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    c = Circuit(n, len(measured))
    for kind, qubits, params in gates:
        c.add(kind, qubits, params)
    for clbit, q in enumerate(measured):
        c.measure(q, clbit)
    return c


# the ci-deep profile (tests/conftest.py) raises the example count
@settings(deadline=None)
@given(mapped_circuits())
def test_planned_order_matches_circuit_order(c):
    # the greedy order, taken whatever its flops, against circuit order and,
    # where it fits, the dense oracle
    from unittest import mock

    import qfid.simulator as simulator

    for p in (0.0, 1e-2, 1.0):
        nm = NoiseModel(p1=p, p2=p, p_ro=0.05 if c.measures else 0.0)
        with mock.patch.object(simulator, "_REORDER_MARGIN", float("inf")):
            planned = noisy_distribution(c, nm).probs
        with mock.patch.object(simulator, "_plan", lambda cs: list(range(len(cs)))):
            in_order = noisy_distribution(c, nm).probs
        assert np.abs(planned - in_order).max() <= 1e-12, p
        if c.num_qubits <= 5:
            assert np.abs(planned - dense_noisy_oracle(c, nm)).max() <= 1e-12, p
    contractions = _contractions(c, NoiseModel(p1=1e-2, p2=1e-2))
    with mock.patch.object(simulator, "_REORDER_MARGIN", float("inf")):
        order = simulator._plan(contractions)
    assert sorted(order) == list(range(len(contractions)))
    for q in range(c.num_qubits):
        on_q = [s for s in order if q in contractions[s][1]]
        assert on_q == sorted(on_q), q


@pytest.mark.parametrize("spec, in_order, planned", [
    ("ising:10", 4**10, 16_384),
    ("su2:8", 16_384, 2_048),
    ("bv:10", 4_096, 4_096),  # greedy counts 18.5x the flops: circuit order stays
    ("qft:8", 65_536, 65_536),  # every qubit stays live: circuit order stays
    ("ising:12", 4**12, 65_536),  # laid out only: nothing is allocated
])
def test_planned_width_on_the_linear_map(spec, in_order, planned):
    from qfid.simulator import _plan, _schedule

    contractions = _contractions(_linear(spec), NoiseModel(p1=1e-3, p2=1e-2))
    order = _plan(contractions)
    assert (order == list(range(len(contractions)))) == (in_order == planned)
    assert _schedule(contractions)[1] == in_order
    assert _schedule([contractions[s] for s in order])[1] == planned
