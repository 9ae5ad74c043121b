"""Deterministic desk-scale benchmark circuit generators.

Eight families: bv, ghz, qft, qpe, clifford, ising, su2, xeb.  Every
generator is a pure function of its BenchSpec, so identical specs always
produce identical circuits.  Readout follows the family: bv measures the
data register (ancilla excluded), qpe measures the counting register, all
others measure every qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import GATE_SIGNATURES, Circuit

FAMILIES = ("bv", "ghz", "qft", "qpe", "clifford", "ising", "su2", "xeb")


class InvalidSpec(ValueError):
    pass


@dataclass(frozen=True)
class BenchSpec:
    family: str
    n: int
    seed: int = 0
    extras: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if not 2 <= self.n <= 12:
            raise InvalidSpec(f"n must be in [2, 12], got {self.n}")

    def extra(self, key: str, default=None):
        for k, v in self.extras:
            if k == key:
                return v
        return default

    @staticmethod
    def make(family: str, n: int, seed: int = 0, **extras) -> "BenchSpec":
        return BenchSpec(family, n, seed, tuple(sorted(extras.items())))

    def label(self) -> str:
        tail = "".join(f":{k}={v}" for k, v in self.extras)
        return f"{self.family}:{self.n}:{self.seed}{tail}"


def _number(spec: BenchSpec, key: str, default, kind: type[int] | type[float]):
    """Extra ``key`` of ``spec`` (``default`` if absent) as an int or float."""
    value = spec.extra(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise InvalidSpec(f"{spec.family} {key} must be {what}, got {value!r}") from None


def _measure_all(c: Circuit) -> None:
    for q in range(c.num_qubits):
        c.measure(q, q)


def _cp(c: Circuit, theta: float, control: int, target: int) -> None:
    """Controlled phase from the supported set: u1/cx/u1/cx/u1."""
    c.add("u1", (control,), (theta / 2.0,))
    c.add("cx", (control, target))
    c.add("u1", (target,), (-theta / 2.0,))
    c.add("cx", (control, target))
    c.add("u1", (target,), (theta / 2.0,))


def _bv(spec: BenchSpec) -> Circuit:
    """Bernstein-Vazirani over n-1 data qubits plus one ancilla.

    The ideal readout is a point mass on the secret string (written
    most-significant-clbit first, matching the distribution text form).
    """
    m = spec.n - 1
    secret = spec.extra("secret")
    if secret is None:
        rng = np.random.default_rng(spec.seed)
        bits = rng.integers(0, 2, size=m)
        if not bits.any():
            bits[0] = 1
        secret = "".join(str(b) for b in bits)
    secret = str(secret)
    if len(secret) != m or set(secret) - {"0", "1"}:
        raise InvalidSpec(f"secret must be {m} bits of 0/1, got {secret!r}")
    c = Circuit(spec.n, m)
    anc = spec.n - 1
    c.add("x", (anc,))
    for q in range(spec.n):
        c.add("h", (q,))
    for i in range(m):
        # clbit i reads data qubit i; text is c_{m-1}..c_0, so char j -> clbit m-1-j
        if secret[m - 1 - i] == "1":
            c.add("cx", (i, anc))
    for q in range(m):
        c.add("h", (q,))
    for i in range(m):
        c.measure(i, i)
    return c


def _ghz(spec: BenchSpec) -> Circuit:
    c = Circuit(spec.n, spec.n)
    c.add("h", (0,))
    for q in range(spec.n - 1):
        c.add("cx", (q, q + 1))
    _measure_all(c)
    return c


def _qft_ladder(c: Circuit, qubits: list[int]) -> None:
    n = len(qubits)
    for i in range(n):
        c.add("h", (qubits[i],))
        for j in range(i + 1, n):
            _cp(c, math.pi / 2 ** (j - i), qubits[j], qubits[i])
    for i in range(n // 2):
        c.add("swap", (qubits[i], qubits[n - 1 - i]))


def _inverse_qft_ladder(c: Circuit, qubits: list[int]) -> None:
    n = len(qubits)
    for i in range(n // 2):
        c.add("swap", (qubits[i], qubits[n - 1 - i]))
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, i, -1):
            _cp(c, -math.pi / 2 ** (j - i), qubits[j], qubits[i])
        c.add("h", (qubits[i],))


def _qft(spec: BenchSpec) -> Circuit:
    c = Circuit(spec.n, spec.n)
    _qft_ladder(c, list(range(spec.n)))
    _measure_all(c)
    return c


def _qpe(spec: BenchSpec) -> Circuit:
    """Phase estimation of u1(2*pi*phase) with n counting qubits.

    With phase * 2^n an integer the readout is a point mass on its n-bit
    binary form.  Default phase is 1/8 (1/4 when n == 2).
    """
    t = spec.n
    phase = _number(spec, "phase", 0.25 if t == 2 else 0.125, float)
    c = Circuit(t + 1, t)
    target = t
    c.add("x", (target,))
    for q in range(t):
        c.add("h", (q,))
    # the ladder treats wire 0 as the most significant bit, so counting
    # qubit j accumulates the phase weight 2^(t-1-j)
    for j in range(t):
        _cp(c, 2.0 * math.pi * phase * (2 ** (t - 1 - j)), j, target)
    _inverse_qft_ladder(c, list(range(t)))
    for q in range(t):
        c.measure(q, t - 1 - q)
    return c


def _clifford(spec: BenchSpec) -> Circuit:
    rng = np.random.default_rng(spec.seed)
    depth = _number(spec, "depth", spec.n, int)
    c = Circuit(spec.n, spec.n)
    for layer in range(depth):
        for q in range(spec.n):
            choice = rng.integers(0, 3)
            if choice == 0:
                c.add("h", (q,))
            elif choice == 1:
                c.add("s", (q,))
        start = layer % 2
        for a in range(start, spec.n - 1, 2):
            if rng.random() < 0.5:
                c.add("cx", (a, a + 1))
    _measure_all(c)
    return c


def _ising(spec: BenchSpec) -> Circuit:
    """First-order Trotterized transverse-field Ising chain."""
    steps = _number(spec, "steps", 3, int)
    coupling = _number(spec, "j", 1.0, float)
    fieldstrength = _number(spec, "h", 1.0, float)
    dt = _number(spec, "dt", 0.1, float)
    c = Circuit(spec.n, spec.n)
    for _ in range(steps):
        for q in range(spec.n - 1):
            # exp(-i J dt Z Z) as cx . rz . cx
            c.add("cx", (q, q + 1))
            c.add("rz", (q + 1,), (2.0 * coupling * dt,))
            c.add("cx", (q, q + 1))
        for q in range(spec.n):
            c.add("rx", (q,), (2.0 * fieldstrength * dt,))
    _measure_all(c)
    return c


def _su2(spec: BenchSpec) -> Circuit:
    """EfficientSU2-style ansatz with seeded angles (no training)."""
    rng = np.random.default_rng(spec.seed)
    layers = _number(spec, "layers", 2, int)
    c = Circuit(spec.n, spec.n)
    for _ in range(layers):
        for q in range(spec.n):
            c.add("ry", (q,), (float(rng.uniform(0.0, 2.0 * math.pi)),))
            c.add("rz", (q,), (float(rng.uniform(0.0, 2.0 * math.pi)),))
        for q in range(spec.n - 1):
            c.add("cx", (q, q + 1))
    for q in range(spec.n):
        c.add("ry", (q,), (float(rng.uniform(0.0, 2.0 * math.pi)),))
        c.add("rz", (q,), (float(rng.uniform(0.0, 2.0 * math.pi)),))
    _measure_all(c)
    return c


def _xeb(spec: BenchSpec) -> Circuit:
    """Random rotation layers with a CX brickwork entangler.

    The rotation scale keeps the ideal output partially concentrated at
    desk sizes, which is what gives the family its qubit-count trend in
    shot usage under the default noise model.
    """
    rng = np.random.default_rng(spec.seed)
    depth = _number(spec, "depth", 2, int)
    scale = _number(spec, "scale", 0.1, float)
    c = Circuit(spec.n, spec.n)
    for layer in range(depth):
        for q in range(spec.n):
            c.add("ry", (q,), (float(rng.uniform(-scale * math.pi, scale * math.pi)),))
            c.add("rz", (q,), (float(rng.uniform(-math.pi, math.pi)),))
        start = layer % 2
        for a in range(start, spec.n - 1, 2):
            c.add("cx", (a, a + 1))
    for q in range(spec.n):
        c.add("ry", (q,), (float(rng.uniform(-scale * math.pi, scale * math.pi)),))
    _measure_all(c)
    return c


_GENERATORS = {
    "bv": _bv,
    "ghz": _ghz,
    "qft": _qft,
    "qpe": _qpe,
    "clifford": _clifford,
    "ising": _ising,
    "su2": _su2,
    "xeb": _xeb,
}


def generate(spec: BenchSpec) -> Circuit:
    return _GENERATORS[spec.family](spec)


def default_suite(include_ten: bool = False) -> list[BenchSpec]:
    """Cross product of the eight families with n in {4, 6, 8} (10 optional)."""
    sizes = [4, 6, 8] + ([10] if include_ten else [])
    return [BenchSpec.make(family, n, seed=1) for family in FAMILIES for n in sizes]


def random_circuit(
    num_qubits: int,
    num_gates: int,
    seed: int,
    measure: bool = False,
    gate_pool: tuple[str, ...] = (
        "h", "x", "y", "z", "s", "t", "sx", "rx", "ry", "rz", "cx", "cz", "swap",
    ),
) -> Circuit:
    """Seeded random circuit for structural fuzzing and property tests."""
    if num_qubits < 1:
        raise InvalidSpec("random circuits need at least one qubit")
    rng = np.random.default_rng(seed)
    c = Circuit(num_qubits, num_qubits if measure else 0)
    for _ in range(num_gates):
        kind = gate_pool[rng.integers(0, len(gate_pool))]
        nq, npar = GATE_SIGNATURES[kind]
        if nq > num_qubits:
            kind, nq, npar = "h", 1, 0
        qubits = tuple(int(q) for q in rng.choice(num_qubits, size=nq, replace=False))
        params = tuple(float(rng.uniform(-math.pi, math.pi)) for _ in range(npar))
        c.add(kind, qubits, params)
    if measure:
        _measure_all(c)
    return c
