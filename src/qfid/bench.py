"""Deterministic desk-scale benchmark circuit generators.

Eight families: bv, ghz, qft, qpe, clifford, ising, su2, xeb.  Every
generator is a pure function of its BenchSpec, so identical specs always
produce identical circuits.  Readout follows the family: bv measures the
data register (ancilla excluded), qpe measures the counting register, all
others measure every qubit.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import Circuit


class InvalidSpec(ValueError):
    pass


class Field(NamedTuple):
    """A spec field's kind (``"int"``, ``"float"`` or ``"bits"``), default and bounds."""

    kind: str
    default: object = None
    low: float = -math.inf
    high: float = math.inf


def _typed(name: str, field: Field, raw: object, n: int = 0) -> object:
    """``raw``, ``--bench`` text or a JSON value, as a checked ``field`` value.

    Text that reads as an int stays an int, also in a float field, so a
    label shows what was written.
    """
    if field.kind == "bits":
        value = str(raw)
        if len(value) != n - 1 or set(value) - {"0", "1"}:
            raise InvalidSpec(f"{name} must be {n - 1} bits of 0/1, got {raw!r}")
        return value
    value = raw
    if isinstance(raw, str):
        with contextlib.suppress(ValueError):  # int wins where both read it
            value = float(raw)
            value = int(raw)
    whole = field.kind == "int"
    if whole and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int if whole else (int, float)):
        raise InvalidSpec(f"{name} must be {'an integer' if whole else 'a number'}, got {raw!r}")
    if field.kind == "float" and not -sys.float_info.max <= value <= sys.float_info.max:
        raise InvalidSpec(f"{name} must be finite, got {raw!r}")
    if not field.low <= value <= field.high:
        bound = f"in [{field.low}, {field.high}]" if field.high < math.inf else f">= {field.low}"
        raise InvalidSpec(f"{name} must be {bound}, got {value}")
    return value


@dataclass(frozen=True)
class BenchSpec:
    """Built by ``make`` or ``from_raw``, which type and check every field."""

    family: str
    n: int
    seed: int = 0
    extras: tuple[tuple[str, object], ...] = ()

    def extra(self, key: str):
        """The given value of extra ``key``, else its default."""
        return dict(self.extras).get(key, _FAMILIES[self.family][1][key].default)

    @staticmethod
    def make(family: str, n, seed=0, **extras) -> "BenchSpec":
        return BenchSpec.from_raw(family, n, seed, extras)

    @staticmethod
    def from_raw(family: str, n, seed, extras: dict) -> "BenchSpec":
        """A spec from raw values, each ``--bench`` text or a JSON value."""
        if family not in FAMILIES:
            raise InvalidSpec(f"unknown family {family!r}; choose from {FAMILIES}")
        fields = _FAMILIES[family][1]
        n = _typed("n", Field("int", low=2, high=12), n)
        seed = _typed("seed", Field("int", low=0), seed)
        typed = {}
        for key, raw in extras.items():
            if key not in fields:
                raise InvalidSpec(f"{family} has no extra {key!r}; extras: {tuple(fields)}")
            typed[key] = _typed(f"{family} {key}", fields[key], raw, n)
        return BenchSpec(family, n, seed, tuple(sorted(typed.items())))

    def label(self) -> str:
        tail = "".join(f":{k}={v}" for k, v in self.extras)
        return f"{self.family}:{self.n}:{self.seed}{tail}"


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
    phase = spec.extra("phase")
    if phase is None:
        phase = 0.25 if t == 2 else 0.125
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
    depth = spec.extra("depth") or spec.n
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
    steps, coupling, fieldstrength, dt = (spec.extra(k) for k in ("steps", "j", "h", "dt"))
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
    layers = spec.extra("layers")
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
    depth, scale = spec.extra("depth"), spec.extra("scale")
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


# Each family's generator and its extras, in suite order.  An extra whose
# default is None is set by the generator from n.
_FAMILIES = {
    "bv": (_bv, {"secret": Field("bits")}),
    "ghz": (_ghz, {}),
    "qft": (_qft, {}),
    "qpe": (_qpe, {"phase": Field("float")}),  # default 1/8, 1/4 at n = 2
    "clifford": (_clifford, {"depth": Field("int", low=1)}),  # default n
    "ising": (_ising, {"steps": Field("int", 3, low=1), "j": Field("float", 1.0),
                       "h": Field("float", 1.0), "dt": Field("float", 0.1)}),
    "su2": (_su2, {"layers": Field("int", 2, low=1)}),
    "xeb": (_xeb, {"depth": Field("int", 2, low=1), "scale": Field("float", 0.1, low=0, high=1e6)}),
}
FAMILIES = tuple(_FAMILIES)


def generate(spec: BenchSpec) -> Circuit:
    return _FAMILIES[spec.family][0](spec)


def default_suite(include_ten: bool = False) -> list[BenchSpec]:
    """Cross product of the eight families with n in {4, 6, 8} (10 optional)."""
    sizes = [4, 6, 8] + ([10] if include_ten else [])
    return [BenchSpec.make(family, n, seed=1) for family in FAMILIES for n in sizes]

