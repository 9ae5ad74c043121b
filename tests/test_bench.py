"""Benchmark generators: closed forms, determinism, suite shape."""

import hashlib
import json

import numpy as np
import pytest

from qfid.bench import BenchSpec, FAMILIES, InvalidSpec, default_suite, generate
from qfid.circuit import Gate, Measure
from qfid.cli import _load_suite, parse_bench
from qfid.qasm import emit_qasm
from qfid.simulator import ideal_distribution


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        BenchSpec.make("nope", 4)
    with pytest.raises(InvalidSpec):
        BenchSpec.make("ghz", 1)
    with pytest.raises(InvalidSpec):
        BenchSpec.make("ghz", 13)
    with pytest.raises(InvalidSpec):
        generate(BenchSpec.make("bv", 4, secret="10"))  # wrong length


def test_bv_point_mass_on_secret():
    d = ideal_distribution(generate(BenchSpec.make("bv", 4, secret="101")))
    assert d.probs[int("101", 2)] == pytest.approx(1.0, abs=1e-10)
    d2 = ideal_distribution(generate(BenchSpec.make("bv", 5, secret="0110")))
    assert d2.probs[int("0110", 2)] == pytest.approx(1.0, abs=1e-10)


def test_bv_excludes_ancilla_from_readout():
    c = generate(BenchSpec.make("bv", 4, secret="101"))
    assert c.num_qubits == 4
    assert c.num_clbits == 3
    measured = {op.qubit for op in c.ops if isinstance(op, Measure)}
    assert 3 not in measured


def test_bv_seeded_secret_deterministic():
    a = generate(BenchSpec.make("bv", 6, seed=9))
    b = generate(BenchSpec.make("bv", 6, seed=9))
    assert a == b


def test_ghz_closed_form():
    d = ideal_distribution(generate(BenchSpec.make("ghz", 4)))
    assert d.probs[int("0000", 2)] == pytest.approx(0.5, abs=1e-10)
    assert d.probs[int("1111", 2)] == pytest.approx(0.5, abs=1e-10)


def test_qft_uniform_on_zero_input():
    d = ideal_distribution(generate(BenchSpec.make("qft", 4)))
    assert np.allclose(d.probs, 1 / 16, atol=1e-10)


def test_qpe_exact_phase_point_mass():
    d = ideal_distribution(generate(BenchSpec.make("qpe", 4, phase=0.125)))
    assert d.probs[int("0010", 2)] == pytest.approx(1.0, abs=1e-10)  # phase * 16 = 2
    d2 = ideal_distribution(generate(BenchSpec.make("qpe", 4, phase=5 / 16)))
    assert d2.probs[int("0101", 2)] == pytest.approx(1.0, abs=1e-10)
    d3 = ideal_distribution(generate(BenchSpec.make("qpe", 2)))
    assert d3.probs[int("01", 2)] == pytest.approx(1.0, abs=1e-10)  # default 1/4 at n=2


def test_qpe_uses_one_extra_target_qubit():
    c = generate(BenchSpec.make("qpe", 4))
    assert c.num_qubits == 5
    assert c.num_clbits == 4


def test_ising_and_su2_and_clifford_shapes():
    for family in ("ising", "su2", "clifford", "xeb"):
        c = generate(BenchSpec.make(family, 4, seed=2))
        assert c.num_clbits == 4
        assert sum(isinstance(op, Measure) for op in c.ops) == 4
        assert any(isinstance(op, Gate) and op.kind == "cx" for op in c.ops)


def test_determinism_same_spec_same_circuit():
    for family in FAMILIES:
        a = generate(BenchSpec.make(family, 4, seed=7))
        b = generate(BenchSpec.make(family, 4, seed=7))
        assert a == b, family


def test_seed_changes_random_families():
    for family in ("clifford", "su2", "xeb"):
        a = generate(BenchSpec.make(family, 4, seed=1))
        b = generate(BenchSpec.make(family, 4, seed=2))
        assert a != b, family


def test_default_suite_shape():
    suite = default_suite()
    assert len(suite) == 24  # 8 families x 3 sizes
    assert len({(s.family, s.n) for s in suite}) == 24
    assert len(default_suite(include_ten=True)) == 32


def test_default_suite_all_generate_and_normalize():
    for spec in default_suite():
        d = ideal_distribution(generate(spec))
        assert abs(d.probs.sum() - 1.0) < 1e-10, spec.label()


def test_extras_roundtrip_in_label():
    spec = BenchSpec.make("xeb", 4, seed=3, depth=8)
    assert spec.label() == "xeb:4:3:depth=8"
    assert spec.extra("depth") == 8
    assert spec.extra("scale") == 0.1  # not given: the family table's default


@pytest.mark.parametrize("family, n, seed, extras", [
    ("clifford", 4, 0, {"depth": 2.5}),  # whole numbers only, text or JSON
    ("clifford", 4, 0, {"depth": "2.5"}),
    ("ghz", 4.5, 0, {}),
    ("ghz", 4, 1.9, {}),
    ("ghz", True, 0, {}),
    ("ghz", 4, -2, {}),
    ("clifford", 4, 0, {"depth": -3}),
    ("clifford", 4, 0, {"depth": 0}),
    ("xeb", 4, 0, {"depth": 0}),
    ("ising", 4, 0, {"steps": -1}),
    ("su2", 4, 0, {"layers": 0}),
    ("xeb", 4, 0, {"scale": -1}),
    ("qpe", 4, 0, {"phase": "inf"}),
    ("qpe", 4, 0, {"phase": float("nan")}),
    ("qpe", 4, 0, {"phase": "1e400"}),
    ("ising", 4, 0, {"j": "abc"}),
    ("bv", 4, 0, {"secret": "0121"}),
    ("bv", 4, 0, {"secret": "1011"}),
    ("ghz", 4, 0, {"foo": 1}),  # unknown and empty keys
    ("ghz", 4, 0, {"": 3}),
    ("ghz", 4, 0, {"seed": 3}),
    ("xeb", 4, 0, {"steps": 3}),  # another family's extra
    ("xeb", 4, 0, {"scale": 1e308}),  # 2*scale*pi overflows the angle draw
])
def test_make_rejects_bad_fields(family, n, seed, extras):
    with pytest.raises(InvalidSpec):
        BenchSpec.from_raw(family, n, seed, extras)


def test_make_types_raw_values():
    assert BenchSpec.make("ghz", "4", "1") == BenchSpec.make("ghz", 4, 1)
    spec = BenchSpec.make("clifford", 4.0, seed=2.0, depth="3")
    assert (spec.n, spec.seed, spec.extra("depth")) == (4, 2, 3)
    assert all(type(v) is int for v in (spec.n, spec.seed, spec.extra("depth")))
    assert BenchSpec.make("qpe", 4, phase="1").label() == "qpe:4:0:phase=1"
    assert BenchSpec.make("qpe", 4, phase="0.5").extra("phase") == 0.5
    assert BenchSpec.make("xeb", 4, scale=0).extra("scale") == 0


# Labels and sha256 of the emitted QASM of specs with explicit extras, as the
# generators produced them before the spec format moved into bench.py; each
# is read as --bench text and as a suite-file entry with JSON numbers.
_PINNED_EXTRAS = [
    ("bv:4:secret=011", {"family": "bv", "n": 4, "secret": "011"}, "bv:4:0:secret=011",
     "181dc5f0c6b72757efc12fb232793754a0d14a0f0c5c1d4873fa0d75ab924307"),
    ("qpe:4:phase=1", {"family": "qpe", "n": 4, "phase": 1}, "qpe:4:0:phase=1",
     "8e2216a9ed984defc3f642cf72dedbedb23ba6953591ccd6995d547c36ca7f78"),
    ("qpe:4:phase=0.3125", {"family": "qpe", "n": 4, "phase": 0.3125}, "qpe:4:0:phase=0.3125",
     "d577aa5c4b3532bba14605437a075a9a4b8947aea38ce58b658d26b293e62c58"),
    ("clifford:5:2:depth=3", {"family": "clifford", "n": 5, "seed": 2, "depth": 3},
     "clifford:5:2:depth=3",
     "2b73576006da00ee5e5d631cc1bced9f9f24b5d026570a3c257f1809dfcc341c"),
    ("ising:4:steps=2:j=0.5:h=-1:dt=0",
     {"family": "ising", "n": 4, "steps": 2, "j": 0.5, "h": -1, "dt": 0},
     "ising:4:0:dt=0:h=-1:j=0.5:steps=2",
     "02200055e0d396ef24645955e5957c5225f16efd2e25fc87ade9373afde7ef10"),
    ("su2:4:3:layers=1", {"family": "su2", "n": 4, "seed": 3, "layers": 1}, "su2:4:3:layers=1",
     "d28991b60ffd995e05963594a22ca203684c60c362cc80481275dcb3cb7dadb1"),
    ("xeb:4:depth=8:scale=0.9", {"family": "xeb", "n": 4, "depth": 8, "scale": 0.9},
     "xeb:4:0:depth=8:scale=0.9",
     "ea7aa284f3a38592f96a1a75d84bf2d9f2c1032449e20eb4fdcb12f0840b2f76"),
]


@pytest.mark.parametrize("text, entry, label, digest", _PINNED_EXTRAS,
                         ids=[p[0] for p in _PINNED_EXTRAS])
def test_explicit_extras_pinned(text, entry, label, digest, tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([entry]))
    for spec in (parse_bench(text), *_load_suite(f"@{suite}")):
        assert spec.label() == label
        assert hashlib.sha256(emit_qasm(generate(spec)).encode()).hexdigest() == digest
