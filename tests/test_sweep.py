"""Sweep: every row equals a run made at its own delta, with less work."""

from dataclasses import replace

import pytest

import qfid.report as report
from qfid.bench import BenchSpec, generate
from qfid.estimator import PlanConfig
from qfid.report import csv_row, format_float, run_estimate, sweep_rows
from qfid.simulator import NoiseModel
from qfid.transpile import linear_map

NOISE = NoiseModel(p1=1e-3, p2=1e-2, p_ro=1e-2)


def per_row_sweep(suite, deltas, seeds, coupling_factory, noise, plan_cfg):
    """One full ``run_estimate`` per (spec, seed, delta): the reference path."""
    rows = []
    for spec in suite:
        for seed in seeds:
            for delta in deltas:
                try:
                    circuit = generate(BenchSpec(spec.family, spec.n, seed, spec.extras))
                    record = run_estimate(
                        circuit, coupling_factory(circuit.num_qubits), noise,
                        oracle_seed=seed, plan_cfg=replace(plan_cfg, delta=delta),
                    )
                except Exception as exc:  # noqa: BLE001
                    message = " ".join(f"{type(exc).__name__}: {exc}".splitlines())
                    message = message.replace(",", ";")
                    rows.append(f"{spec.family},{spec.n},{seed},{format_float(delta)},"
                                f",,,,,,,,error:{message},,,,")
                    continue
                rows.append(csv_row(spec.family, spec.n, seed, record.analyze, record))
    return rows


CASES = {
    # deltas out of order and repeated; ghz is the same circuit for every seed,
    # bv is not; seeds repeated
    "success": (["ghz:3", "bv:3"], [0.03, 0.01, 0.02, 0.01], [1, 2, 3, 1],
                PlanConfig()),
    # a shot cap low enough that the tight rows end cap_reached
    "xeb-cap": (["ghz:3", "bv:3"], [0.05, 0.01, 0.2], [1, 2],
                PlanConfig(estimator="xeb", p_max=100, batch_min=10)),
    # 13 active qubits: over the density-matrix cap
    "error": (["qpe:12"], [0.02, 0.01], [1], PlanConfig()),
}


def _suite(names):
    return [BenchSpec.make(family, int(n)) for family, n in (name.split(":") for name in names)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_rows_equal_the_per_row_path(case):
    names, deltas, seeds, cfg = CASES[case]
    suite = _suite(names)
    cfgs = [replace(cfg, delta=delta) for delta in deltas]
    rows = sweep_rows(suite, cfgs, seeds, linear_map, NOISE)
    assert rows == per_row_sweep(suite, deltas, seeds, linear_map, NOISE, cfg)
    assert len(rows) == len(suite) * len(seeds) * len(deltas)
    if case == "xeb-cap":
        assert any(",cap_reached," in row for row in rows)
    if case == "error":
        assert all(",error:TooManyQubits: " in row for row in rows)


def test_unallocatable_shot_request_is_a_memory_error_row():
    # 10**15 float draws are 7.11 PiB: the row names the error and keeps its message
    cfg = PlanConfig(batch_min=10**15, p_max=10**15)
    rows = sweep_rows(_suite(["ghz:3"]), [cfg], [1], linear_map, NOISE)
    assert len(rows) == 1 and ",error:MemoryError: Unable to allocate " in rows[0]


def test_sweep_builds_each_distinct_circuit_once_per_entry(monkeypatch):
    calls = {"transpile": 0, "noisy": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(report, "transpile", spy("transpile", report.transpile))
    monkeypatch.setattr(report, "noisy_distribution", spy("noisy", report.noisy_distribution))

    seeds, cfgs = [1, 2, 3], [PlanConfig(delta=delta) for delta in (0.01, 0.02, 0.03)]

    def built(names):
        calls.update(transpile=0, noisy=0)
        rows = sweep_rows(_suite(names), cfgs, seeds, linear_map, NOISE)
        assert len(rows) == len(names) * len(seeds) * len(cfgs)
        return dict(calls)

    assert built(["ghz:3"]) == {"transpile": 1, "noisy": 1}
    distinct_bv = len({tuple(generate(BenchSpec.make("bv", 3, s)).ops) for s in seeds})
    assert built(["bv:3"]) == {"transpile": distinct_bv, "noisy": distinct_bv}
    # a failed build is kept too: one transpile, one refused simulation
    assert built(["qpe:12"]) == {"transpile": 1, "noisy": 1}
    # the cache lives for one suite entry
    assert built(["ghz:3", "ghz:3"]) == {"transpile": 2, "noisy": 2}
