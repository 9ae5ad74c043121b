"""CLI surface: commands, flags, exit codes, report schemas."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import qfid
from qfid import cli
from qfid.bench import BenchSpec, generate
from qfid.cli import build_parser, main, parse_bench, parse_coupling, parse_noise
from qfid.deformation import DeformationReport
from qfid.estimator import BatchStat, estimate, hellinger_distance
from qfid.report import (
    SWEEP_COLUMNS,
    analyze_circuit,
    build_pipeline,
    error_name,
    format_float,
    run_estimate,
    to_json,
)
from qfid.simulator import DistributionOracle, NoiseModel, TooManyQubits, empirical_distribution
from qfid.spectral import KernelConfig, PropagationSpectrum
from qfid.transpile import linear_map


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_bench_forms():
    spec = parse_bench("ghz:4")
    assert (spec.family, spec.n, spec.seed) == ("ghz", 4, 0)
    spec = parse_bench("xeb:6:3:depth=4")
    assert spec.seed == 3 and spec.extra("depth") == 4
    spec = parse_bench("bv:4:secret=101")
    assert spec.extra("secret") == "101"
    spec = parse_bench("qpe:4:7:phase=1")
    assert spec.seed == 7 and spec.extra("phase") == 1 and type(spec.extra("phase")) is int


def test_parse_noise_forms():
    nm = parse_noise("p1=1e-3,p2=1e-2,ro=1e-2")
    assert (nm.p1, nm.p2, nm.p_ro) == (1e-3, 1e-2, 1e-2)
    assert parse_noise("").is_noiseless


def test_parse_coupling_forms(tmp_path):
    assert parse_coupling("linear", 4).num_physical_qubits == 4
    assert parse_coupling("ring", 5).num_physical_qubits == 5
    assert parse_coupling("grid:2x3", 5).num_physical_qubits == 6
    assert parse_coupling("heavyhex27", 5).num_physical_qubits == 27
    path = tmp_path / "map.json"
    path.write_text('{"n": 3, "edges": [[0,1],[1,2]]}')
    assert parse_coupling(f"@{path}", 3).num_physical_qubits == 3


def test_analyze_ghz(capsys):
    code, out, _ = run(["analyze", "--bench", "ghz:4", "--coupling", "linear"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["transpile"]["swap_count"] == 0
    assert 0 < report["spectrum"]["complexity"] <= 10
    assert report["plan"]["batch_size"] >= 20


def test_analyze_spectrum_keys_leave_out_solver_residual(capsys):
    # default JSON stays byte-stable: PropagationSpectrum.residual is not emitted
    code, out, _ = run(["analyze", "--bench", "qpe:4", "--coupling", "linear"], capsys)
    assert code == 0
    assert set(json.loads(out)["spectrum"]) == {
        "n", "k", "eigenvalues", "complexity", "self_loop", "fanin_quantile", "method", "converged"
    }


def test_report_sections_follow_their_dataclasses_and_are_fresh():
    circuit = generate(BenchSpec.make("ghz", 3))
    record = run_estimate(circuit, linear_map(3), NoiseModel(1e-3, 1e-2, 1e-2), oracle_seed=1)
    data = record.to_dict()

    def names(cls):
        return [f.name for f in fields(cls)]

    assert list(data["spectrum"]) == [k for k in names(PropagationSpectrum) if k != "residual"]
    assert '"residual"' not in to_json(data)
    assert list(data["deformation"]) == names(DeformationReport)
    rows = json.loads(to_json(data))["estimate"]["batches"]
    assert rows and all(list(b) == names(BatchStat) for b in rows)
    # the sections are copies or read-only: editing them leaves the record as it was
    before = to_json(record.to_dict())
    with pytest.raises(ValueError):
        data["estimate"]["batches"].ci[0] = -1.0
    next(iter(data["estimate"]["batches"])).ci = -1.0
    data["estimate"]["batches"][0].ci = -1.0
    data["deformation"]["delta_deg"] = -1.0
    data["deformation"]["raw"]["depth_t"] = -1
    data["spectrum"]["eigenvalues"].append(-1.0)
    assert to_json(record.to_dict()) == before


def test_report_layer_takes_only_what_it_uses():
    # the CLI adds the report's source; run_estimate's one seed is also the
    # transpile seed it records; KernelConfig carries the spectrum's k
    circuit = generate(BenchSpec.make("ghz", 3))
    report, _ = analyze_circuit(circuit, linear_map(3))
    assert "source" not in report.to_dict()
    record = run_estimate(circuit, linear_map(3), NoiseModel(1e-3), oracle_seed=7)
    assert record.to_dict()["transpile"]["seed"] == 7
    report, _ = analyze_circuit(circuit, linear_map(3), kernel_cfg=KernelConfig(k=3))
    assert report.spectrum.k == 3 and len(report.spectrum.eigenvalues) == 3


@pytest.mark.parametrize("reference_shots", [0, 500])
def test_run_estimate_reads_the_oracle_stream_once(reference_shots, monkeypatch):
    # the outcome bias reads the shots the trace kept: run_estimate draws what
    # estimate alone draws, plus the reference
    circuit = generate(BenchSpec.make("ghz", 3))
    coupling, noise = linear_map(3), NoiseModel(1e-3, 1e-2, 1e-2)
    drawn = []
    sample = DistributionOracle.sample

    def counted(self, batch_size):
        drawn.append(batch_size)
        return sample(self, batch_size)

    monkeypatch.setattr(DistributionOracle, "sample", counted)
    pipeline = build_pipeline(circuit, coupling, noise)
    estimate(DistributionOracle(pipeline.noisy, 5), pipeline.ideal, pipeline.analyze.plan)
    alone = sum(drawn)
    drawn.clear()
    record = run_estimate(circuit, coupling, noise, oracle_seed=5, reference_shots=reference_shots)
    assert sum(drawn) == alone + reference_shots
    empirical = empirical_distribution(pipeline.noisy.num_bits, record.trace.outcomes)
    assert record.bias["outcome_hellinger"] == hellinger_distance(empirical, pipeline.noisy)


def test_analyze_qft_forces_swaps(capsys):
    code, out, _ = run(["analyze", "--bench", "qft:4", "--coupling", "linear"], capsys)
    assert code == 0
    assert json.loads(out)["transpile"]["swap_count"] > 0


def test_analyze_barrier_adds_no_depth(tmp_path, capsys):
    # both depths are their DAG's longest path in nodes, and a barrier is no
    # node: the two H's stay parallel, so the logical depth is 2, not 3
    path = tmp_path / "barrier.qasm"
    path.write_text(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
        "h q[0];\nbarrier q[0],q[1];\nh q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
    )
    code, out, _ = run(["analyze", "--qasm", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    raw = report["deformation"]["raw"]
    assert report["circuit"]["depth"] == raw["depth_0"] == raw["longest_0"] + 1 == 2
    assert report["transpile"]["depth"] == raw["depth_t"] == raw["longest_t"] + 1


def test_analyze_bad_qasm_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0; qreg q[2]; h q[9];")
    code, _, err = run(["analyze", "--qasm", str(bad)], capsys)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("noise", ["garbage", "p1=x", "p9=0.1", "p1=1e-3,p1=0.5"])
def test_analyze_bad_noise_exits_1(noise, tmp_path, capsys):
    # analyze draws no shots, but rejects a malformed --noise as estimate does
    out = tmp_path / "out.json"
    code, _, err = run(["analyze", "--bench", "ghz:3", "--noise", noise, "--out", str(out)], capsys)
    assert code == 1
    assert "bad noise" in err
    assert not out.exists()


def test_analyze_layout_error_exit_2(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text('{"n": 2, "edges": [[0,1]]}')
    code, _, err = run(["analyze", "--bench", "ghz:4", "--coupling", f"@{path}"], capsys)
    assert code == 2


_MALFORMED_MAPS = {  # by test id suffix; the not-JSON case's id is the bare command
    "": "nope",
    "fraction": '{"n": 3, "edges": [[0, 1.5], [1, 2]]}',  # int() would read edge (0, 1)
    "negative": '{"n": -1, "edges": []}',
    "string": '{"n": "3", "edges": [[0, 1], [1, 2]]}',
    "bool": '{"n": 3, "edges": [[0, true], [1, 2]]}',
}


@pytest.mark.parametrize("command, text", [
    pytest.param(command, text, id=f"{command}-{name}" if name else command)
    for command in ("analyze", "estimate", "reference")
    for name, text in _MALFORMED_MAPS.items()
])
def test_malformed_map_exit_1(command, text, tmp_path, capsys):
    # a malformed map is a usage error, where one too small is a layout error
    path = tmp_path / "map.json"
    path.write_text(text)
    out = tmp_path / "out"
    code, _, err = run([command, "--bench", "ghz:3", "--coupling", f"@{path}", "--out", str(out)],
                       capsys)
    assert code == 1
    assert "bad coupling map JSON" in err
    assert not out.exists()


def _options(subcommand: str) -> set[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[subcommand]._actions
    return {s for a in actions for s in a.option_strings if s not in ("-h", "--help")}


_CIRCUIT = {"--qasm", "--bench", "--seed"}
_BACKEND = {"--coupling", "--noise", "--out"}
_PLAN = {"--k", "--self-loop", "--fanin-quantile", "--delta", "--alpha", "--pmax",
         "--batch-min", "--estimator"}
_FLAGS = {
    "analyze": _CIRCUIT | _BACKEND | _PLAN | {"--format", "--dot"},
    "estimate": _CIRCUIT | _BACKEND | _PLAN | {"--format", "--reference-shots"},
    "sweep": _BACKEND | _PLAN | {"--suite", "--deltas", "--seeds", "--timing"},
    "reference": _CIRCUIT | _BACKEND | {"--shots"},
    "bench": {"--suite", "--out-dir", "--out"},
}


@pytest.mark.parametrize("subcommand", sorted(_FLAGS))
def test_flag_surface(subcommand):
    # each command takes only the flags it reads; a new flag is pinned here per command
    assert _options(subcommand) == _FLAGS[subcommand]


@pytest.mark.parametrize("argv", [
    ["reference", "--bench", "ghz:3", "--k", "2"],
    ["sweep", "--bench", "ghz:3"],
    ["estimate", "--bench", "ghz:3", "--seed", "x"],
    ["no-such-command"],
], ids=["reference-k", "sweep-bench", "bad-int", "unknown-command"])
def test_usage_error_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def _ghz3_argv(command, tmp_path):
    """``command`` on ghz:3; a sweep runs it as a one-entry suite, at one seed and delta."""
    if command != "sweep":
        return [command, "--bench", "ghz:3"]
    suite = tmp_path / "ghz3.json"
    suite.write_text('[{"family": "ghz", "n": 3}]')
    return ["sweep", "--suite", f"@{suite}", "--seeds", "1", "--deltas", "0.05"]


@pytest.mark.parametrize("command", ["analyze", "estimate", "sweep"])
def test_k_below_1_is_a_usage_error(command, tmp_path, capsys):
    # like --self-loop 0: exit 1 before any work, so a sweep writes no row
    out = tmp_path / "out"
    argv = [*_ghz3_argv(command, tmp_path), "--k", "0", "--out", str(out)]
    code, stdout, err = run(argv, capsys)
    assert code == 1
    assert err == "error: k must be >= 1, got 0\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["analyze", "estimate", "sweep"])
def test_non_finite_self_loop_is_a_usage_error(command, value, tmp_path, capsys):
    # an infinite or NaN self-loop weight would reach the eigensolver as inf/NaN entries
    out = tmp_path / "out"
    argv = [*_ghz3_argv(command, tmp_path), "--self-loop", value, "--out", str(out)]
    code, stdout, err = run(argv, capsys)
    assert code == 1
    assert err == "error: self_loop weight must be finite and > 0\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["estimate", "sweep", "reference"])
def test_repeated_noise_key_is_a_usage_error(command, tmp_path, capsys):
    # as in analyze: the first p1 must not be dropped in silence for the second
    out = tmp_path / "out"
    argv = [*_ghz3_argv(command, tmp_path), "--noise", "p1=1e-3,p1=0.5", "--out", str(out)]
    code, stdout, err = run(argv, capsys)
    assert code == 1
    assert err == "error: bad noise component 'p1=0.5': p1 is given twice\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["analyze", "estimate", "sweep"])
def test_alpha_without_finite_quantile_is_a_usage_error(command, tmp_path, capsys):
    # 1 - alpha/2 rounds to 1.0, where the normal quantile is infinite
    out = tmp_path / "out"
    if command == "sweep":
        argv = ["sweep", "--suite", "default"]
    else:
        argv = [command, "--bench", "ghz:3"]
    code, stdout, err = run([*argv, "--alpha", "1e-17", "--out", str(out)], capsys)
    assert code == 1
    assert err == "error: alpha must exceed 2**-53, got 1e-17\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("spec", [
    "ghz:4:seed=3", "ghz:4:n=3", "ghz:4:family=bv", "clifford:4:depth=abc", "ising:4:j=abc",
    "xeb:4:scale=-1", "clifford:4:-1", "clifford:4:depth=2.5", "clifford:4:depth=-3",
    "su2:4:layers=0", "ising:4:steps=-1", "xeb:4:depth=0", "ghz:4:foo=1", "ghz:4:=3",
    "ghz:4:1:2", "xeb:4:depth=3:5", "qpe:4:phase=nan", "ghz", "ghz:4.5", "xeb:4:scale=1e308",
])
def test_bad_bench_extra_is_a_usage_error(spec, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, err = run(["analyze", "--bench", spec, "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: InvalidSpec: ") and err.count("\n") == 1
    assert stdout == "" and not out.exists()


def test_bad_suite_extra_is_a_usage_error(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text('[{"family": "clifford", "n": 4, "depth": "abc"}]')
    code, stdout, err = run(["bench", "--suite", f"@{suite}"], capsys)
    assert code == 1
    assert err == "error: InvalidSpec: clifford depth must be an integer, got 'abc'\n"
    assert stdout == ""


@pytest.mark.parametrize("command", ["bench", "sweep"])
@pytest.mark.parametrize("entry", [
    {"family": "ghz", "n": 4.5, "seed": 1.9},
    {"family": "ghz", "n": 4, "seed": -2},
    {"family": "clifford", "n": 4, "depth": 2.5},
    {"family": "xeb", "n": 4, "scale": -1},
    {"family": "ghz", "n": 4, "foo": 1},
    {"family": "xeb", "n": 4, "scale": 1e308},
], ids=["fractional-n-seed", "negative-seed", "fractional-depth", "negative-scale", "unknown-key",
        "huge-scale"])
def test_bad_suite_entry_exits_1_before_any_row(command, entry, tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"family": "ghz", "n": 3}, entry]))
    out = tmp_path / "out"
    argv = [command, "--suite", f"@{suite}", "--out", str(out)]
    if command == "sweep":
        argv += ["--seeds", "1", "--deltas", "0.05"]
    code, stdout, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: InvalidSpec: ") and err.count("\n") == 1
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("grid", ["grid:-2x3", "grid:2x0"])
def test_grid_needs_positive_rows_and_cols(grid, capsys):
    code, _, err = run(["analyze", "--bench", "ghz:4", "--coupling", grid], capsys)
    assert code == 1
    assert err == f"error: grid spec must be grid:RxC, got {grid!r}\n"


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    for _ in range(3):
        assert run(["analyze", "--bench", "ghz:3"], capsys)[0] == 0
    assert len(built) <= 1


def test_analyze_keeps_rz_whose_merge_would_overflow(tmp_path, capsys):
    path = tmp_path / "big.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
                    "rz(1e308) q[0];\nrz(1e308) q[0];\n", encoding="utf-8")
    code, out, _ = run(["analyze", "--qasm", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["transpile"]["ops"] == 2


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=["qfid", "sweep"])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_estimate_bv_golden_flow(capsys):
    code, out, _ = run(
        ["estimate", "--bench", "bv:4", "--noise", "p1=1e-3,p2=1e-2,ro=1e-2",
         "--delta", "0.01", "--seed", "7"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["estimate"]["stop_reason"] == "ci_met"
    assert record["estimate"]["shots_used"] < 10_000
    assert 0 <= record["bias"]["fidelity_hellinger"] <= 1
    assert 0 <= record["bias"]["outcome_hellinger"] <= 1


def test_estimate_loose_delta_stops_at_min_batches(capsys):
    code, out, _ = run(
        ["estimate", "--bench", "ghz:3", "--delta", "0.5", "--noise", "p1=1e-3"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["estimate"]["shots_used"] == 2 * record["estimate"]["batch_size"]


def test_estimate_xeb_mode_clamped(capsys):
    code, out, _ = run(
        ["estimate", "--bench", "xeb:4:depth=8:scale=0.9", "--estimator", "xeb",
         "--delta", "0.05", "--seed", "3"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert 0.0 <= record["estimate"]["fhat"] <= 1.05


def test_estimate_reference_shots(capsys):
    code, out, _ = run(
        ["estimate", "--bench", "ghz:3", "--reference-shots", "1000", "--seed", "2"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["bias"]["reference_shots"] == 1000
    assert "outcome_hellinger_ref" in record["bias"]


def test_estimate_deterministic_given_seed(capsys):
    argv = ["estimate", "--bench", "bv:4", "--noise", "p1=1e-3,p2=1e-2,ro=1e-2",
            "--seed", "5"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_ms"), r2.pop("wall_time_ms")
    assert r1 == r2


def test_sweep_deterministic_and_monotone(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"family": "ghz", "n": 3}, {"family": "bv", "n": 3}]))
    argv = ["sweep", "--suite", f"@{suite}", "--deltas", "0.01,0.02,0.03",
            "--seeds", "1,2", "--noise", "p1=1e-3,p2=1e-2,ro=1e-2"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().splitlines()
    assert lines[0] == SWEEP_COLUMNS
    assert len(lines) == 1 + 2 * 2 * 3
    rows = [line.split(",") for line in lines[1:]]
    # per (family, seed): shots_used non-increasing across increasing delta
    by_key = {}
    for row in rows:
        by_key.setdefault((row[0], row[2]), []).append((float(row[3]), int(row[11])))
    for series in by_key.values():
        series.sort()
        shots = [s for _, s in series]
        assert shots == sorted(shots, reverse=True)
    # stop reason consistent with its own columns
    for row in rows:
        delta, ci, reason = float(row[3]), float(row[14]), row[12]
        assert (ci <= delta) == (reason == "ci_met")


def test_sweep_empty_suite_header_only(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text("[]")
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--suite", f"@{suite}", "--out", str(out)]) == 0
    assert out.read_text() == SWEEP_COLUMNS + "\n"


def test_bench_listing_and_export(tmp_path, capsys):
    code, out, _ = run(["bench", "--suite", "default"], capsys)
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 24
    assert {e["family"] for e in entries} == {
        "bv", "ghz", "qft", "qpe", "clifford", "ising", "su2", "xeb",
    }

    out_dir = tmp_path / "qasm"
    suite = tmp_path / "small.json"
    suite.write_text(json.dumps([{"family": "ghz", "n": 3}]))
    code, _, _ = run(
        ["bench", "--suite", f"@{suite}", "--out-dir", str(out_dir),
         "--out", str(tmp_path / "idx.json")],
        capsys,
    )
    assert code == 0
    files = list(out_dir.glob("*.qasm"))
    assert len(files) == 1
    from qfid.qasm import parse_qasm

    assert parse_qasm(files[0].read_text()).num_qubits == 3


def test_reference_counts_file(tmp_path, capsys):
    out = tmp_path / "counts.json"
    code, _, _ = run(
        ["reference", "--bench", "ghz:3", "--shots", "10000", "--seed", "1",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 3
    assert sum(data["counts"].values()) == 10_000


def test_reference_seed_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["reference", "--bench", "ghz:3", "--shots", "500", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dot_export_flag(tmp_path, capsys):
    dot = tmp_path / "dag.dot"
    code, _, _ = run(
        ["analyze", "--bench", "ghz:3", "--dot", str(dot), "--out", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_dot_bytes_pinned(tmp_path, capsys):
    # qft:4 routed on a ring; the DOT is of the logical circuit
    dot = tmp_path / "dag.dot"
    code, _, _ = run(["analyze", "--bench", "qft:4", "--coupling", "ring", "--dot", str(dot),
                      "--out", str(tmp_path / "r.json")], capsys)
    assert code == 0
    digest = "3b3028e341642e21d1e169b8f055145ee0f67eaaf2a245b5ef6727e3c11e0fd4"
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest


def test_estimate_simulator_cap_exit_4(capsys):
    # qpe:12 builds a 13-qubit circuit: fine to analyze, too big to simulate
    code, _, _ = run(["analyze", "--bench", "qpe:12"], capsys)
    assert code == 0
    code, _, err = run(["estimate", "--bench", "qpe:12"], capsys)
    assert code == 4
    assert "TooManyQubits" in err


def test_qubit_measured_twice_exits_4(tmp_path, capsys):
    qasm = tmp_path / "twice.qasm"
    qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[2];\n'
                    "measure q[0] -> c[0];\nmeasure q[0] -> c[1];\n")
    code, _, err = run(["estimate", "--qasm", str(qasm), "--noise", "ro=0.1"], capsys)
    assert code == 4
    assert "SimulationError: qubit 0 measured twice" in err


def test_wide_register_simulates_its_active_qubits(tmp_path, capsys):
    # a compiled circuit declares the device's whole register: GHZ(3) on q[27]
    # is 3 active qubits to both simulators, not 2^27 amplitudes
    ghz3 = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{}];\ncreg c[3];\n'
            "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
            "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\nmeasure q[2] -> c[2];\n")
    wide, compact = tmp_path / "wide.qasm", tmp_path / "compact.qasm"
    wide.write_text(ghz3.format(27))
    compact.write_text(ghz3.format(3))
    # only the touched qubits need a place on the map, so grid:4x4 holds it too
    for coupling in ("heavyhex27", "grid:4x4"):
        code, out, err = run(["estimate", "--qasm", str(wide), "--coupling", coupling], capsys)
        assert code == 0, err
        layout = json.loads(out)["transpile"]["initial_layout"]
        n_phys = 27 if coupling == "heavyhex27" else 16
        assert layout == [q if q < n_phys else -1 for q in range(27)]
        counts = []
        for path in (wide, compact):
            code, out, err = run(["reference", "--qasm", str(path), "--coupling", coupling,
                                  "--shots", "500", "--seed", "3"], capsys)
            assert code == 0, err
            counts.append(json.loads(out))
        assert counts[0] == counts[1]


@pytest.mark.parametrize("argv", [
    ["reference", "--shots", str(10**15)],
    ["estimate", "--reference-shots", str(10**15)],
    ["estimate", "--batch-min", str(10**15), "--pmax", str(10**15)],
], ids=["reference-shots", "estimate-reference-shots", "estimate-batch-min"])
def test_unallocatable_shot_request_exits_4(argv, tmp_path, capsys):
    # 10**15 float draws are 7.11 PiB, more than a 48-bit address space holds:
    # the allocation fails before any memory is touched
    out = tmp_path / "out.json"
    code, stdout, err = run([*argv, "--bench", "ghz:3", "--out", str(out)], capsys)
    assert code == 4
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "MemoryError" in err
    assert err.startswith("error: MemoryError: ")
    assert not out.exists()


def test_error_lines_name_a_public_class():
    class _Private(MemoryError):
        pass

    assert error_name(_Private("too large")) == "MemoryError"
    assert error_name(TooManyQubits("13 active qubits")) == "TooManyQubits"


def test_estimate_on_large_maps_matches_linear(capsys):
    # ghz:4 routes with no SWAPs, so only 4 of the 27 (16) map qubits are simulated
    def estimate(coupling):
        code, out, err = run(["estimate", "--bench", "ghz:4", "--coupling", coupling,
                              "--noise", "p1=1e-3,p2=1e-2,ro=1e-2", "--seed", "7"], capsys)
        assert code == 0, err
        return json.loads(out)

    linear = estimate("linear")
    for coupling in ("heavyhex27", "grid:4x4"):
        report = estimate(coupling)
        assert report["transpile"]["swap_count"] == 0
        assert report["estimate"]["shots_used"] == linear["estimate"]["shots_used"]
        assert abs(report["estimate"]["fhat"] - linear["estimate"]["fhat"]) <= 1e-12
        assert abs(report["bias"]["f_true_exact"] - linear["bias"]["f_true_exact"]) <= 1e-12


def test_sweep_error_row_carries_message(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"family": "qpe", "n": 12}]))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--suite", f"@{suite}", "--coupling", "linear", "--deltas", "0.01",
            "--seeds", "1", "--out", str(out)]
    assert main(argv) == 0
    _, line = out.read_text().strip().splitlines()
    cells = line.split(",")
    assert len(cells) == len(SWEEP_COLUMNS.split(",")) == 17
    assert cells[12].startswith("error:TooManyQubits: ")
    assert "13" in cells[12]


@pytest.mark.parametrize(
    "flags, message",
    [
        *(pytest.param(["--deltas", f"0.01,{bad}"], "delta must be in (0,1)", id=bad)
          for bad in ("1.5", "0", "nan")),
        # a repeated value, compared as parsed, would write duplicate rows
        pytest.param(["--deltas", "0.01,0.02,1e-2"], "--deltas gives 0.01 twice",
                     id="deltas-repeated"),
        pytest.param(["--seeds", "1,2,01"], "--seeds gives 1 twice", id="seeds-repeated"),
        # an empty item is refused, not dropped
        pytest.param(["--deltas", "0.05,,0.1"], "bad sweep axis: --deltas",
                     id="deltas-doubled-comma"),
        pytest.param(["--seeds", "1,"], "bad sweep axis: --seeds", id="seeds-trailing-comma"),
        pytest.param(["--deltas", ""], "bad sweep axis: --deltas", id="deltas-empty"),
        pytest.param(["--seeds", ""], "bad sweep axis: --seeds", id="seeds-empty"),
        # a map is parsed once, before any entry is routed on it
        pytest.param(["--coupling", "bogus"], "unknown coupling", id="coupling-bogus"),
        pytest.param(["--coupling", "grid:0x2"], "grid spec", id="coupling-grid:0x2"),
        pytest.param(["--coupling", "@missing.json"], "missing.json", id="coupling-missing"),
        pytest.param(["--coupling", "@nope.json"], "bad coupling map JSON", id="coupling-not-json"),
        pytest.param(["--coupling", "@far.json"], "outside 3 qubits", id="coupling-edge-range"),
        pytest.param(["--coupling", "@loop.json"], "self-loop", id="coupling-self-loop"),
    ],
)
def test_sweep_bad_delta_exits_1_before_any_row(flags, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nope.json").write_text("nope")
    (tmp_path / "far.json").write_text('{"n": 3, "edges": [[0, 5]]}')
    (tmp_path / "loop.json").write_text('{"n": 3, "edges": [[0, 0]]}')
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"family": "ghz", "n": 3}]))
    out = tmp_path / "sweep.csv"
    code, _, err = run(["sweep", "--suite", f"@{suite}", "--deltas", "0.01", "--seeds", "1",
                        "--out", str(out), *flags], capsys)
    assert code == 1
    assert message in err
    assert not out.exists()


def test_sweep_ignores_delta_flag(tmp_path, capsys):
    # sweep plans from --deltas; --delta, even out of range, changes no byte
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"family": "ghz", "n": 3}]))
    argv = ["sweep", "--suite", f"@{suite}", "--seeds", "1", "--deltas", "0.05"]
    code, plain, _ = run(argv, capsys)
    assert code == 0
    for delta in ("2", "0.2"):
        code, out, err = run([*argv, "--delta", delta], capsys)
        assert (code, err) == (0, "")
        assert out == plain


def test_requires_exactly_one_source(capsys):
    code, _, err = run(["analyze"], capsys)
    assert code == 1
    code, _, err = run(["analyze", "--bench", "ghz:3", "--qasm", "x.qasm"], capsys)
    assert code == 1


def test_format_csv_single_run(capsys):
    code, out, _ = run(
        ["estimate", "--bench", "ghz:3", "--noise", "p1=1e-3", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_COLUMNS
    row = lines[1].split(",")
    assert row[0] == "ghz" and row[1] == "3"
    assert row[12] in ("ci_met", "cap_reached")

    code, out, _ = run(["analyze", "--bench", "ghz:3", "--format", "csv"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[12] == ""  # no estimate columns for analyze


def test_float17_formatting():
    assert format_float(0.01) == "0.01"
    assert float(format_float(1 / 3)) == 1 / 3
    assert format_float(float("nan")) == "NaN"


def test_to_json_round_trips_floats():
    payload = {"a": 1 / 3, "b": [1.0, 2.5e-17], "c": {"d": True, "e": None}}
    parsed = json.loads(to_json(payload))
    assert parsed["a"] == 1 / 3
    assert parsed["b"][1] == 2.5e-17


def test_to_json_escapes_control_characters(tmp_path, capsys):
    # RFC 8259 forbids raw U+0000-U+001F inside a string; a tab in a QASM
    # path used to reach the report as is, and json.loads rejected it
    assert to_json("a\tb\x01\x1f\n\"\\é") == '"a\\tb\\u0001\\u001f\\n\\"\\\\é"'
    folder = tmp_path / "in\tside\x01"
    folder.mkdir()
    path = folder / "g.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n')
    code, out, _ = run(["analyze", "--qasm", str(path)], capsys)
    assert code == 0
    assert "\t" not in out and "\x01" not in out
    assert json.loads(out)["source"]["path"] == str(path)


@pytest.mark.parametrize("argv", [
    ["reference", "--bench", "ghz:3", "--shots", "0"],
    ["reference", "--bench", "ghz:3", "--shots", "-4"],
    ["estimate", "--bench", "ghz:3", "--reference-shots", "-5"],
], ids=["shots-0", "shots-negative", "reference-shots-negative"])
def test_bad_shot_count_exits_1_before_any_work(argv, tmp_path, capsys, monkeypatch):
    import qfid.cli

    def no_work(args):
        raise AssertionError("the circuit was loaded before the shot count was checked")

    monkeypatch.setattr(qfid.cli, "_load_circuit", no_work)
    out = tmp_path / "out.json"
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 1
    assert "shots must be" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--bench", "ghz:3", "--seed", "-3"],
    ["reference", "--bench", "ghz:3", "--seed", "-1"],
    ["sweep", "--suite", "default", "--seeds", "2,-1"],
], ids=["estimate", "reference", "sweep"])
def test_negative_oracle_seed_exits_1_before_any_work(argv, tmp_path, capsys, monkeypatch):
    import qfid.cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(qfid.cli, "_load_circuit", no_work)
    monkeypatch.setattr(qfid.cli, "sweep_csv", no_work)
    out = tmp_path / "out"
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: --seed") and "must be >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--suite", "default10", "--seeds", "1,2,3", "--out", "{missing}/x.csv"],
    ["analyze", "--bench", "ghz:3", "--dot", "{missing}/dag.dot"],
    ["bench", "--out", "{file}/x.json"],
], ids=["sweep-out", "analyze-dot", "bench-out-under-a-file"])
def test_missing_output_directory_exits_1_before_any_work(argv, tmp_path, capsys, monkeypatch):
    import qfid.cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output directory was checked")

    for name in ("_load_circuit", "_load_suite", "sweep_csv"):
        monkeypatch.setattr(qfid.cli, name, no_work)
    (tmp_path / "file").write_text("")
    argv = [a.format(missing=tmp_path / "missing", file=tmp_path / "file") for a in argv]
    code, stdout, err = run(argv, capsys)
    with pytest.raises(OSError) as info:  # the error writing the output would raise
        open(argv[-1], "w")
    assert code == 1
    assert err == f"error: {info.value}\n" and stdout == ""


@pytest.mark.parametrize("content", [
    "",
    '[{"family": "ghz"}]',
    '{"family": "ghz", "n": 3}',
], ids=["not-json", "entry-without-n", "object-not-list"])
def test_malformed_suite_file_exits_1(content, tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(content)
    code, out, err = run(["sweep", "--suite", f"@{suite}"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "suite" in err
    assert "Traceback" not in err


# `qfid estimate` reports, whose outcome bias reads the shots the trace kept:
# sha256 of the text without its wall_time_ms line, and the bias block.  The
# exact-bias digits come from the Pauli-basis simulator; its f_true_exact lies within 1.2e-16 of an extended-precision dense oracle.
_PINNED_ESTIMATES = {
    "bv6-reference-shots": (
        ["--bench", "bv:6", "--reference-shots", "1000"],
        "8ad1906c01a64f463eccc4ebf3f988ed8f8acc55393a0931fd539c9d88befd11",
        {
            "f_true_exact": 0.80397864490652771,
            "fidelity_abs": 0.0056539026384864188,
            "fidelity_hellinger": 0.0050083414717155402,
            "outcome_hellinger": 0.029180537597999569,
            "outcome_hellinger_ref": 0.064029860841713124,
            "reference_shots": 1000,
        },
    ),
    "xeb4-xeb": (
        ["--bench", "xeb:4", "--estimator", "xeb"],
        "c7a3225348eed648ffcf391f7904e2e368df8bfeb627202ee4f29e16e45b9c49",
        {
            "f_true_exact": 0.91350498286532744,
            "fidelity_abs": 0.00022275995023968154,
            "fidelity_hellinger": 0.0002800194719266848,
            "outcome_hellinger": 0.014165088432307769,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED_ESTIMATES))
def test_estimate_json_pinned(case, capsys):
    argv, digest, bias = _PINNED_ESTIMATES[case]
    code, out, _ = run(["estimate", *argv, "--noise", "p1=1e-3,p2=1e-2,ro=1e-2",
                        "--seed", "3"], capsys)
    assert code == 0
    assert json.loads(out)["bias"] == bias
    text = "".join(line for line in out.splitlines(keepends=True)
                   if '"wall_time_ms"' not in line)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_default_sweep_pinned(tmp_path):
    # the whole default suite, byte for byte: 216 rows, all stopped at ci_met.
    # The dense eigensolver's last bits follow OpenBLAS's thread count (the
    # complexity column of the qft rows moves by an ulp or two), so the sweep
    # runs in a child process with one BLAS thread
    out = tmp_path / "sweep.csv"
    paths = [str(Path(qfid.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
           "OPENBLAS_NUM_THREADS": "1"}
    argv = ["sweep", "--suite", "default", "--deltas", "0.01,0.02,0.03",
            "--seeds", "1,2,3", "--noise", "p1=1e-3,p2=1e-2,ro=1e-2", "--out", str(out)]
    code = f"import sys; from qfid.cli import main; sys.exit(main({argv!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().splitlines()[1:]
    stop_reason = SWEEP_COLUMNS.split(",").index("stop_reason")
    assert len(rows) == 216
    assert all(row.split(",")[stop_reason] == "ci_met" for row in rows)
    digest = "9be05cf00e37d8f1988b5de52a684238d1d6db79edd853100745df57f5d9d273"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# `qfid analyze` JSON, byte for byte, for one op on each eigensolver path:
# qft:12 on grid:4x4 is dense (711 nodes), qpe:12 on the line iterative (2247)
_PINNED_ANALYZE = {
    "qft:12 grid:4x4": "57aa13030d65d2241fda15840aa831069cebad65605cb2d2e75c996a418e18a6",
    "qpe:12 linear": "40ba80d1563a39ddc370ac3110fbac967e3e121ad4e395484e87d0727ecc4d71",
}


def _run_child(argv):
    """``qfid`` in a child process with one BLAS thread; returns the process."""
    paths = [str(Path(qfid.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
           "OPENBLAS_NUM_THREADS": "1"}
    code = f"import sys; from qfid.cli import main; sys.exit(main({argv!r}))"
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)


@pytest.mark.parametrize("case", sorted(_PINNED_ANALYZE))
def test_analyze_json_pinned(case):
    spec, coupling = case.split()
    proc = _run_child(["analyze", "--bench", spec, "--coupling", coupling])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == _PINNED_ANALYZE[case]


# written by `qfid reference` when shots were bitstrings end to end
_GHZ3_COUNTS_SEED5 = """{
  "n": 3,
  "counts": {
    "000": 250,
    "001": 6,
    "010": 6,
    "011": 2,
    "100": 5,
    "101": 3,
    "110": 6,
    "111": 222
  }
}
"""


def test_reference_counts_file_bytes_pinned(tmp_path, capsys):
    out = tmp_path / "counts.json"
    code, _, _ = run(["reference", "--bench", "ghz:3", "--noise", "p1=1e-3,p2=1e-2,ro=1e-2",
                      "--seed", "5", "--shots", "500", "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text() == _GHZ3_COUNTS_SEED5


def test_reference_out_file_matches_stdout(tmp_path, capsys):
    argv = ["reference", "--bench", "ghz:3", "--noise", "p1=1e-3,p2=1e-2,ro=1e-2",
            "--seed", "5", "--shots", "500"]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    out = tmp_path / "counts.json"
    assert run([*argv, "--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == stdout.encode()


@pytest.mark.parametrize("noise", ["", "p1=1e-3"])
@pytest.mark.parametrize("coupling, code", [("bogus", 1), ("grid:1x2", 2)])
def test_reference_checks_coupling_with_or_without_noise(noise, coupling, code, capsys):
    # a noiseless run samples the ideal distribution, but routes all the same
    argv = ["reference", "--bench", "ghz:3", "--coupling", coupling, "--shots", "5"]
    assert run([*argv, "--noise", noise], capsys)[0] == code


def test_reference_measureless_qasm_reads_logical_qubits(tmp_path, capsys):
    # x q0; cx q0,q2 routes one SWAP onto a line: every shot still reads 101
    qasm = tmp_path / "far.qasm"
    qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nx q[0];\ncx q[0],q[2];\n')
    code, out, _ = run(["reference", "--qasm", str(qasm), "--noise", "p1=1e-9",
                        "--shots", "50"], capsys)
    assert code == 0
    assert json.loads(out) == {"n": 3, "counts": {"101": 50}}


def _ghz4_sweep_row(tmp_path, capsys, flags):
    suite = tmp_path / "ghz4.json"
    suite.write_text('[{"family": "ghz", "n": 4}]')
    code, out, _ = run(["sweep", "--suite", f"@{suite}", "--seeds", "1", "--deltas", "0.05",
                        *flags], capsys)
    assert code == 0
    return out.splitlines()[1].split(",")


def test_sweep_honours_kernel_flags(tmp_path, capsys):
    complexity = SWEEP_COLUMNS.split(",").index("complexity")
    flags = ["--k", "2", "--self-loop", "0.9"]
    row = _ghz4_sweep_row(tmp_path, capsys, flags)
    code, out, _ = run(["analyze", "--bench", "ghz:4", *flags], capsys)
    assert code == 0
    assert row[complexity] == "1.9398527108385983"
    assert float(row[complexity]) == json.loads(out)["spectrum"]["complexity"]
    assert _ghz4_sweep_row(tmp_path, capsys, [])[complexity] == "5.2400056099009582"


def test_sweep_analysis_columns_match_analyze(tmp_path, capsys):
    # every shot-free column of a sweep row equals the analyze row under the same flags
    flags = ["--k", "3", "--fanin-quantile", "0.5", "--self-loop", "2"]
    row = _ghz4_sweep_row(tmp_path, capsys, flags)
    code, out, _ = run(["analyze", "--bench", "ghz:4", "--format", "csv", "--seed", "4", *flags],
                       capsys)
    assert code == 0
    analyze_row = out.splitlines()[1].split(",")
    assert row[4:11] == analyze_row[4:11]
