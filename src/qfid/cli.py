"""Command-line surface: analyze | estimate | sweep | reference.

Exit codes: 0 success, 1 parse or usage error, 2 transpile/layout error,
3 numeric (graph/spectral) error, 4 oracle or estimation error, including
a shot request too large to allocate.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

from .bench import BenchSpec, InvalidSpec, default_suite, generate
from .circuit import CircuitError
from .dag import DagError, build_dag, depth, to_dot
from .deformation import DeformationError
from .estimator import EstimationError, PlanConfig
from .qasm import QasmError, emit_qasm, parse_qasm
from .report import (
    SWEEP_COLUMNS,
    analyze_circuit,
    csv_row,
    error_name,
    run_estimate,
    sweep_csv,
    to_json,
)
from .simulator import (
    DistributionOracle,
    NoiseModel,
    SimulationError,
    counts_from_shots,
    ideal_distribution,
    noisy_distribution,
)
from .spectral import KernelConfig, SpectralError
from .transpile import (
    CouplingMap,
    TranspileError,
    coupling_from_json,
    grid_map,
    heavy_hex_27,
    linear_map,
    ring_map,
    transpile,
)

EXIT_PARSE = 1
EXIT_TRANSPILE = 2
EXIT_NUMERIC = 3
EXIT_ORACLE = 4


class CliError(ValueError):
    def __init__(self, message: str, code: int = EXIT_NUMERIC):
        self.code = code
        super().__init__(message)


def parse_bench(text: str) -> BenchSpec:
    """Split family:n[:seed][:key=value ...], e.g. xeb:6:3:depth=4; from_raw types it."""
    family, *fields = text.split(":")
    if not fields:
        raise InvalidSpec(f"bench spec needs family:n, got {text!r}")
    n, *fields = fields
    seed = fields.pop(0) if fields and "=" not in fields[0] else 0
    extras = {}
    for token in fields:
        key, eq, value = token.partition("=")
        if not eq:
            raise InvalidSpec(f"bench seed goes once, after n; got {token!r} in {text!r}")
        extras[key] = value
    return BenchSpec.from_raw(family, n, seed, extras)


def parse_noise(text: str) -> NoiseModel:
    """p1=1e-3,p2=1e-2,ro=1e-2 (any subset, each at most once)."""
    values = {}
    if text:
        for chunk in text.split(","):
            key, _, raw = chunk.partition("=")
            key = key.strip()
            if key not in ("p1", "p2", "ro") or not raw:
                raise CliError(f"bad noise component {chunk!r}", EXIT_PARSE)
            if key in values:
                raise CliError(f"bad noise component {chunk!r}: {key} is given twice", EXIT_PARSE)
            try:
                values[key] = float(raw)
            except ValueError:
                raise CliError(f"bad noise value {chunk!r}", EXIT_PARSE) from None
    try:
        return NoiseModel(values.get("p1", 0.0), values.get("p2", 0.0), values.get("ro", 0.0))
    except SimulationError as exc:
        raise CliError(str(exc), EXIT_PARSE) from None


def parse_coupling(text: str, num_qubits: int) -> CouplingMap:
    """linear | ring | grid:RxC | heavyhex27 | @file.json; sized to fit."""
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            data = fh.read()
        try:
            return coupling_from_json(data)
        except TranspileError as exc:  # a malformed map is a usage error
            raise CliError(f"coupling map {text[1:]}: {exc}", EXIT_PARSE) from None
    if text == "linear":
        return linear_map(max(num_qubits, 2))
    if text == "ring":
        return ring_map(max(num_qubits, 2))
    if text == "heavyhex27":
        return heavy_hex_27()
    if text.startswith("grid:"):
        try:
            rows, cols = (int(d) for d in text[5:].split("x"))
        except ValueError:  # not two integers
            rows = cols = 0
        if rows < 1 or cols < 1:
            raise CliError(f"grid spec must be grid:RxC, got {text!r}", EXIT_PARSE)
        return grid_map(rows, cols)
    raise CliError(f"unknown coupling {text!r}", EXIT_PARSE)


def _load_circuit(args) -> tuple:
    if bool(args.qasm) == bool(args.bench):
        raise CliError("exactly one of --qasm or --bench is required", EXIT_PARSE)
    if args.qasm:
        with open(args.qasm, "rb") as fh:
            circuit = parse_qasm(fh.read())
        source = {"kind": "qasm", "path": args.qasm}
    else:
        spec = parse_bench(args.bench)
        circuit = generate(spec)
        source = {"kind": "bench", "spec": spec.label(), "family": spec.family, "n": spec.n}
    return circuit, source


def _check_oracle_seed(flag: str, seed: int) -> None:
    """Oracle seeds feed ``np.random.default_rng``, which takes no negative."""
    if seed < 0:
        raise CliError(f"{flag} must be >= 0, got {seed}", EXIT_PARSE)


def _plan_config(args, delta: float | None = None) -> PlanConfig:
    """The flags' plan config, at ``delta`` if given instead of ``--delta``."""
    try:
        return PlanConfig(
            delta=args.delta if delta is None else delta,
            alpha=args.alpha,
            p_max=args.pmax,
            batch_min=args.batch_min,
            estimator=args.estimator,
        )
    except EstimationError as exc:
        raise CliError(str(exc), EXIT_PARSE) from None


def _kernel_config(args) -> KernelConfig:
    """The spectral flags' config, ``--k`` included; a bad value is a usage error."""
    try:
        return KernelConfig(args.self_loop, args.fanin_quantile, args.k)
    except SpectralError as exc:
        raise CliError(str(exc), EXIT_PARSE) from None


def _check_output_dirs(args) -> None:
    """Raise the error ``open`` would, before any work, if the directory of
    ``--out`` (or of analyze's ``--dot``) is missing or not a directory."""
    for path in (getattr(args, "out", None), getattr(args, "dot", None)):
        parent = os.path.dirname(path) if path else ""
        if parent and not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_report(args, circuit, source: dict, analyze, record=None) -> None:
    """An analyze or estimate report, in ``--format``, to ``--out``; JSON leads with ``source``."""
    if args.format == "csv":
        family, n = source.get("family", ""), source.get("n", circuit.num_qubits)
        row = csv_row(family, n, args.seed, analyze, record)
        _write_output(SWEEP_COLUMNS + "\n" + row + "\n", args.out)
    else:
        report = {"source": source, **(record or analyze).to_dict()}
        _write_output(to_json(report) + "\n", args.out)


class _Parser(argparse.ArgumentParser):
    """Exits with ``EXIT_PARSE`` on a usage error, where argparse exits 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _add_circuit_flags(p: argparse.ArgumentParser) -> None:
    """Flags of a command run on one circuit."""
    p.add_argument("--qasm", help="path to an OpenQASM 2.0 file")
    p.add_argument("--bench", help="benchmark spec family:n[:seed][:key=value]")
    p.add_argument("--seed", type=int, default=0,
                   help="oracle seed of estimate and reference; reports record it as the "
                   "transpile seed, which routing does not use")


def _add_backend_flags(p: argparse.ArgumentParser) -> None:
    """Flags of a command that routes circuits and writes one output."""
    p.add_argument("--coupling", default="linear",
                   help="linear|ring|grid:RxC|heavyhex27|@file.json (default linear)")
    p.add_argument("--noise", default="",
                   help="p1=..,p2=..,ro=.. (default noiseless; analyze validates it but draws no shots)")
    p.add_argument("--out", help="write output to this path instead of stdout")


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    """Spectral and stopping-rule knobs of a command that plans shots."""
    p.add_argument("--k", type=int, default=None, help="spectral modes kept (default min(10, n))")
    p.add_argument("--self-loop", type=float, default=0.5, dest="self_loop")
    p.add_argument("--fanin-quantile", type=float, default=0.9, dest="fanin_quantile")
    p.add_argument("--delta", type=float, default=0.01,
                   help="target CI half-width (sweep takes --deltas instead)")
    p.add_argument("--alpha", type=float, default=0.05, help="two-sided significance level")
    p.add_argument("--pmax", type=int, default=10_000, help="shot cap")
    p.add_argument("--batch-min", type=int, default=20, dest="batch_min")
    p.add_argument("--estimator", choices=("success", "xeb"), default="success")


def cmd_analyze(args) -> int:
    parse_noise(args.noise)  # unused, as analyze draws no shots, but validated
    circuit, source = _load_circuit(args)
    coupling = parse_coupling(args.coupling, circuit.num_qubits)
    report, _ = analyze_circuit(
        circuit,
        coupling,
        seed=args.seed,
        kernel_cfg=_kernel_config(args),
        plan_cfg=_plan_config(args),
    )
    if args.dot:
        _write_output(to_dot(build_dag(circuit)), args.dot)
    _write_report(args, circuit, source, report)
    return 0


def cmd_estimate(args) -> int:
    _check_oracle_seed("--seed", args.seed)
    if args.reference_shots < 0:
        raise CliError(f"--reference-shots must be >= 0, got {args.reference_shots}", EXIT_PARSE)
    circuit, source = _load_circuit(args)
    coupling = parse_coupling(args.coupling, circuit.num_qubits)
    record = run_estimate(
        circuit,
        coupling,
        parse_noise(args.noise),
        oracle_seed=args.seed,
        kernel_cfg=_kernel_config(args),
        plan_cfg=_plan_config(args),
        reference_shots=args.reference_shots,
    )
    _write_report(args, circuit, source, record.analyze, record)
    return 0


def _load_suite(text: str) -> list[BenchSpec]:
    if text == "default":
        return default_suite()
    if text == "default10":
        return default_suite(include_ten=True)
    if not text.startswith("@"):
        raise CliError(f"suite must be default|default10|@file.json, got {text!r}", EXIT_PARSE)
    path = text[1:]
    with open(path, encoding="utf-8") as fh:
        try:
            entries = json.load(fh)
        except ValueError as exc:
            raise CliError(f"suite file {path}: {exc}", EXIT_PARSE) from None
    if not isinstance(entries, list):
        raise CliError(f"suite file {path} must hold a JSON list of entries", EXIT_PARSE)
    suite = []
    for entry in entries:
        if not isinstance(entry, dict) or "family" not in entry or "n" not in entry:
            raise CliError(f'suite entry needs "family" and "n", got {entry!r}', EXIT_PARSE)
        extras = dict(entry)
        family, n, seed = extras.pop("family"), extras.pop("n"), extras.pop("seed", 0)
        suite.append(BenchSpec.from_raw(family, n, seed, extras))
    return suite


def cmd_sweep(args) -> int:
    suite = _load_suite(args.suite)
    axes = []
    for flag, text, kind in (("--deltas", args.deltas, float), ("--seeds", args.seeds, int)):
        items = text.split(",")
        if "" in items:  # a doubled or trailing comma, or no value at all
            raise CliError(f"bad sweep axis: {flag} has an empty item in {text!r}", EXIT_PARSE)
        try:
            values = [kind(x) for x in items]
        except ValueError as exc:
            raise CliError(f"bad sweep axis: {flag}: {exc}", EXIT_PARSE) from None
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:  # a repeat would write duplicate rows
            raise CliError(f"bad sweep axis: {flag} gives {repeated} twice", EXIT_PARSE)
        axes.append(values)
    deltas, seeds = axes
    for seed in seeds:
        _check_oracle_seed("--seeds", seed)
    noise = parse_noise(args.noise)
    # the plan comes from --deltas (sweep accepts --delta but reads none of
    # it); every delta is checked before any row is computed
    cfgs = [_plan_config(args, delta) for delta in deltas]

    def factory(width: int) -> CouplingMap:
        return parse_coupling(args.coupling, width)

    factory(2)  # a malformed --coupling exits here, before any row is computed
    text = sweep_csv(
        suite, cfgs, seeds, factory, noise,
        timing=args.timing, kernel_cfg=_kernel_config(args),
    )
    _write_output(text, args.out)
    return 0


def cmd_bench(args) -> int:
    """List the suite, or write its circuits as QASM files."""
    suite = _load_suite(args.suite)
    entries = []
    for spec in suite:
        circuit = generate(spec)
        entries.append(
            {
                "spec": spec.label(),
                "family": spec.family,
                "n": spec.n,
                "seed": spec.seed,
                "num_qubits": circuit.num_qubits,
                "num_clbits": circuit.num_clbits,
                "ops": len(circuit.ops),
                "depth": depth(build_dag(circuit)),
            }
        )
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            name = spec.label().replace(":", "_").replace("=", "-") + ".qasm"
            with open(os.path.join(args.out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(emit_qasm(circuit))
    _write_output(to_json(entries) + "\n", args.out)
    return 0


def cmd_reference(args) -> int:
    _check_oracle_seed("--seed", args.seed)
    if args.shots < 1:
        raise CliError(f"--shots must be >= 1, got {args.shots}", EXIT_PARSE)
    circuit, _ = _load_circuit(args)
    noise = parse_noise(args.noise)
    # routed even without noise, so a map that cannot hold the circuit always fails
    routed = transpile(circuit, parse_coupling(args.coupling, circuit.num_qubits))
    if noise.is_noiseless:
        dist = ideal_distribution(circuit)
    else:
        dist = noisy_distribution(routed.readout_circuit(), noise)
    shots = DistributionOracle(dist, args.seed).sample(args.shots)
    counts = counts_from_shots(shots, dist.num_bits)
    _write_output(to_json({"n": dist.num_bits, "counts": counts}) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfid",
        description="Adaptive shot budgeting for quantum-circuit fidelity estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="structural pipeline, no shots")
    p_estimate = sub.add_parser("estimate", help="run the adaptive estimation loop")
    p_sweep = sub.add_parser("sweep", help="suite x delta x seed CSV")
    p_ref = sub.add_parser("reference", help="write a counts file of sampled shots")
    # each command takes only the flags it reads
    for p in (p_analyze, p_estimate, p_ref):
        _add_circuit_flags(p)
    for p in (p_analyze, p_estimate, p_sweep, p_ref):
        _add_backend_flags(p)
    for p in (p_analyze, p_estimate, p_sweep):
        _add_plan_flags(p)
    for p in (p_analyze, p_estimate):
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")

    p_analyze.add_argument("--dot", help="also write the gate DAG in DOT format")
    p_analyze.set_defaults(func=cmd_analyze)

    p_estimate.add_argument("--reference-shots", type=int, default=0, dest="reference_shots",
                            help="also compare against an n-shot empirical reference")
    p_estimate.set_defaults(func=cmd_estimate)

    p_sweep.add_argument("--suite", default="default", help="default|default10|@file.json")
    p_sweep.add_argument("--deltas", default="0.01,0.02,0.03")
    p_sweep.add_argument("--seeds", default="1,2,3", help="circuit and oracle seeds")
    p_sweep.add_argument("--timing", action="store_true",
                         help="fill walltime_ms (off by default to keep output byte-stable)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ref.add_argument("--shots", type=int, default=10_000)
    p_ref.set_defaults(func=cmd_reference)

    p_bench = sub.add_parser("bench", help="list the benchmark suite or export it as QASM")
    p_bench.add_argument("--suite", default="default", help="default|default10|@file.json")
    p_bench.add_argument("--out-dir", dest="out_dir", help="write one .qasm file per spec")
    p_bench.add_argument("--out", help="write the JSON listing to this path")
    p_bench.set_defaults(func=cmd_bench)

    return parser


_ERROR_CODES = (
    (QasmError, EXIT_PARSE),
    (CircuitError, EXIT_PARSE),
    (InvalidSpec, EXIT_PARSE),
    (TranspileError, EXIT_TRANSPILE),
    (DagError, EXIT_NUMERIC),
    (DeformationError, EXIT_NUMERIC),
    (SpectralError, EXIT_NUMERIC),
    (SimulationError, EXIT_ORACLE),
    (EstimationError, EXIT_ORACLE),
    (MemoryError, EXIT_ORACLE),  # a shot request too large to allocate
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``main`` may run many times in one."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # noqa: BLE001 - map module errors to exit codes
        for klass, code in _ERROR_CODES:
            if isinstance(exc, klass):
                print(f"error: {error_name(exc)}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
