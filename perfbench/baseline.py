"""Write ``perfbench/baseline.json``: machine note, layer shares, two seeds.

Run from the repository root after recording references::

    python3 perfbench/baseline.py

For every workload and for the default and the second seed it makes one
untraced run and one traced run of ``run.py`` and keeps their numbers.  From
the traced run it derives each layer's share of the traced pass time and the
share of ``noisy_distribution`` calls that repeat an already-simulated
circuit.  Later changes cite these shares when they say what they can save.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import workloads
from run import BLAS_THREADS

HERE = Path(__file__).resolve().parent
SEEDS = (7, 0)  # the default, and the seed whose sweep uses seeds 1,2,3
WORK = Path(".perfbench_work")


def openblas_threads() -> int | None:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_note() -> dict:
    import numpy
    import scipy

    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            check=False).stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": BLAS_THREADS,
        "openblas_threads_default": openblas_threads(),
        "commit": commit,
        "load": "one process, one client; run.py sets OPENBLAS_NUM_THREADS",
    }


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    out = WORK / f"baseline-{workload}-{seed}-{trace}.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--report", str(out)],
        check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def shares(traced: dict) -> dict:
    m = traced["metrics"]
    wall = m["trace.wall_s"]
    layer = {k: round(v / wall, 4) for k, v in m.items()
             if k.endswith("_s") and not k.startswith("trace.")}
    calls, distinct = m["simulator.noisy_calls"], m["simulator.noisy_distinct"]
    return {
        "traced_wall_s": wall,
        "untraced_wall_s": traced["untraced_wall_s"],
        "overhead_s": m["trace.overhead_s"],
        "self_time_share": dict(sorted(layer.items(), key=lambda kv: -kv[1])),
        "repeated_noisy_inputs": f"{calls - distinct}/{calls}",
    }


def main() -> int:

    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    WORK.mkdir(exist_ok=True)
    result = {"machine": machine_note(), "run_seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        per_seed = {}
        for seed in SEEDS:
            plain = run(workload, seed, 0, seconds)
            traced = run(workload, seed, 1, seconds)
            per_seed[str(seed)] = {
                "end_to_end": plain["metrics"],
                "wall_s_passes": plain["walls"],
                "shots_total": plain["shots_total"],
                "bias_miss_frac": plain["bias_miss_frac"],
                "failed_frac": plain["failed_frac"],
                "output_check": "pass" if not plain["problems"] else plain["problems"],
                "traced": shares(traced),
                "per_layer": traced["metrics"],
            }
            print(workload, seed, "done", flush=True)
        result["workloads"][workload] = per_seed
    with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
