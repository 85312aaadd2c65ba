"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 [--write]

For each workload of BENCHMARK.json it runs ``run.py`` once per seed with
the benchmark's ``run_seconds`` and prints, for each end-to-end metric, the
median, the quartiles and the spread (q3 - q1) / median next to the
metric's bound.  With ``--write`` the figures and the machine they were
taken on go to ``evidence.json``.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EVIDENCE = BENCH / "evidence.json"


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": "1 (run.py sets OPENBLAS/OMP/MKL_NUM_THREADS=1)",
    }


def run_once(command, workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    passes = re.findall(r"^  pass .*: ([0-9.]+) s ", proc.stderr, re.MULTILINE)
    print(f"{workload} seed {seed} pass walls: {' '.join(passes)}",
          file=sys.stderr, flush=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    figures = {}
    for workload in names:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(bench["command"], workload, seed,
                                 bench["run_seconds"]))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
        figures[workload] = {name: spread([r[name] for r in runs])
                             for name in bounds}
        for name, fig in figures[workload].items():
            print(f"{workload:<10} {name:<12} median {fig['median']:.4f} "
                  f"q1 {fig['q1']:.4f} q3 {fig['q3']:.4f} "
                  f"spread {fig['spread']:.4f}  bound {bounds[name]}")
    if args.write:
        evidence = json.loads(EVIDENCE.read_text()) if EVIDENCE.exists() else {}
        evidence["machine"] = machine()
        evidence.setdefault("steadiness", {}).update(
            {w: {"seeds": args.seeds, "run_seconds": bench["run_seconds"],
                 "metrics": f} for w, f in figures.items()})
        EVIDENCE.write_text(json.dumps(evidence, indent=1) + "\n")


if __name__ == "__main__":
    main()
