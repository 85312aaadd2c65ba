"""Benchmark of the torusrenorm engine, one workload per invocation.

    python3 perfbench/run.py --workload orbit-t32 --seed 7 --seconds 50 --trace 0

Run it from the repository root; it imports the package from ``src/``.
With ``--trace 0`` it times passes of the workload for about ``--seconds``
seconds, cycling through the pass inputs the workload builds from
``--seed``, checks every pass's outputs, and reports the end-to-end metrics:

    wall_s       median wall time of one pass
    setup_s      median over fresh processes of importing torusrenorm and
                 building the workload's inputs
    peak_rss_mb  peak resident memory of this process

With ``--trace 1`` it runs an untraced pass, a traced pass and another
untraced pass of the first input (the run's own seed), requires the three
to produce identical outputs, and reports the per-layer metrics of
``tracer.py`` plus ``trace_overhead_s``.  The spans are written under
``.bench_build/perfbench/``.

A summary goes to standard output; its last line is one JSON object with
the keys correct, attempted, failed and metrics.  fail_frac is
failed / attempted.  A pass fails when it raises, the CLI exits non-zero,
or its digest drifts from the reference or the invariants.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 7
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# The passes are serial; on 2 cores an unpinned OpenBLAS measured no faster.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
         "workloads.WORKLOADS[sys.argv[2]].setup(int(sys.argv[3]))")


def run_pass(workload, pass_input, out_dir, reference):
    """One timed pass; returns (outputs or None, wall seconds, problems)."""
    seed, payload = pass_input
    started = time.perf_counter()
    try:
        outputs = workload.run(payload, out_dir)
    except Exception:  # a failed pass is counted, the run goes on
        traceback.print_exc()
        return None, time.perf_counter() - started, ["pass raised"]
    wall = time.perf_counter() - started
    try:
        problems = workload.problems(outputs, seed, reference)
    except Exception:
        traceback.print_exc()
        problems = ["digest check raised"]
    return outputs, wall, problems


def report_pass(label, wall, problems):
    status = "ok" if not problems else "FAILED: " + "; ".join(problems[:5])
    print(f"  {label}: {wall:.3f} s {status}", file=sys.stderr, flush=True)


def measure(workload, inputs, seconds, out_dir, reference):
    """Untraced passes, cycling through `inputs`, until the next would end
    after `seconds`; at least one."""
    walls, failed = [], 0
    started = time.perf_counter()
    while True:
        pass_input = inputs[len(walls) % len(inputs)]
        _, wall, problems = run_pass(workload, pass_input, out_dir, reference)
        report_pass(f"pass {len(walls)} seed {pass_input[0]}", wall, problems)
        walls.append(wall)
        failed += bool(problems)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(walls) > seconds:
            return walls, failed


def setup_times(name, seed):
    """Wall times of fresh processes that import the package and build inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE, str(BENCH), name, str(seed)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - started)
    return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def describe(name, values, unit):
    q1, q3 = quartiles(values)
    return (f"{name:<12} median {statistics.median(values):.4f} {unit}  "
            f"q1 {q1:.4f}  q3 {q3:.4f}  n {len(values)}")


def end_to_end(workload, inputs, seed, seconds, out_dir, reference):
    walls, failed = measure(workload, inputs, seconds, out_dir, reference)
    setups = setup_times(workload.name, seed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(describe("wall_s", walls, "s"))
    print(describe("setup_s", setups, "s"))
    print(f"{'peak_rss_mb':<12} {rss_mb:.1f} MB")
    values = {"wall_s": statistics.median(walls),
              "setup_s": statistics.median(setups), "peak_rss_mb": rss_mb}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return len(walls), failed, metrics


def traced(workload, pass_input, out_dir, reference):
    from tracer import Tracer, metric_units

    tracer = Tracer()
    before = run_pass(workload, pass_input, out_dir, reference)
    with tracer.installed():
        during = run_pass(workload, pass_input, out_dir, reference)
    after = run_pass(workload, pass_input, out_dir, reference)
    runs = (before, during, after)
    for label, (_, wall, problems) in zip(("untraced", "traced", "untraced"), runs):
        report_pass(label, wall, problems)
    failed = sum(bool(problems) for _, _, problems in runs)
    plain = {json.dumps(outputs, sort_keys=True) for outputs, _, _ in runs}
    if None not in [outputs for outputs, _, _ in runs] and len(plain) > 1:
        print("  traced and untraced outputs differ", file=sys.stderr)
        failed += 1
    tracer.write(out_dir / "spans.json")
    units = metric_units()
    values = tracer.metrics()
    metrics = {name: {"value": values[name], "unit": units[name][0]}
               for name in units}
    untraced_wall = statistics.mean([before[1], after[1]])
    metrics["trace_overhead_s"] = {"value": during[1] - untraced_wall, "unit": "s"}
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:.6g} {metric['unit']}")
    return len(runs), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    import workloads  # after pinning threads: it loads numpy

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    reference = workloads.load_reference()
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = workload.setup(seed)

    print(f"{workload.name} seed {seed} trace {args.trace}", file=sys.stderr)
    if args.trace:
        attempted, failed, metrics = traced(workload, inputs[0], out_dir,
                                            reference)
    else:
        attempted, failed, metrics = end_to_end(workload, inputs, seed,
                                                args.seconds, out_dir, reference)
    print(f"{'fail_frac':<12} {failed / attempted:.4f}  ({failed}/{attempted} passes)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
