"""Workloads of the torusrenorm benchmark.

A workload builds the inputs of its passes from a seed, runs one pass
through the package's public entry points, and reduces the pass's outputs
to a digest.  The digest is checked against ``reference.json`` where the
pass's input equals the one the reference was made from, and against
seed-independent invariants elsewhere.

The package is always called through module attributes
(``cli_experiments.main``), never through names imported from it, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "torusrenorm" / "__init__.py").is_file():
    raise ImportError(f"torusrenorm sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import mpmath  # noqa: E402

from torusrenorm import cli_experiments  # noqa: E402

REFERENCE_PATH = BENCH / "reference.json"
DEFAULT_SEED = 7

# Acceptance criterion 7's dust floor: orbit norms below it are float64
# round-off of the weighted norm, not signal.
DUST_FLOOR = 1e-16
# Norms above the floor are long sums of products of FFT outputs; a change
# of summation order moves them far less than this.
NORM_RTOL = 1e-6
# beta_n and Atilde_n are floats of exact (or 1024-bit interval) numbers.
CF_RTOL = 1e-12
# Decay-probe log-ratios come from float products of a few dozen factors.
DECAY_RTOL = 1e-9

ORBIT_STEPS = 8
# One orbit's cost follows its seed's Newton path: 4.2 s at seed 9 against
# 9.1 s at seed 7 on one machine.  A run therefore times its own seed and
# then this fixed panel, so that wall_s does not follow the run's seed.
PANEL_SEEDS = (1, 2, 3, 4, 5, 6)
ORBIT_ARGV = ("orbit", "--slope", "golden", "--perturb", "resonant:1e-3",
              "--steps", str(ORBIT_STEPS), "--truncation", "32")
E_MINUS_2_BITS = 1024
E_MINUS_2_DIGITS = 320  # more decimal digits than 1024 bits resolve


def run_cli(argv, out_dir: Path):
    """Run one CLI scenario in-process; return its CSV body and manifest results."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli_experiments.main([*argv, "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"torusrenorm {' '.join(argv)} exited with {code}")
    csv_path, manifest_path = printed.getvalue().splitlines()[-2:]
    body = "".join(
        line
        for line in Path(csv_path).read_text().splitlines(keepends=True)
        if not line.startswith("#")
    )
    results = json.loads(Path(manifest_path).read_text())["results"]
    return body, results


def csv_rows(body: str):
    return list(csv.DictReader(io.StringIO(body)))


def _float(text: str):
    return float(text) if text != "" else None


def compare_floats(label, values, reference, rtol):
    """Problems where `values` and `reference` differ by more than rtol."""
    if len(values) != len(reference):
        return [f"{label}: {len(values)} values, reference has {len(reference)}"]
    problems = []
    for n, (x, r) in enumerate(zip(values, reference)):
        if (x is None) != (r is None) or (
            r is not None and not math.isclose(x, r, rel_tol=rtol, abs_tol=0.0)
        ):
            problems.append(f"{label}[{n}] = {x!r}, reference {r!r}")
    return problems


def compare_exact(label, value, reference):
    return [] if value == reference else [f"{label} = {value!r}, reference {reference!r}"]


# ---------------------------------------------------------------------------
# orbit-t32


def orbit_digest(outputs) -> dict:
    body, results = outputs["orbit"]
    return {
        "completed": results["completed"],
        "norms": [float(row["norm_total"]) for row in csv_rows(body)],
    }


def orbit_check(digest, reference) -> list:
    """Reference norms above the dust floor within NORM_RTOL, those below
    it still below; without a reference, acceptance criterion 7's
    invariants: every step completed, norms above the floor decreasing."""
    problems = compare_exact("completed", digest["completed"], ORBIT_STEPS)
    norms = digest["norms"]
    if reference is None:
        for n in range(2, len(norms) - 1):
            if norms[n] > DUST_FLOOR and not norms[n + 1] < norms[n]:
                problems.append(f"norm rose from {norms[n]!r} at step {n}")
        return problems
    ref = reference["norms"]
    if len(norms) != len(ref):
        return problems + [f"{len(norms)} norms, reference has {len(ref)}"]
    for n, (x, r) in enumerate(zip(norms, ref)):
        if r > DUST_FLOOR:
            if not math.isclose(x, r, rel_tol=NORM_RTOL, abs_tol=0.0):
                problems.append(f"norm[{n}] = {x!r}, reference {r!r}")
        elif x > DUST_FLOOR:
            problems.append(f"norm[{n}] = {x!r} rose above the dust floor")
    return problems


def _orbit_setup(seed):
    return [(s, [*ORBIT_ARGV, "--seed", str(s)]) for s in (seed, *PANEL_SEEDS)]


def _orbit_run(argv, out_dir):
    return {"orbit": run_cli(argv, out_dir)}


# ---------------------------------------------------------------------------
# cf-decay


def _cf_decay_setup(seed):
    with mpmath.workdps(E_MINUS_2_DIGITS + 20):
        e_minus_2 = mpmath.nstr(mpmath.e - 2, E_MINUS_2_DIGITS, strip_zeros=False)
    return [(seed, {
        "cf_golden": ("cf", "--slope", "golden", "--n-terms", "400"),
        "cf_e_minus_2": ("cf", "--slope", f"{e_minus_2}@{E_MINUS_2_BITS}",
                         "--n-terms", "400"),
        "decay": ("decay-probe", "--slope", "golden", "--steps", "10",
                  "--truncation", "120"),
    })]


def _cf_decay_run(argvs, out_dir):
    return {label: run_cli(argv, out_dir) for label, argv in argvs.items()}


def _cf_table_digest(body, results):
    rows = csv_rows(body)
    apq = "\n".join(f"{r['a_n']},{r['p_n']},{r['q_n']}" for r in rows)
    return {
        "rows": len(rows),
        "termination": results["termination"],
        "apq_sha256": hashlib.sha256(apq.encode()).hexdigest(),
        "beta": [_float(r["beta_n"]) for r in rows],
        "atilde": [_float(r["Atilde_n"]) for r in rows],
    }


def cf_decay_digest(outputs) -> dict:
    digest = {label: _cf_table_digest(*outputs[label])
              for label in ("cf_golden", "cf_e_minus_2")}
    body, results = outputs["decay"]
    rows = csv_rows(body)
    digest["decay"] = {
        "surviving": [int(r["surviving_modes"]) for r in rows],
        "log_ratio": [_float(r["log_ratio"]) for r in rows],
        "super_geometric": results["super_geometric"],
    }
    return digest


def cf_decay_check(digest, reference) -> list:
    """a_n, p_n, q_n byte-equal; beta_n, Atilde_n within CF_RTOL; decay-probe
    survivors exact, log-ratios within DECAY_RTOL, decay super-geometric."""
    problems = []
    for label in ("cf_golden", "cf_e_minus_2"):
        got, ref = digest[label], reference[label]
        for key in ("rows", "termination", "apq_sha256"):
            problems += compare_exact(f"{label}.{key}", got[key], ref[key])
        for key in ("beta", "atilde"):
            problems += compare_floats(f"{label}.{key}", got[key], ref[key], CF_RTOL)
    got, ref = digest["decay"], reference["decay"]
    problems += compare_exact("decay.surviving", got["surviving"], ref["surviving"])
    problems += compare_floats("decay.log_ratio", got["log_ratio"],
                               ref["log_ratio"], DECAY_RTOL)
    problems += compare_exact("decay.super_geometric", got["super_geometric"], True)
    return problems


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], list]            # seed -> [(pass seed, pass input)]
    run: Callable[[Any, Path], dict]        # (pass input, out dir) -> outputs
    digest: Callable[[dict], dict]
    check: Callable[[dict, dict | None], list]  # (digest, reference) -> problems
    seeded: bool                            # False: inputs ignore the seed

    def problems(self, outputs, seed: int, reference: dict) -> list:
        """Correctness problems of a pass with the given seed; empty if correct."""
        if self.seeded and seed != DEFAULT_SEED:
            return self.check(self.digest(outputs), None)
        return self.check(self.digest(outputs), reference[self.name])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="orbit-t32",
            why=("flagship CLI orbit, golden slope, T=32, 8 steps, the run's "
                 "seed then seeds 1-6: the stabilising secant, the Newton "
                 "elimination and its pullback; many small fields"),
            setup=_orbit_setup,
            run=_orbit_run,
            digest=orbit_digest,
            check=orbit_check,
            seeded=True,
        ),
        Workload(
            name="cf-decay",
            why=("cf tables (golden 400 terms exact, e-2 at 1024 bits) and "
                 "a T=120 decay probe: number theory and mode transport, "
                 "never the pullback; seed-independent"),
            setup=_cf_decay_setup,
            run=_cf_decay_run,
            digest=cf_decay_digest,
            check=cf_decay_check,
            seeded=False,
        ),
    )
}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
