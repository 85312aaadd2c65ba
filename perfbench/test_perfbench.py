"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from torusrenorm.fourier_field import FourierVectorField  # noqa: E402
from torusrenorm.number_theory import CFExpansion  # noqa: E402

SMALL_ORBIT = ("orbit", "--slope", "golden", "--perturb", "resonant:1e-3",
               "--steps", "3", "--truncation", "16", "--seed", "7")
SMALL_CF = ("cf", "--slope", "golden", "--n-terms", "60")
SMALL_DECAY = ("decay-probe", "--slope", "golden", "--steps", "6",
               "--truncation", "40")


def bindings() -> dict:
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "torusrenorm" or name.startswith("torusrenorm."):
            out.update({(name, k): v for k, v in vars(module).items()})
    for cls in (FourierVectorField, CFExpansion):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_restores_every_original():
    before = bindings()
    with tracer.Tracer().installed():
        during = bindings()
    after = bindings()
    replaced = {key for key in before if during[key] is not before[key]}
    assert {
        ("torusrenorm.renorm_driver", "eliminate_far_perturbation"),
        ("torusrenorm.normalization_step", "eliminate_far_perturbation"),
        ("torusrenorm.normalization_step", "gmres"),
        ("torusrenorm.normalization_step", "fit_grid"),
        ("torusrenorm.cli_experiments", "scale_step"),
        ("FourierVectorField", "__init__"),
        ("CFExpansion", "beta"),
    } <= replaced
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_tracer_restores_originals_when_the_pass_raises():
    before = bindings()
    try:
        with tracer.Tracer().installed():
            raise KeyError("pass failed")
    except KeyError:
        pass
    after = bindings()
    assert [key for key in before if after[key] is not before[key]] == []


def test_traced_and_untraced_passes_give_identical_outputs(tmp_path):
    plain = {argv[0]: workloads.run_cli(argv, tmp_path)
             for argv in (SMALL_ORBIT, SMALL_CF, SMALL_DECAY)}
    trace = tracer.Tracer()
    with trace.installed():
        traced = {argv[0]: workloads.run_cli(argv, tmp_path)
                  for argv in (SMALL_ORBIT, SMALL_CF, SMALL_DECAY)}
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
    for label in plain:
        assert traced[label][0] == plain[label][0]  # CSV bodies
    assert (workloads.orbit_digest({"orbit": traced["orbit"]})
            == workloads.orbit_digest({"orbit": plain["orbit"]}))

    metrics = trace.metrics()
    assert metrics["cli_experiments.run_scenario.calls"] == 3
    assert metrics["renorm_driver.stabilize.rounds"] == 3
    assert metrics["renorm_driver.one_step.calls"] > 3
    assert metrics["renorm_driver.useful_step_ratio"] == (
        3 / metrics["renorm_driver.one_step.calls"])
    assert (metrics["normalization_step.pullback_evals"]
            == metrics["normalization_step.pullback.calls"] > 0)
    assert metrics["normalization_step.gmres.matvecs"] >= (
        metrics["normalization_step.gmres.calls"] > 0)
    assert metrics["number_theory.beta.calls"] > 0
    assert metrics["renorm_driver.decay_probe.calls"] == 1
    assert set(metrics) == set(tracer.metric_units())


def test_reference_digests_pass_and_perturbed_digests_fail():
    reference = workloads.load_reference()
    orbit = workloads.WORKLOADS["orbit-t32"]
    ref = reference["orbit-t32"]
    norms = ref["norms"]
    assert orbit.check(ref, ref) == []
    assert orbit.check(ref, None) == []
    assert orbit.check({**ref, "completed": 7}, ref)
    assert orbit.check({**ref, "norms": [norms[0] * (1 + 1e-5), *norms[1:]]}, ref)
    assert orbit.check({**ref, "norms": [*norms[:-1], 2e-16]}, ref)
    assert orbit.check({**ref, "norms": [*norms[:3], norms[2], *norms[4:]]}, None)

    cf_decay = workloads.WORKLOADS["cf-decay"]
    ref = reference["cf-decay"]
    assert cf_decay.check(ref, ref) == []
    for label, key, value in (
        ("cf_golden", "apq_sha256", "0" * 64),
        ("cf_e_minus_2", "termination", "ok"),
        ("cf_golden", "beta", [ref["cf_golden"]["beta"][0] * (1 + 1e-9),
                               *ref["cf_golden"]["beta"][1:]]),
        ("decay", "surviving", [0, *ref["decay"]["surviving"][1:]]),
        ("decay", "super_geometric", False),
    ):
        drifted = json.loads(json.dumps(ref))
        drifted[label][key] = value
        assert cf_decay.check(drifted, ref), (label, key)


def test_measure_counts_drifting_and_raising_passes_as_failed(tmp_path):
    reference = workloads.load_reference()
    drifted = {**reference["orbit-t32"], "completed": 7}
    fake = replace(workloads.WORKLOADS["orbit-t32"],
                   run=lambda payload, out_dir: {"digest": drifted},
                   digest=lambda outputs: outputs["digest"])
    walls, failed = run.measure(fake, [(7, None)], 0.0, tmp_path, reference)
    assert (len(walls), failed) == (1, 1)

    def raising(payload, out_dir):
        raise RuntimeError("exited with 3")

    walls, failed = run.measure(replace(fake, run=raising), [(7, None)], 0.0,
                                tmp_path, reference)
    assert (len(walls), failed) == (1, 1)


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == {**tracer.metric_units(),
                         "trace_overhead_s": ("s", "lower")}
