"""Command-line scenarios: configuration, execution, artifact persistence.

Each scenario writes a CSV table (with the fully resolved configuration
embedded as comment headers) plus a JSON run manifest, keyed by a hash of
the configuration so sweeps can fan out without collisions.  Outputs are
byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid, DomainExceeded, NoConvergence
from .fourier_field import (
    FarResonant,
    FourierVectorField,
    Kappa,
    load_field,
    norm_prime_r,
    norm_r,
    project,
    save_field,
)
from .normalization_step import FarSolves, eliminate_far_perturbation
from .number_theory import Slope, cf_expand, diophantine_probe
from .renorm_driver import (
    RenormParams,
    constant_block,
    mixed_perturbation,
    renorm_orbit,
    resonant_perturbation,
    stabilize_resonant_perturbation,
    stable_decay_probe,
    unstable_perturbation,
)
from .scaling_step import operator_norm_bound, random_resonant_field, scale_step

SCENARIOS = ("cf", "project", "scale", "eliminate", "orbit", "spectrum",
             "decay-probe", "sweep")

DEFAULTS = {
    "slope": "golden",
    "sigma": "0.1",
    "rho": "1.0",
    "rho_prime": "0.9",
    "truncation": "32",
    "steps": "8",
    "n_terms": "30",
    "dc_order": "0.0",
    "perturb": "resonant:1e-3",
    "tol": "1e-12",
    "out": "runs",
}


# ---------------------------------------------------------------------------
# configuration


def parse_slope(text: str) -> Slope:
    text = text.strip()
    try:
        return Slope.named(text)
    except ValueError:
        pass
    if "/" in text:
        p, q = text.split("/")
        return Slope.rational(int(p), int(q))
    if "," in text:
        parts = [int(v) for v in text.split(",")]
        if len(parts) != 4:
            raise ConfigInvalid("quadratic slope needs u,v,d,w")
        return Slope.quadratic(*parts)
    bits = 256
    if "@" in text:
        text, bits_text = text.split("@")
        bits = int(bits_text)
    try:
        return Slope.real(text, bits=bits)
    except Exception as exc:
        raise ConfigInvalid(f"cannot parse slope {text!r}: {exc}") from exc


def parse_perturbation(text: str):
    """'kind:amplitude' with kind in resonant | unstable | mixed."""
    try:
        kind, amp = text.split(":")
        amp = float(amp)
    except ValueError as exc:
        raise ConfigInvalid(f"perturbation must be kind:amp, got {text!r}") from exc
    if kind not in ("resonant", "unstable", "mixed"):
        raise ConfigInvalid(f"unknown perturbation kind {kind!r}")
    return kind, amp


def load_config_file(path: str) -> dict:
    out = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{line_no}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve_config(scenario: str, file_config: dict, overrides: dict) -> dict:
    config = dict(DEFAULTS)
    config.update(file_config)
    config.update({k: v for k, v in overrides.items() if v is not None})
    config["scenario"] = scenario
    needs_seed = scenario in ("scale", "eliminate", "orbit", "sweep") or (
        scenario == "project" and "field_in" not in config
    )
    if needs_seed and "seed" not in config:
        raise ConfigInvalid("randomized scenarios require an explicit seed")
    return config


def config_hash(config: dict) -> str:
    canon = "\n".join(f"{k}={config[k]}" for k in sorted(config))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def build_params(config: dict) -> RenormParams:
    return RenormParams(
        sigma=float(config["sigma"]),
        rho=float(config["rho"]),
        rho_prime=float(config["rho_prime"]),
        truncation=int(config["truncation"]),
        tol=float(config["tol"]),
    )


def perturbation_field(config: dict, slope: Slope, params: RenormParams):
    """(f, description) of the configured perturbation f = X_0 - omega_0,
    a resonant draw taken as it is, without stabilisation."""
    kind, amp = parse_perturbation(config["perturb"])
    seed = int(config["seed"])
    if kind == "resonant":
        f, _ = resonant_perturbation(slope, amp, params, seed, stabilize=False)
    elif kind == "unstable":
        f = unstable_perturbation(float(slope), amp, params)
    else:
        f = mixed_perturbation(slope, amp, params, seed)
    return f, {"kind": kind, "amplitude": amp}


# ---------------------------------------------------------------------------
# output helpers


def format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path: Path, config: dict, columns, rows):
    lines = [f"# {k}={config[k]}" for k in sorted(config)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_manifest(path: Path, config: dict, payload: dict, artifacts,
                   runtime: float):
    manifest = {
        "config": {k: config[k] for k in sorted(config)},
        "config_hash": config_hash(config),
        "artifacts": [str(a) for a in artifacts],
        "results": payload,
        "runtime_seconds": round(runtime, 3),
    }
    path.write_text(json.dumps(manifest, indent=1, default=str) + "\n")


# ---------------------------------------------------------------------------
# scenarios


def scenario_cf(config, out_dir, tag):
    slope = parse_slope(config["slope"])
    n_terms = int(config["n_terms"])
    cf = cf_expand(slope, n_terms)
    probe = diophantine_probe(cf, float(config["dc_order"]),
                              len(cf.coefficients))
    probe_cols = {int(n): i for i, n in enumerate(probe.n_values)}
    rows = []
    for n in range(len(cf.coefficients)):
        i = probe_cols.get(n)
        rows.append(
            [
                n,
                cf.coefficients[n],
                cf.p[n],
                cf.q[n],
                cf.beta_floats[n],
                cf.a_tilde_floats[n],
                probe.K_q[i] if i is not None else "",
                probe.K_a[i] if i is not None else "",
                probe.K_beta[i] if i is not None else "",
                probe.K_atilde[i] if i is not None else "",
            ]
        )
    csv_path = out_dir / f"cf_{tag}.csv"
    write_csv(csv_path, config,
              ["n", "a_n", "p_n", "q_n", "beta_n", "Atilde_n",
               "K_q", "K_a", "K_beta", "K_Atilde"], rows)
    # the cf subcommand also prints its table
    print(csv_path.read_text(), end="")
    payload = {
        "termination": cf.termination,
        "period": cf.period,
        "K_max": {"q": probe.K_q_max, "a": probe.K_a_max,
                  "beta": probe.K_beta_max, "Atilde": probe.K_atilde_max},
    }
    return 0, payload, [csv_path]


def scenario_project(config, out_dir, tag):
    params = build_params(config)
    slope = parse_slope(config["slope"])
    if "field_in" in config:
        field = load_field(config["field_in"])
    else:
        rng = np.random.default_rng(int(config["seed"]))
        omega = np.array([1.0, float(slope)])
        field = FourierVectorField.constant(
            omega, params.rho_prime, params.truncation
        ) + random_resonant_field(omega, 3 * params.sigma, 1e-3,
                                  params.truncation, rng)
    cone_kind = config.get("cone", "far")
    if cone_kind == "far":
        omega = np.array([1.0, float(slope)])
        cone = FarResonant((omega[0], omega[1]), params.sigma)
    elif cone_kind == "kappa":
        cone = Kappa(int(config.get("a", "1")), params.kappa)
    else:
        raise ConfigInvalid(f"unknown cone {cone_kind!r}")
    side = config.get("side", "inside")
    if side not in ("inside", "outside"):
        raise ConfigInvalid("side must be inside or outside")
    kept = project(field, cone, side)
    other = project(field, cone, "outside" if side == "inside" else "inside")
    recombined = kept + other
    complementary = set(recombined.modes) == set(field.modes) and all(
        np.allclose(recombined.modes[k], field.modes[k]) for k in field.modes
    )
    out_path = out_dir / f"project_{tag}.json"
    save_field(kept, out_path)
    rows = [[side, len(kept), norm_r(kept, params.rho_prime),
             norm_prime_r(kept, params.rho_prime), complementary]]
    csv_path = out_dir / f"project_{tag}.csv"
    write_csv(csv_path, config,
              ["side", "modes", "norm", "norm_prime", "complementary"], rows)
    payload = {"modes_kept": len(kept), "complementary": complementary}
    return (0 if complementary else 3), payload, [csv_path, out_path]


def scenario_scale(config, out_dir, tag):
    params = build_params(config)
    slope = parse_slope(config["slope"])
    omega = np.array([1.0, float(slope)])
    a = int(float(slope))
    rng = np.random.default_rng(int(config["seed"]))
    _, amp = parse_perturbation(config["perturb"])
    bound = operator_norm_bound(a, params.rho, params.rho_prime, params.kappa)
    rows = []
    worst = 0.0
    n_fields = int(config.get("n_fields", "100"))
    for i in range(n_fields):
        field = random_resonant_field(omega, params.sigma, amp,
                                      params.truncation, rng,
                                      width=params.rho_prime)
        out = scale_step(field, a, params.rho, params.rho_prime, params.kappa)
        ratio = norm_prime_r(out, params.rho) / norm_r(field, params.rho_prime)
        worst = max(worst, ratio)
        rows.append([i, len(field), ratio, bound, ratio / bound])
    csv_path = out_dir / f"scale_{tag}.csv"
    write_csv(csv_path, config,
              ["sample", "modes", "ratio", "bound", "margin"], rows)
    payload = {"bound": bound, "worst_ratio": worst,
               "margin": worst / bound, "within_bound": worst <= bound}
    return (0 if worst <= bound else 3), payload, [csv_path]


def scenario_eliminate(config, out_dir, tag):
    params = build_params(config)
    slope = parse_slope(config["slope"])
    omega = np.array([1.0, float(slope)])
    f, pert_info = perturbation_field(config, slope, params)
    x = FourierVectorField.constant(
        omega, params.rho_prime, params.truncation
    ) + f
    far_modes_in = len(project(x, FarResonant((omega[0], omega[1]),
                                              params.sigma), "outside"))
    solves = FarSolves()
    try:
        result = eliminate_far_perturbation(
            omega, x.minus_constant(omega), params.sigma, tol=params.tol,
            rho=params.rho, rho_prime=params.rho_prime, solves=solves,
        )
    except NoConvergence as exc:
        return 3, {"error": str(exc)}, []
    rows = [[i, r] for i, r in enumerate(result.residuals)]
    csv_path = out_dir / f"eliminate_{tag}.csv"
    write_csv(csv_path, config, ["sweep", "far_residual"], rows)
    field_path = out_dir / f"eliminate_{tag}_field.json"
    map_path = out_dir / f"eliminate_{tag}_map.json"
    save_field(result.field, field_path)
    map_path.write_text(json.dumps(result.map.to_dict(), indent=1) + "\n")
    payload = {
        "perturbation": pert_info,
        "sweeps": result.sweeps,
        "final_residual": result.residuals[-1],
        "at_floor": result.at_floor,
        "eps_hat": result.eps_hat,
        "inside_ball": result.inside_ball,
        "contraction_lhs": result.contraction_lhs,
        "contraction_rhs": result.contraction_rhs,
        "du_sup_bound": result.du_sup_bound,
        "gmres_failures": result.gmres_failures,
        "far_modes_in": far_modes_in,
        "far_solves": solves.counts(),
    }
    return 0, payload, [csv_path, field_path, map_path]


def scenario_orbit(config, out_dir, tag):
    params = build_params(config)
    slope = parse_slope(config["slope"])
    f, pert_info = perturbation_field(config, slope, params)
    probe = None
    if pert_info["kind"] == "resonant":
        # the last probe orbit's far-mode solves are the orbit's to reuse
        f, corrections, probe = stabilize_resonant_perturbation(f, slope, params)
        pert_info["stabilizing_corrections"] = corrections
    steps = int(config["steps"])
    orbit = renorm_orbit(f, slope, steps, params, x0_is_perturbation=True,
                         prefix=probe)
    csv_path = out_dir / f"orbit_{tag}.csv"
    write_csv(csv_path, config, ORBIT_COLUMNS, orbit_rows(orbit))
    payload = {
        "perturbation": pert_info,
        "completed": orbit.completed,
        "theta_hat": orbit.theta_hat,
        "monotone_from_2": orbit.monotone_from(2),
        "transient": orbit.transient_applied,
        "failure": str(orbit.failure) if orbit.failure else None,
        "failure_step": orbit.failure_step,
        "far_solves": orbit.solves.counts(),
    }
    return 0, payload, [csv_path]


ORBIT_COLUMNS = ["n", "a_n", "alpha_n", "norm_total", "norm_osc",
                 "norm_const_omega", "norm_const_Omega", "far_residual",
                 "newton_sweeps", "theta_hat_running"]


def orbit_rows(orbit):
    """One row of ORBIT_COLUMNS per orbit state."""
    rows = []
    for state in orbit.states:
        d = state.diagnostics
        theta_run = orbit.theta_hat_running(state.n)
        rows.append(
            [
                state.n,
                state.a,
                state.alpha,
                orbit.norms[state.n],
                d.norm_osc if d else "",
                d.const_omega if d else "",
                d.const_Omega if d else "",
                d.far_residual if d else "",
                d.newton_sweeps if d else "",
                theta_run if theta_run is not None else "",
            ]
        )
    return rows


def scenario_spectrum(config, out_dir, tag):
    slope = parse_slope(config["slope"])
    steps = int(config["steps"])
    cf = cf_expand(slope, steps + 2)
    rows = []
    for n in range(min(steps, len(cf.coefficients) - 1)):
        alpha = cf.tail_float(n)
        if alpha <= 1:
            continue
        cb = constant_block(alpha)
        omega_err = float(np.abs(cb.matrix @ cb.eigvec_zero).sum())
        cap_err = float(
            np.abs(cb.matrix @ cb.eigvec_nu - cb.nu * cb.eigvec_nu).sum()
        )
        rows.append([n, alpha, cb.nu, float(np.linalg.det(cb.matrix)),
                     omega_err, cap_err])
    csv_path = out_dir / f"spectrum_{tag}.csv"
    write_csv(csv_path, config,
              ["n", "alpha_n", "nu_n", "det_G", "omega_eigvec_residual",
               "Omega_eigvec_residual"], rows)
    payload = {"nu_values": [row[2] for row in rows]}
    return 0, payload, [csv_path]


def scenario_decay_probe(config, out_dir, tag):
    params = build_params(config)
    slope = parse_slope(config["slope"])
    n = int(config.get("steps", "6"))
    truncation = int(config["truncation"])
    cf = cf_expand(slope, n + 4)
    rep = stable_decay_probe(cf, params.sigma, truncation, n, params)
    ratios = rep.log_ratios()
    rows = []
    for i, j in enumerate(rep.j_values):
        rows.append([int(j), int(rep.surviving[i]), rep.norm_l1[i],
                     rep.norm_l2[i], rep.lambdas[i],
                     ratios.get(int(j), "")])
    csv_path = out_dir / f"decay-probe_{tag}.csv"
    write_csv(csv_path, config,
              ["j", "surviving_modes", "norm_l1", "norm_l2_power",
               "lambda_jn", "log_ratio"], rows)
    vals = [ratios[j] for j in sorted(ratios, reverse=True)]
    super_geometric = bool(np.all(np.diff(vals) > 0)) if len(vals) >= 2 else False
    payload = {"log_ratios": ratios, "super_geometric": super_geometric}
    return 0, payload, [csv_path]


def scenario_sweep(config, out_dir, tag):
    _, amps_text = config["perturb"].split(":")
    kind = config["perturb"].split(":")[0]
    amplitudes = [float(v) for v in amps_text.split(";")]
    sub_results = []
    artifacts = []
    far_solves = {"computed": 0, "reused": 0}
    for amp in amplitudes:
        sub = dict(config)
        sub["scenario"] = "orbit"
        sub["perturb"] = f"{kind}:{amp}"
        sub_tag = config_hash(sub)
        code, payload, arts = scenario_orbit(sub, out_dir, sub_tag)
        write_manifest(out_dir / f"orbit_{sub_tag}.json", sub, payload, arts, 0.0)
        artifacts.extend(arts)
        artifacts.append(out_dir / f"orbit_{sub_tag}.json")
        sub_results.append({"amplitude": amp, "tag": sub_tag,
                            "theta_hat": payload["theta_hat"],
                            "completed": payload["completed"]})
        for key in far_solves:
            far_solves[key] += payload["far_solves"][key]
    payload = {"runs": sub_results, "far_solves": far_solves}
    return 0, payload, artifacts


RUNNERS = {
    "cf": scenario_cf,
    "project": scenario_project,
    "scale": scenario_scale,
    "eliminate": scenario_eliminate,
    "orbit": scenario_orbit,
    "spectrum": scenario_spectrum,
    "decay-probe": scenario_decay_probe,
    "sweep": scenario_sweep,
}


def run_scenario(config: dict):
    """Execute a resolved configuration; returns (exit_code, artifact paths)."""
    scenario = config.get("scenario")
    if scenario not in RUNNERS:
        raise ConfigInvalid(f"unknown scenario {scenario!r}")
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = config_hash(config)
    started = time.time()
    code, payload, artifacts = RUNNERS[scenario](config, out_dir, tag)
    manifest_path = out_dir / f"{scenario}_{tag}.json"
    write_manifest(manifest_path, config, payload, artifacts,
                   time.time() - started)
    return code, list(artifacts) + [manifest_path]


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusrenorm",
        description="Renormalisation experiments for torus vector fields",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--slope", help="golden|sqrt2|silver, p/q, u,v,d,w, "
                                       "or decimal[@bits]")
        p.add_argument("--sigma")
        p.add_argument("--rho")
        p.add_argument("--rho-prime", dest="rho_prime")
        p.add_argument("--truncation")
        p.add_argument("--steps")
        p.add_argument("--perturb", help="resonant:amp | unstable:amp | mixed:amp")
        p.add_argument("--seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--tol")
        p.add_argument("--n-terms", dest="n_terms")
        p.add_argument("--dc-order", dest="dc_order")
        p.add_argument("--field-in", dest="field_in")
        p.add_argument("--side")
        p.add_argument("--cone")
        p.add_argument("--n-fields", dest="n_fields")
    return parser


def main(argv=None) -> int:
    # accept `--scenario name` as an alias for the subcommand form
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--scenario" in argv:
        i = argv.index("--scenario")
        name = argv[i + 1]
        argv = [name] + argv[:i] + argv[i + 2 :]
    args = build_parser().parse_args(argv)
    overrides = {
        k: v for k, v in vars(args).items()
        if k not in ("scenario", "config") and v is not None
    }
    try:
        file_config = load_config_file(args.config) if args.config else {}
        config = resolve_config(args.scenario, file_config, overrides)
        code, artifacts = run_scenario(config)
    except ConfigInvalid as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainExceeded, NoConvergence) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    for art in artifacts:
        print(art)
    return code


if __name__ == "__main__":
    sys.exit(main())
