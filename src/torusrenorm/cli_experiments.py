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
import math
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid, DomainExceeded, NoConvergence, PrecisionExhausted
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
from .number_theory import DEFAULT_REAL_BITS, Slope, cf_expand, diophantine_probe
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
from .scaling_step import (
    operator_norm_bound,
    random_resonant_field,
    resonant_modes,
    scale_step,
)

# the step's settings default to the fields of RenormParams
DEFAULTS = {
    "slope": "golden",
    **{key: str(getattr(RenormParams, key))
       for key in ("sigma", "rho", "rho_prime", "truncation", "tol")},
    "steps": "8",
    "n_terms": "30",
    "dc_order": "0.0",
    "perturb": "resonant:1e-3",
    "out": "runs",
}


# ---------------------------------------------------------------------------
# configuration


def parse_slope(text: str) -> Slope:
    """A named slope, p/q, the surd u,v,d,w = (u + v sqrt d)/w, or a decimal
    with an optional @bits precision; ConfigInvalid for anything else, and
    for a slope that is zero or not a finite float."""
    text = text.strip()
    try:
        slope = Slope.named(text)
    except ValueError:
        slope = _parse_numeric_slope(text)
    if not 0 < abs(float(slope)) < np.inf:
        raise ConfigInvalid(f"slope {text!r} is zero or not a finite float")
    return slope


def _parse_numeric_slope(text: str) -> Slope:
    try:
        if "/" in text:
            p, q = text.split("/")
            return Slope.rational(int(p), int(q))
        if "," in text:
            u, v, d, w = (int(part) for part in text.split(","))
            return Slope.quadratic(u, v, d, w)
        decimal, at, bits = text.partition("@")
        bits = int(bits) if at else DEFAULT_REAL_BITS
        if bits < 1:
            raise ValueError(f"precision must be at least 1 bit, got {bits}")
        return Slope.real(decimal, bits=bits)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalid(f"cannot parse slope {text!r}: {exc}") from exc


def parse_perturbation(text: str):
    """'kind:amplitude' with kind in resonant | unstable | mixed and a
    finite amplitude."""
    try:
        kind, amp = text.split(":")
        amp = float(amp)
    except ValueError as exc:
        raise ConfigInvalid(f"perturbation must be kind:amp, got {text!r}") from exc
    if kind not in ("resonant", "unstable", "mixed"):
        raise ConfigInvalid(f"unknown perturbation kind {kind!r}")
    if not math.isfinite(amp):
        raise ConfigInvalid(f"perturbation amplitude must be finite, got {amp}")
    return kind, amp


def config_number(config: dict, key: str, kind=float, default=None,
                  least=None):
    """config[key], or default when the key is absent, converted by kind
    (int or float); ConfigInvalid when the key is absent and has no
    default, when the text is not such a number, when a float is not
    finite, or when the number is below least."""
    text = config.get(key, default)
    if text is None:
        raise ConfigInvalid(f"missing required key {key!r}")
    try:
        value = kind(text)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{key} must be {kind.__name__}, got {text!r}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigInvalid(f"{key} must be finite, got {value}")
    if least is not None and value < least:
        raise ConfigInvalid(f"{key} must be at least {least}, got {value}")
    return value


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config {path!r}: {exc}") from exc
    out = {}
    for line_no, line in enumerate(text.splitlines(), 1):
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
    return config


def config_hash(config: dict) -> str:
    canon = "\n".join(f"{k}={config[k]}" for k in sorted(config))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def build_params(config: dict):
    """(params, slope, omega = (1, slope)) of a configuration; ConfigInvalid
    for a sigma outside 0 < sigma < 1/3, widths outside 0 < kappa rho < rho',
    a negative tol, or a truncation whose resonant cone at the slope holds
    no mode."""
    slope = parse_slope(config["slope"])
    params = RenormParams(
        sigma=config_number(config, "sigma"),
        rho=config_number(config, "rho"),
        rho_prime=config_number(config, "rho_prime"),
        truncation=config_number(config, "truncation", int, least=1),
        tol=config_number(config, "tol", least=0),
    )
    try:
        kappa = params.kappa  # raises outside 0 < sigma < 1/3
    except ValueError as exc:
        raise ConfigInvalid(f"sigma {params.sigma}: {exc}") from exc
    if not 0 < kappa * params.rho < params.rho_prime:
        raise ConfigInvalid(
            f"widths need 0 < kappa*rho < rho', got kappa*rho = "
            f"{kappa * params.rho:.4g} and rho' = {params.rho_prime}"
        )
    omega = np.array([1.0, float(slope)])
    if not len(resonant_modes(omega, params.sigma, params.truncation)):
        raise ConfigInvalid(
            f"truncation {params.truncation} holds no resonant mode of slope "
            f"{config['slope']} at sigma {params.sigma}"
        )
    return params, slope, omega


def perturbation_field(config: dict, slope: Slope, params: RenormParams):
    """(f, description) of the configured perturbation f = X_0 - omega_0,
    a resonant draw taken as it is, without stabilisation."""
    kind, amp = parse_perturbation(config["perturb"])
    seed = config_number(config, "seed", int, least=0)
    if kind == "resonant":
        f = resonant_perturbation(slope, amp, params, seed)
    elif kind == "unstable":
        f = unstable_perturbation(float(slope), amp, params)
    else:
        f = mixed_perturbation(slope, amp, params, seed)
    return f, {"kind": kind, "amplitude": amp}


# ---------------------------------------------------------------------------
# output helpers


def _cell_formatter(kind):
    """How a CSV cell of this type is written: a float (numpy's too) as its
    shortest round-trip repr, a numpy integer as its int, the rest by str."""
    if issubclass(kind, float):
        return float.__repr__
    if issubclass(kind, np.floating):
        return lambda v: repr(float(v))
    if issubclass(kind, np.integer):
        return lambda v: str(int(v))
    return str


def write_csv(path: Path, config: dict, columns, rows) -> str:
    """Write the table under its configuration header, creating the
    directory; return the text."""
    lines = [f"# {k}={config[k]}" for k in sorted(config)]
    lines.append(",".join(columns))
    formatters = {}
    for row in rows:
        cells = []
        for v in row:
            kind = type(v)
            if kind not in formatters:
                formatters[kind] = _cell_formatter(kind)
            cells.append(formatters[kind](v))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return text


def _strict_json(value):
    """value with each non-finite float replaced by None, which JSON can
    hold (NaN and Infinity are not JSON)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def write_manifest(path: Path, config: dict, payload: dict, artifacts,
                   runtime: float):
    manifest = {
        "config": {k: config[k] for k in sorted(config)},
        "config_hash": config_hash(config),
        "artifacts": [str(a) for a in artifacts],
        "results": _strict_json(payload),
        "runtime_seconds": round(runtime, 3),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=1, default=str,
                               allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# scenarios


def scenario_cf(config, out_dir, tag):
    slope = parse_slope(config["slope"])
    n_terms = config_number(config, "n_terms", int, least=1)
    cf = cf_expand(slope, n_terms)
    probe = diophantine_probe(cf, config_number(config, "dc_order", least=0),
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
    text = write_csv(csv_path, config,
                     ["n", "a_n", "p_n", "q_n", "beta_n", "Atilde_n",
                      "K_q", "K_a", "K_beta", "K_Atilde"], rows)
    # the cf subcommand also prints its table
    print(text, end="")
    payload = {
        "termination": cf.termination,
        "period": cf.period,
        "K_max": {"q": probe.K_q_max, "a": probe.K_a_max,
                  "beta": probe.K_beta_max, "Atilde": probe.K_atilde_max},
    }
    return 0, payload, [csv_path]


def scenario_project(config, out_dir, tag):
    params, _, omega = build_params(config)
    if "field_in" in config:
        try:
            field = load_field(config["field_in"])
        except (OSError, ValueError, LookupError, TypeError) as exc:
            raise ConfigInvalid(
                f"cannot load field {config['field_in']!r}: {exc!r}") from exc
    else:
        rng = np.random.default_rng(config_number(config, "seed", int, least=0))
        field = FourierVectorField.constant(omega, params.truncation) + (
            random_resonant_field(omega, 3 * params.sigma, 1e-3,
                                  params.truncation, rng,
                                  width=params.rho_prime))
    cone_kind = config.get("cone", "far")
    if cone_kind == "far":
        cone = FarResonant(omega, params.sigma)
    elif cone_kind == "kappa":
        cone = Kappa(config_number(config, "a", int, "1", least=1),
                     params.kappa)
    else:
        raise ConfigInvalid(f"unknown cone {cone_kind!r}")
    side = config.get("side", "inside")
    if side not in ("inside", "outside"):
        raise ConfigInvalid("side must be inside or outside")
    kept = project(field, cone, side)
    other = project(field, cone, "outside" if side == "inside" else "inside")
    complementary = np.array_equal((kept + other).coeffs, field.coeffs)
    rows = [[side, len(kept), norm_r(kept, params.rho_prime),
             norm_prime_r(kept, params.rho_prime), complementary]]
    csv_path = out_dir / f"project_{tag}.csv"
    write_csv(csv_path, config,
              ["side", "modes", "norm", "norm_prime", "complementary"], rows)
    out_path = out_dir / f"project_{tag}_field.json"
    save_field(kept, out_path)
    payload = {"modes_kept": len(kept), "complementary": complementary}
    return (0 if complementary else 3), payload, [csv_path, out_path]


def scenario_scale(config, out_dir, tag):
    params, slope, omega = build_params(config)
    a = int(float(slope))
    if a < 1:
        raise ConfigInvalid(f"scale needs a slope of at least 1, got {float(slope)}")
    kind, amp = parse_perturbation(config["perturb"])
    if kind != "resonant":
        raise ConfigInvalid(f"scale draws resonant fields, not {kind!r} ones")
    rng = np.random.default_rng(config_number(config, "seed", int, least=0))
    bound = operator_norm_bound(a, params.rho, params.rho_prime, params.kappa)
    rows = []
    worst = 0.0
    n_fields = config_number(config, "n_fields", int, "100", least=1)
    for i in range(n_fields):
        field = random_resonant_field(omega, params.sigma, amp,
                                      params.truncation, rng,
                                      width=params.rho_prime)
        # the ratio does not depend on the amplitude, but the norms overflow;
        # the check below reports that, so numpy does not warn of it
        with np.errstate(over="ignore"):
            size = norm_r(field, params.rho_prime)
            if size == 0:
                raise ConfigInvalid(
                    f"scale needs a nonzero field, got amplitude {amp}")
            out = scale_step(field, a, params.rho, params.rho_prime,
                             params.kappa)
            scaled_size = norm_prime_r(out, params.rho)
        if not math.isfinite(size) or not math.isfinite(scaled_size):
            raise ConfigInvalid(f"amplitude {amp} overflows a field's norm")
        ratio = scaled_size / size
        worst = max(worst, ratio)
        rows.append([i, len(field), ratio, bound, ratio / bound])
    csv_path = out_dir / f"scale_{tag}.csv"
    write_csv(csv_path, config,
              ["sample", "modes", "ratio", "bound", "margin"], rows)
    payload = {"bound": bound, "worst_ratio": worst,
               "margin": worst / bound, "within_bound": worst <= bound}
    return (0 if worst <= bound else 3), payload, [csv_path]


def scenario_eliminate(config, out_dir, tag):
    params, slope, omega = build_params(config)
    f, pert_info = perturbation_field(config, slope, params)
    far_modes_in = len(project(f, FarResonant(omega, params.sigma), "outside"))
    solves = FarSolves()
    try:
        result = eliminate_far_perturbation(
            omega, f, params.sigma, tol=params.tol,
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
    params, slope, _ = build_params(config)
    steps = config_number(config, "steps", int, least=0)
    f, pert_info = perturbation_field(config, slope, params)
    # one table of far-mode solves for the secant's probes and the orbit
    solves = FarSolves()
    if pert_info["kind"] == "resonant":
        f, corrections = stabilize_resonant_perturbation(f, slope, params,
                                                         solves)
        pert_info["stabilizing_corrections"] = corrections
    orbit = renorm_orbit(f, slope, steps, params, solves)
    csv_path = out_dir / f"orbit_{tag}.csv"
    write_csv(csv_path, config, ORBIT_COLUMNS, orbit_rows(orbit))
    payload = {
        "perturbation": pert_info,
        "completed": orbit.completed,
        "theta_hat": orbit.theta_hat,
        "monotone_from_2": orbit.monotone_from(),
        "transient": orbit.transient_applied,
        "failure": str(orbit.failure) if orbit.failure else None,
        "failure_step": orbit.failure.step if orbit.failure else None,
        "far_solves": solves.counts(),
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
    steps = config_number(config, "steps", int, least=0)
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
    params, slope, _ = build_params(config)
    n = config_number(config, "steps", int, least=0)
    cf = cf_expand(slope, n + 4)
    rep = stable_decay_probe(cf, n, params)
    ratios = rep.log_ratios()
    rows = []
    for i, j in enumerate(rep.j_values):
        rows.append([int(j), int(rep.surviving[i]), rep.norm_l1[i],
                     rep.norm_l2[i], rep.lambdas[i],
                     ratios.get(int(j), "")])
    csv_path = out_dir / f"decay-probe_{tag}.csv"
    write_csv(csv_path, config,
              ["j", "surviving_modes", "norm_l1", "norm_l2",
               "lambda_jn", "log_ratio"], rows)
    vals = [ratios[j] for j in sorted(ratios, reverse=True)]
    super_geometric = bool(np.all(np.diff(vals) > 0)) if len(vals) >= 2 else False
    payload = {"log_ratios": ratios, "super_geometric": super_geometric}
    return 0, payload, [csv_path]


def scenario_sweep(config, out_dir, tag):
    kind, _, amps_text = config["perturb"].partition(":")
    amplitudes = [parse_perturbation(f"{kind}:{text}")[1]
                  for text in amps_text.split(";")]
    sub_results = []
    artifacts = []
    far_solves = {"computed": 0, "reused": 0}
    for amp in amplitudes:
        sub = dict(config, scenario="orbit", perturb=f"{kind}:{amp}")
        _, arts, payload = run_scenario(sub)
        artifacts.extend(arts)
        sub_results.append({"amplitude": amp, "tag": config_hash(sub),
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
    """Execute a resolved configuration and write its manifest; returns
    (exit_code, artifact paths, the manifest's results)."""
    scenario = config.get("scenario")
    if scenario not in RUNNERS:
        raise ConfigInvalid(f"unknown scenario {scenario!r}")
    # out_dir is made by the first write_csv (each scenario writes its CSV
    # before any other artifact) or write_manifest, so a run that its
    # configuration stops leaves no directory behind
    out_dir = Path(config["out"])
    tag = config_hash(config)
    started = time.perf_counter()
    code, payload, artifacts = RUNNERS[scenario](config, out_dir, tag)
    manifest_path = out_dir / f"{scenario}_{tag}.json"
    write_manifest(manifest_path, config, payload, artifacts,
                   time.perf_counter() - started)
    return code, list(artifacts) + [manifest_path], payload


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusrenorm",
        description="Renormalisation experiments for torus vector fields",
    )
    parser.add_argument("scenario", choices=RUNNERS)
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--slope", help="golden|sqrt2|silver, p/q, u,v,d,w, "
                                        "or decimal[@bits]")
    parser.add_argument("--sigma")
    parser.add_argument("--rho")
    parser.add_argument("--rho-prime", dest="rho_prime")
    parser.add_argument("--truncation")
    parser.add_argument("--steps")
    parser.add_argument("--perturb", help="resonant:amp | unstable:amp | mixed:amp")
    parser.add_argument("--seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--tol")
    parser.add_argument("--n-terms", dest="n_terms")
    parser.add_argument("--dc-order", dest="dc_order")
    parser.add_argument("--field-in", dest="field_in")
    parser.add_argument("--side")
    parser.add_argument("--cone")
    parser.add_argument("--n-fields", dest="n_fields")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        k: v for k, v in vars(args).items()
        if k not in ("scenario", "config") and v is not None
    }
    try:
        file_config = load_config_file(args.config) if args.config else {}
        config = resolve_config(args.scenario, file_config, overrides)
        code, artifacts, _ = run_scenario(config)
    except (ConfigInvalid, PrecisionExhausted) as exc:
        # the configured @bits of a real slope certify no digit at all
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
