import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import torusrenorm
from torusrenorm import cli_experiments
from torusrenorm.cli_experiments import (
    CONFIG_KEYS,
    DEFAULTS,
    RUNNERS,
    build_parser,
    config_hash,
    main,
    parse_perturbation,
    parse_slope,
    resolve_config,
    run_scenario,
)
from torusrenorm.errors import ConfigInvalid
from torusrenorm.fourier_field import (
    FourierVectorField,
    Kappa,
    load_field,
    mode_index,
    norm_r,
    save_field,
)
from torusrenorm.renorm_driver import RenormParams, unstable_perturbation


class TestParsing:
    def test_named_slopes(self):
        for name in ("golden", "sqrt2", "silver"):
            s = parse_slope(name)
            assert s.bits is None and not s.value.is_rational()

    def test_rational(self):
        s = parse_slope("7/5")
        assert s.bits is None and s.value.is_rational()
        assert float(s) == pytest.approx(1.4)

    def test_quadratic_tuple(self):
        s = parse_slope("1,1,5,2")
        assert s.bits is None and not s.value.is_rational()
        assert float(s) == pytest.approx((1 + 5**0.5) / 2)

    def test_decimal_with_bits(self):
        s = parse_slope("1.4142135623730950488@128")
        assert s.bits == 128 and isinstance(s.value, mpmath.ctx_iv.ivmpf)

    def test_bad_slope(self):
        with pytest.raises(ConfigInvalid):
            parse_slope("not-a-slope")

    def test_perturbation(self):
        assert parse_perturbation("resonant:1e-3") == ("resonant", 1e-3)
        with pytest.raises(ConfigInvalid):
            parse_perturbation("bogus:1e-3")
        with pytest.raises(ConfigInvalid):
            parse_perturbation("resonant")

    def test_seed_required_for_random(self, tmp_path, capsys):
        # each scenario reads the seed where it draws, before it writes
        for scenario in ("orbit", "sweep", "eliminate", "scale", "project"):
            argv = [scenario, "--truncation", "8", "--out", str(tmp_path)]
            assert main(argv) == 2
            assert "missing required key 'seed'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=0.2\nseed=9\n")
        from torusrenorm.cli_experiments import load_config_file

        config = resolve_config("orbit", load_config_file(str(cfg)),
                                {"sigma": "0.15"})
        assert config["sigma"] == "0.15"  # CLI beats file
        assert config["seed"] == "9"

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=1\ntruncaton=8\n")
        out = tmp_path / "out"
        out.mkdir()
        argv = ["cf", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert "unknown key 'truncaton'" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_every_key_read_is_listed_and_is_a_flag(self):
        # the keys cli_experiments reads: config["k"], config.get("k", ...),
        # config_number(config, "k", ...) and "k" in config
        tree = ast.parse(Path(cli_experiments.__file__).read_text())
        read = set()
        for node in ast.walk(tree):
            key = None
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                    and getattr(node.value, "id", None) == "config"):
                key = node.slice
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute) and func.attr == "get"
                        and getattr(func.value, "id", None) == "config"):
                    key = node.args[0]
                elif getattr(func, "id", None) == "config_number":
                    key = node.args[1]
            elif (isinstance(node, ast.Compare)
                  and isinstance(node.ops[0], ast.In)
                  and getattr(node.comparators[0], "id", None) == "config"):
                key = node.left
            if isinstance(key, ast.Constant):
                read.add(key.value)
        assert {"slope", "seed", "dc_order", "n_fields", "field_in"} <= read
        # the scenario is the positional argument, not a key
        assert read - {"scenario"} <= set(CONFIG_KEYS)
        assert set(DEFAULTS) <= set(CONFIG_KEYS)
        assert len(set(CONFIG_KEYS)) == len(CONFIG_KEYS)
        parser = build_parser()
        for key in CONFIG_KEYS:
            flag = "--" + key.replace("_", "-")
            assert getattr(parser.parse_args(["cf", flag, "v"]), key) == "v"

    def test_hash_stable(self):
        c1 = {"a": "1", "b": "2"}
        c2 = {"b": "2", "a": "1"}
        assert config_hash(c1) == config_hash(c2)


def run(scenario, tmp_path, **overrides):
    config = resolve_config(scenario, {}, {"out": str(tmp_path), **overrides})
    code, artifacts, _ = run_scenario(config)
    return config, (code, artifacts)


class TestScenarios:
    def test_cf_sqrt2(self, tmp_path):
        config, (code, artifacts) = run("cf", tmp_path, slope="sqrt2",
                                        n_terms="30")
        assert code == 0
        csv = next(p for p in artifacts if p.suffix == ".csv")
        body = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
        assert body[0].startswith("n,a_n,p_n,q_n,beta_n,Atilde_n,K_q")
        coeffs = [int(line.split(",")[1]) for line in body[1:]]
        assert coeffs == [1] + [2] * 29
        manifest = json.loads(next(
            p for p in artifacts if p.suffix == ".json").read_text())
        assert manifest["results"]["period"] == [1, 1]

    def test_cf_embeds_config(self, tmp_path):
        _, (code, artifacts) = run("cf", tmp_path, slope="golden")
        csv = next(p for p in artifacts if p.suffix == ".csv")
        text = csv.read_text()
        assert "# slope=golden" in text
        assert "# scenario=cf" in text

    def test_orbit_golden(self, tmp_path):
        config, (code, artifacts) = run(
            "orbit", tmp_path, slope="golden", seed="7",
            perturb="resonant:1e-3", steps="5",
        )
        assert code == 0
        manifest = json.loads(next(
            p for p in artifacts if p.name.startswith("orbit_")
            and p.suffix == ".json").read_text())
        assert manifest["results"]["completed"] == 5
        assert manifest["results"]["theta_hat"] < 1

    def test_orbit_unstable_perturbation(self, tmp_path, capsys):
        # a constant push along Omega_0 grows by about gamma^2 a step until
        # the orbit leaves the domain; a constant field has no far mode
        argv = ["orbit", "--slope", "golden", "--perturb", "unstable:1e-6",
                "--seed", "1", "--steps", "16", "--truncation", "16"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        manifest = Path(capsys.readouterr().out.splitlines()[-1])
        results = json.loads(manifest.read_text())["results"]
        assert results["perturbation"] == {"kind": "unstable",
                                           "amplitude": 1e-6}
        assert results["completed"] == 9 and results["failure_step"] == 9
        assert results["far_solves"] == {"computed": 0, "reused": 0}

    def test_orbit_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        out_a = run("orbit", a, slope="golden", seed="3",
                    perturb="mixed:1e-4", steps="3")[1][1]
        out_b = run("orbit", b, slope="golden", seed="3",
                    perturb="mixed:1e-4", steps="3")[1][1]
        csv_a = next(p for p in out_a if p.suffix == ".csv").read_text()
        csv_b = next(p for p in out_b if p.suffix == ".csv").read_text()
        strip = lambda t: "\n".join(
            l for l in t.splitlines() if not l.startswith("# out=")
        )
        assert strip(csv_a) == strip(csv_b)

    def test_spectrum_golden_nu(self, tmp_path):
        _, (code, artifacts) = run("spectrum", tmp_path, slope="golden")
        csv = next(p for p in artifacts if p.suffix == ".csv")
        body = [l for l in csv.read_text().splitlines()
                if not l.startswith("#")][1:]
        nu = float(body[0].split(",")[2])
        assert nu == pytest.approx(-((1 + 5**0.5) / 2) ** 2)

    def test_scale_bound_certificate(self, tmp_path):
        _, (code, artifacts) = run("scale", tmp_path, slope="golden",
                                   seed="11", n_fields="10")
        assert code == 0
        manifest = json.loads(next(
            p for p in artifacts if p.suffix == ".json").read_text())
        assert manifest["results"]["within_bound"] is True

    def test_scale_amplitude_overflowing_the_norms_exits_two(self, tmp_path):
        # every ratio read inf, exit 3, with "worst_ratio": Infinity; a fresh
        # process shows that numpy prints no overflow warning before the
        # error
        argv = ["scale", "--slope", "golden", "--seed", "1", "--truncation",
                "16", "--n-fields", "3", "--perturb", "resonant:1e308",
                "--out", str(tmp_path)]
        run = subprocess.run(
            [sys.executable, "-m", "torusrenorm.cli_experiments", *argv],
            env=package_env(), capture_output=True, text=True, timeout=120)
        assert run.returncode == 2
        assert run.stderr == (
            "configuration error: amplitude 1e+308 overflows a field's norm\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", ["mixed", "unstable"])
    def test_scale_refuses_a_kind_it_does_not_draw(self, kind, tmp_path,
                                                   capsys):
        # scale draws resonant fields; another kind would be recorded in
        # the CSV header without being drawn
        argv = ["scale", "--slope", "golden", "--seed", "1",
                "--perturb", f"{kind}:1e-3", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"configuration error: scale draws resonant fields, "
            f"not {kind!r} ones\n")
        assert not list(tmp_path.iterdir())

    def test_manifests_are_strict_json(self, tmp_path, capsys):
        # one coefficient leaves the probe empty and its K_max NaN
        assert main(["cf", "--slope", "355/113", "--n-terms", "1",
                     "--out", str(tmp_path)]) == 0
        manifest_path = capsys.readouterr().out.splitlines()[-1]

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        manifest = json.loads(Path(manifest_path).read_text(),
                              parse_constant=refuse)
        assert manifest["results"]["K_max"] == {
            "q": None, "a": None, "beta": None, "Atilde": None}

    def test_eliminate(self, tmp_path):
        _, (code, artifacts) = run(
            "eliminate", tmp_path, slope="golden", seed="5",
            perturb="mixed:1e-3", truncation="12",
        )
        assert code == 0
        field_path = next(p for p in artifacts if p.name.endswith("field.json"))
        field = load_field(field_path)
        assert len(field) > 0
        map_path = next(p for p in artifacts if p.name.endswith("map.json"))
        assert json.loads(map_path.read_text())["displacement"] is True
        manifest_path = next(p for p in artifacts if p.name.startswith("eliminate")
                             and p.suffix == ".json"
                             and not p.name.endswith(("field.json", "map.json")))
        assert json.loads(manifest_path.read_text())["results"]["gmres_failures"] == 0

    def test_eliminate_takes_a_resonant_draw_as_it_is(self, tmp_path):
        # a resonant draw has no far modes: no stabilising probes, no solve
        _, (code, artifacts) = run(
            "eliminate", tmp_path, slope="golden", seed="7",
            perturb="resonant:1e-3", truncation="16",
        )
        assert code == 0
        manifest_path = next(p for p in artifacts if p.name.startswith("eliminate")
                             and p.suffix == ".json"
                             and not p.name.endswith(("field.json", "map.json")))
        results = json.loads(manifest_path.read_text())["results"]
        assert results["far_solves"] == {"computed": 0, "reused": 0}
        assert results["perturbation"] == {"kind": "resonant", "amplitude": 1e-3}
        assert results["sweeps"] == 0
        field = load_field(next(p for p in artifacts
                                if p.name.endswith("field.json")))
        assert field.average().tolist() == [1.0, (1 + 5**0.5) / 2]

    def test_eliminate_runs_on_the_drawn_perturbation(self, tmp_path):
        # the input is f itself, not (omega + f) - omega, whose average
        # carries a round-off of eps * ||omega||: with no far mode, the
        # output perturbation is f and its norm at rho' is f's, exactly
        _, (code, artifacts) = run(
            "eliminate", tmp_path, seed="7", perturb="unstable:1e-3",
            truncation="16",
        )
        assert code == 0
        manifest_path = next(p for p in artifacts if p.name.startswith("eliminate")
                             and p.suffix == ".json"
                             and not p.name.endswith(("field.json", "map.json")))
        results = json.loads(manifest_path.read_text())["results"]
        f = unstable_perturbation((1 + 5**0.5) / 2, 1e-3,
                                  RenormParams(truncation=16))
        assert results["contraction_lhs"] == norm_r(f, 0.9)

    def test_project_roundtrip(self, tmp_path):
        _, (code, artifacts) = run("project", tmp_path, slope="golden",
                                   seed="2", side="outside")
        assert code == 0
        manifest = json.loads(next(
            p for p in artifacts if "project" in p.name
            and not p.name.endswith("field.json")
            and p.suffix == ".json").read_text())
        assert manifest["results"]["complementary"] is True

    def test_project_keeps_its_field(self, tmp_path):
        _, (code, artifacts) = run("project", tmp_path, slope="golden",
                                   seed="2", side="outside")
        assert code == 0
        assert len(set(artifacts)) == len(artifacts) == 3
        field_path = next(p for p in artifacts if p.name.endswith("_field.json"))
        field = load_field(field_path)
        manifest = json.loads(next(
            p for p in artifacts if p.suffix == ".json" and p != field_path
        ).read_text())
        assert len(field) == manifest["results"]["modes_kept"] > 0

    def test_project_draws_at_rho_prime(self, tmp_path):
        # the two sides of the cone add up to the drawn field omega + f,
        # whose perturbation f has norm 1e-3 at the configured width
        fields = []
        for side in ("inside", "outside"):
            _, (code, artifacts) = run("project", tmp_path / side, seed="2",
                                       truncation="8", rho_prime="0.8",
                                       side=side)
            assert code == 0
            fields.append(load_field(next(
                p for p in artifacts if p.name.endswith("_field.json"))))
        f = (fields[0] + fields[1]).minus_constant([1.0, (1 + 5**0.5) / 2])
        assert norm_r(f, 0.8) == pytest.approx(1e-3, rel=1e-13)

    def test_project_draws_at_the_perturb_amplitude(self, tmp_path, capsys):
        def drawn(perturb):
            fields = []
            for side in ("inside", "outside"):
                out = tmp_path / perturb / side
                _, (code, artifacts) = run("project", out, seed="2",
                                           truncation="8", perturb=perturb,
                                           side=side)
                assert code == 0
                fields.append(load_field(next(
                    p for p in artifacts if p.name.endswith("_field.json"))))
            return fields[0] + fields[1]

        small, big = drawn("resonant:1e-3"), drawn("resonant:1e-2")
        assert np.array_equal(small.average(), big.average())
        np.testing.assert_allclose(big.oscillatory().coeffs,
                                   10 * small.oscillatory().coeffs,
                                   rtol=1e-14, atol=0)
        argv = ["project", "--seed", "2", "--perturb", "mixed:1e-3",
                "--out", str(tmp_path / "mixed")]
        assert main(argv) == 2
        assert "not 'mixed' ones" in capsys.readouterr().err
        assert not (tmp_path / "mixed").exists()

    @pytest.mark.parametrize("key, value", [("seed", "2"),
                                            ("perturb", "mixed:1e-3")])
    def test_project_field_in_reads_no_seed_or_perturb(self, key, value,
                                                       tmp_path, capsys):
        # a loaded field is not drawn, so these would be recorded unread
        path = tmp_path / "field.json"
        save_field(FourierVectorField.constant([1.0, 2.0], 8), path)
        out = tmp_path / "out"
        argv = ["project", "--field-in", str(path), "--out", str(out)]
        assert main([*argv, "--" + key, value]) == 2
        assert f"project --field-in reads no {key}" in capsys.readouterr().err
        assert not out.exists()
        assert main([*argv, "--perturb", DEFAULTS["perturb"]]) == 0

    def test_kappa_cone_shift_is_the_slope_floor(self, tmp_path):
        # every mode of a truncation-8 field; silver = 1 + sqrt 2 gives a = 2
        index = mode_index(8)
        path = tmp_path / "field.json"
        save_field(FourierVectorField.from_array(
            np.ones((2, len(index)), dtype=complex), 8), path)
        _, (code, artifacts) = run("project", tmp_path, slope="silver",
                                   cone="kappa", field_in=str(path))
        assert code == 0
        kept = load_field(next(p for p in artifacts
                               if p.name.endswith("_field.json")))
        kappa = RenormParams().kappa
        k_2 = {k for k in map(tuple, index.k.tolist())
               if Kappa(2, kappa).contains(k)}
        assert set(kept.modes) == k_2
        assert k_2 != {k for k in map(tuple, index.k.tolist())
                       if Kappa(1, kappa).contains(k)}

    def test_decay_probe_dc_order_sets_beta(self, tmp_path):
        # beta enters Lambda_{j,n} alone; the default run keeps its pins
        argv = ("decay-probe", "--slope", "golden", "--steps", "6",
                "--truncation", "40")
        runs = []
        for extra in ((), ("--dc-order", "0.5")):
            out = tmp_path / str(len(extra))
            digests = artifact_digests((*argv, *extra), out)
            csv_path = next(out.glob("*.csv"))
            runs.append((digests, [l.split(",") for l in csv_path.read_text().splitlines()
                                   if not l.startswith("#")]))
        (pinned, default), (digests, ordered) = runs
        assert pinned == BYTE_PINS[argv]
        assert digests["results"] == pinned["results"]
        column = default[0].index("lambda_jn")
        assert default[0] == ordered[0] and len(default) == len(ordered) > 2
        for row, other in zip(default[1:], ordered[1:]):
            assert row[:column] + row[column + 1:] == other[:column] + other[column + 1:]
            assert row[column] != other[column]

    def test_sweep(self, tmp_path):
        _, (code, artifacts) = run(
            "sweep", tmp_path, slope="golden", seed="1",
            perturb="mixed:1e-4;1e-5", steps="2",
        )
        assert code == 0
        manifest = json.loads(next(
            p for p in artifacts if p.name.startswith("sweep_")).read_text())
        runs = manifest["results"]["runs"]
        assert len(runs) == 2
        assert runs[0]["tag"] != runs[1]["tag"]
        # each orbit's manifest is written once, with its own runtime
        orbit_manifests = [p for p in artifacts if p.name.startswith("orbit_")
                           and p.suffix == ".json"]
        assert [p.name for p in orbit_manifests] == [
            f"orbit_{run['tag']}.json" for run in runs]
        for path in orbit_manifests:
            assert json.loads(path.read_text())["runtime_seconds"] > 0

    @pytest.mark.parametrize("amplitudes", ["1e-3;1e-3", "1e-3;0.001"])
    def test_sweep_rejects_a_repeated_amplitude(self, amplitudes, tmp_path,
                                                capsys):
        # a repeat would run the same orbit again and overwrite its files
        out = tmp_path / "out"
        argv = ["sweep", "--seed", "1", "--perturb", f"resonant:{amplitudes}",
                "--steps", "1", "--truncation", "8", "--out", str(out)]
        assert main(argv) == 2
        assert "sweep repeats the amplitude 0.001" in capsys.readouterr().err
        assert not out.exists()

    def test_decay_probe(self, tmp_path):
        _, (code, artifacts) = run("decay-probe", tmp_path, slope="golden",
                                   steps="4", truncation="40")
        assert code == 0
        manifest = json.loads(next(
            p for p in artifacts if p.suffix == ".json").read_text())
        assert manifest["results"]["super_geometric"] is True


class TestMain:
    def test_exit_zero(self, tmp_path):
        code = main(["cf", "--slope", "golden", "--out", str(tmp_path)])
        assert code == 0

    def test_config_invalid_exit_two(self, tmp_path):
        code = main(["orbit", "--slope", "golden", "--out", str(tmp_path)])
        assert code == 2  # missing seed

    def test_a_rejected_configuration_creates_no_out_directory(self, tmp_path):
        out = tmp_path / "D"
        for argv in (["orbit"], ["orbit", "--seed", "1", "--sigma", "0.5"]):
            assert main([*argv, "--out", str(out)]) == 2
            assert not out.exists()

    def test_sigma_out_of_range_exit_two(self, tmp_path, capsys):
        # 0 < sigma < 1/3 is checked where the parameters are built, so a
        # scenario that never reads kappa rejects it too
        for argv in (["orbit", "--seed", "1", "--steps", "1",
                      "--truncation", "8", "--perturb", "mixed:1e-4"],
                     ["decay-probe", "--steps", "2", "--truncation", "8"]):
            code = main([*argv, "--sigma", "0.5", "--out", str(tmp_path)])
            assert code == 2
            assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["orbit", "--seed", "x"],
        ["decay-probe", "--truncation", "1.5"],
        ["decay-probe", "--sigma", "abc"],
        ["sweep", "--seed", "1", "--perturb", "resonant"],
        ["sweep", "--seed", "1", "--perturb", "resonant:1e-3;abc"],
        ["cf", "--slope", "1/x"],
        ["cf", "--slope", "golden@x"],
        ["cf", "--slope", "1,2,x,4"],
        ["cf", "--slope", "1/2/3"],
        ["cf", "--slope", "1/0"],
        ["cf", "--slope", "0.5@0"],
        ["cf", "--slope", "0.5@-5"],
        ["cf", "--n-terms", "0"],
        ["cf", "--n-terms", "-3"],
        ["decay-probe", "--steps", "-2"],
        # slopes that parse but that no expansion can start from
        ["cf", "--slope", "0"],
        ["cf", "--slope", "inf"],
        ["cf", "--slope", "nan"],
        ["cf", "--slope", "1e400"],
        ["cf", "--slope", "2.5@1"],
        ["orbit", "--steps", "-1", "--seed", "1"],
        ["sweep", "--steps", "-1", "--seed", "1"],
        ["spectrum", "--steps", "-2"],
        ["orbit", "--truncation", "-2", "--seed", "1"],
        ["eliminate", "--truncation", "-2", "--seed", "1"],
        ["decay-probe", "--truncation", "0"],
        # golden at sigma 0.1: the first resonant mode, (-3, 2), has norm 5
        ["orbit", "--truncation", "4", "--seed", "1"],
        # widths need 0 < kappa rho < rho' (kappa = 0.767 at sigma 0.1)
        ["orbit", "--rho", "2", "--seed", "1"],
        ["orbit", "--rho", "nan", "--seed", "1"],
        ["orbit", "--rho-prime", "0", "--seed", "1"],
        ["decay-probe", "--rho-prime", "-1"],
        ["orbit", "--tol", "-1", "--seed", "1"],
        ["cf", "--dc-order", "-1"],
        ["scale", "--slope", "1/2", "--seed", "1"],
        ["scale", "--n-fields", "-1", "--seed", "1"],
        ["orbit", "--perturb", "resonant:nan", "--seed", "1"],
        # a rational that overflows a float
        ["cf", "--slope", f"{10**400}/1"],
        # numpy's generators take no negative seed
        *([scenario, "--seed", "-1"]
          for scenario in ("orbit", "eliminate", "scale", "project", "sweep")),
        # the norm ratio of a zero field has no value
        ["scale", "--perturb", "resonant:0", "--seed", "1"],
        ["scale", "--perturb", "unstable:0", "--seed", "1"],
    ])
    def test_malformed_number_exit_two(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_exits_two(self, kind, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"sigma=0.1\n# \xff\xfe\n")
        argv = ["cf", "--config", str(path), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "configuration error: cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        None, '{"width": 0.9}', "[1, 2]", "{",
        '{"width": 0.9, "truncation": 0.9, "modes": []}',
    ], ids=["missing", "no-modes", "list", "broken", "float-truncation"])
    def test_unloadable_field_exits_two(self, text, tmp_path, capsys):
        path = tmp_path / "field.json"
        if text is not None:
            path.write_text(text)
        argv = ["project", "--field-in", str(path), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "cannot load field" in capsys.readouterr().err

    def test_kappa_cone_needs_a_positive_shift(self, tmp_path, capsys):
        # the shift a = floor(slope) of T_a is 0 below a slope of 1
        argv = ["project", "--cone", "kappa", "--slope", "3/5",
                "--seed", "1", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert ("project --cone kappa needs a slope of at least 1"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_singular_newton_trial_exits_three(self, tmp_path, capsys):
        # the full Newton step meets a singular DU and no shorter step
        # lowers the residual: the solve ends in NoConvergence, reported
        argv = ["eliminate", "--perturb", "mixed:2", "--seed", "2",
                "--truncation", "12", "--out", str(tmp_path)]
        assert main(argv) == 3
        manifest = next(tmp_path.glob("eliminate_*.json"))
        error = json.loads(manifest.read_text())["results"]["error"]
        assert error.startswith("far residual") and "after 1 sweeps" in error

    @pytest.mark.parametrize("argv, needed", [
        (["decay-probe", "--slope", "7/5"], 10),
        (["decay-probe", "--slope", "1e-300"], 10),
        # the stabilising secant's probe orbits need 8 coefficients
        (["orbit", "--slope", "7/5", "--seed", "1", "--steps", "2",
          "--truncation", "12"], 8),
    ])
    def test_short_expansion_exit_two(self, argv, needed, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{needed} needed" in err

    def test_every_scenario_parses(self):
        parser = build_parser()
        for name in RUNNERS:
            assert parser.parse_args([name, "--slope", "sqrt2"]).scenario == name

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--slope", "golden"]])
    def test_unknown_or_missing_scenario_exits_two(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_artifact_paths_printed(self, tmp_path, capsys):
        main(["cf", "--slope", "golden", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert ".csv" in out and ".json" in out


# e - 2 to 320 digits at 1024 bits, the real slope that perfbench expands
with mpmath.workdps(340):
    E_MINUS_2_AT_1024 = f"{mpmath.nstr(mpmath.e - 2, 320, strip_zeros=False)}@1024"

# SHA-256 of each artifact of a small run: the CSV body without its comment
# header, the field JSON of eliminate and project, eliminate's map JSON, and
# the manifest's results (json.dumps with sorted keys).  A pin may change only with the
# reason recorded in CHANGES.md.
BYTE_PINS = {
    ("orbit", "--slope", "golden", "--perturb", "resonant:1e-3", "--steps", "3",
     "--truncation", "16", "--seed", "7"): {
        "csv": "0ca40c81e4c577e27ea2c4bcf23af8785b60a22faa5c0e8295d100bef8dd335f",
        "results": "eade75db70af0119d6543748886694f8b37f336b8a1cc1b05b26238c30935b78",
    },
    # the exact l2 norm moved the column norm_l2_power -> norm_l2 by one ulp
    # in four of its cells, here and in the pin below
    ("decay-probe", "--slope", "golden", "--steps", "6",
     "--truncation", "40"): {
        "csv": "5c85980348384c21171d0e6c3a0326c724fa3f2bf70f3120114783b81f0e34bd",
        "results": "f53e984247be29fcaf8fa15a84eaf9bd4f9a28f9c097232a2ad782f8942c5c73",
    },
    # the decay input of the cf-decay benchmark workload
    ("decay-probe", "--slope", "golden", "--steps", "10",
     "--truncation", "120"): {
        "csv": "82253ca61609766a9b66ef86f67ffb0353d6b61d0c112a534b7c3a415b3079dd",
        "results": "563e5246c3fd88058f3491ddd8aeb07c3154ebcc15d357312763f8e73a2c796a",
    },
    ("cf", "--slope", "golden", "--n-terms", "60"): {
        "csv": "8315649ab64bf38ba94b3c713f597d202609e95d2b3bf0fa92ea4911fc082978",
        "results": "4e22f5c1af5035e0b6b7d5ea90c9967b354ba2b028243bc3d44279118f326cc7",
    },
    # field and map JSON no longer carry the field's unused "width" key.
    # eliminate runs on the drawn f, not on (omega + f) - omega: the field
    # JSON and the results moved here, and the results of the unstable pin
    ("eliminate", "--perturb", "mixed:1e-4", "--seed", "7",
     "--truncation", "16"): {
        "csv": "d3e45275cbd833d3a8a6c2e2a125d49ee6b1c96e2d1cd62455fd6aa2bab0528a",
        "field.json": "683475fb2f5428d123609353d6d6b656161e17288fa5de1f8e4286b6c3accf96",
        "map.json": "d6e7f72a2e3ca2f1624d47ffc7ade4e44ad961cf0bf37c854a8e15885a5935df",
        "results": "a512ce473b5130592642bcd99c7ec12df82fd14d648003bee9fcfa94dccd960c",
    },
    # inputs with no far mode: the elimination is the identity, no solve
    ("eliminate", "--perturb", "resonant:1e-3", "--seed", "7",
     "--truncation", "16"): {
        "csv": "cdcc16cedf211e56dae63700a4411b4b4499bd738b131fac5c818eb47c9edcc8",
        "field.json": "a3a206c68f85877510543a9ad99cc81bd9111185629251ca766b97e379961f5a",
        "map.json": "757819a2bd1da605d235c67600e00ffea2abad01f5aa2744f8d4746856e9f553",
        "results": "91307345f0fd80e0a127e59a0865d24e94dd099d114741aafaaab3dd04be481e",
    },
    ("eliminate", "--perturb", "unstable:1e-3", "--seed", "7",
     "--truncation", "16"): {
        "csv": "cdcc16cedf211e56dae63700a4411b4b4499bd738b131fac5c818eb47c9edcc8",
        "field.json": "850ce3adf2edb3d8924d0319c562c300f5fc415f8d1e6261dfd1945cc5c4f741",
        "map.json": "757819a2bd1da605d235c67600e00ffea2abad01f5aa2744f8d4746856e9f553",
        "results": "f6ca16934f32b74120cac7d8a6cfbc6c856076b0399cacf360dc139226da5259",
    },
    ("cf", "--slope", "sqrt2", "--n-terms", "400"): {
        "csv": "a1b7a3e391c302ada5d6085670ea26a8a379d5b461d730f0c4e32bd8607bfe60",
        "results": "8709ef3f25c0fcd3ee5f3bfcf7493f1e6ffd5f8c65bf28a6528fa02943e36c72",
    },
    ("cf", "--slope", "3,2,7,5", "--n-terms", "150"): {
        "csv": "cc622237319bac3268dd59694f60d5c32a4208be7d18165a56d9ff8855762573",
        "results": "c6eab7fcbd2e847b0c8c636b972dfa2ba93c44e248c21e1ea5d69cd5ea5b7930",
    },
    # correctly rounded floats: a conversion at a guessed working precision
    # put row 308's beta_n and the K_beta of rows 307 and 308 one ulp off
    ("cf", "--slope", "golden", "--n-terms", "400"): {
        "csv": "0491679eeceeab5cb27e99f662636f44b18d334bd6284c51207be27267c04fbe",
        "results": "4e22f5c1af5035e0b6b7d5ea90c9967b354ba2b028243bc3d44279118f326cc7",
    },
    ("cf", "--slope", E_MINUS_2_AT_1024, "--n-terms", "400"): {
        "csv": "db8070688402ba095eb3dd978041bc252ebb3a97777a0df4d85947ea81a227de",
        "results": "6a0a9bd456c0f8ac7bc09e7438133f41cf15654d5ff0b18fd6d36bb32cc0c86e",
    },
    # rational slopes: a finite expansion, and an orbit that starts on one
    ("cf", "--slope", "355/113", "--n-terms", "10"): {
        "csv": "2b2cc44bc7394a1bb43ad60ddda3738e0579f8c966ec69d594627a7daca0cf86",
        "results": "c6e0c028f257df3507e7e64e678fb56bca435102ec09a939e6e8abdba7d8d68f",
    },
    ("orbit", "--slope", "987/610", "--perturb", "resonant:1e-3", "--seed", "7",
     "--steps", "3", "--truncation", "16"): {
        "csv": "fcb32d5a3a53c8db34bb8a3c6a61277b237c1e01431d0da533845aa990d1e377",
        "results": "33197d205987bca1270794c37de0a655e1c385b6bea47e20da8301452ca71e4b",
    },
    # slopes below 1: a_0 = 0 transports k to its swap, a_0 = -1 past it
    ("decay-probe", "--slope", "0,1,2,2", "--steps", "2",
     "--truncation", "40"): {
        "csv": "6aefefe439dca5d695e48ca3647dec400f48de640a3534f83c5c44809e6e6a51",
        "results": "22509218be2cb7ee54b114b844b6589eaa705e697d465026a793fb1710418b96",
    },
    ("decay-probe", "--slope", "1,-1,5,2", "--steps", "2",
     "--truncation", "40"): {
        "csv": "13405612601f4bde771faefcd902a2400b01250dfd88eed7d5fe60eb2ec309a6",
        "results": "c1b2ad2fe218ed73b508edb3f075cf5fbc71202a6a81d1e5cfe8a46978806dfb",
    },
    # scale_step's cone check, resonant_modes (through random_resonant_field)
    # and both cone masks
    ("scale", "--slope", "golden", "--seed", "1", "--n-fields", "5",
     "--truncation", "16"): {
        "csv": "57ccb57237f3af5122193e42a08a019a90df7be2d33f8455e06e5b568368f052",
        "results": "75b0fc8f4e7736a072e0dcd279b72f02dc763c9b3a3a8315ed3a9d1fffa13d60",
    },
    ("project", "--seed", "1", "--truncation", "8", "--cone", "far"): {
        "csv": "e312d0ed4c722c42cb196e3569e9294dd045ab9b3f2c14100e6ae5ef81fd44c5",
        "field.json": "b3808280a3f23df1645dcabd8591404bc58e55eac0e2d26fe2af66a9878c1161",
        "results": "06391492bfb308398a5fb23c68459f0a1c757f35407c64c949f3e57f189d61af",
    },
    ("project", "--seed", "1", "--truncation", "8", "--cone", "kappa"): {
        "csv": "d6a680473c03d0a780d18e67f8f1549657a1980b4e4e81d602db8b5155e375e2",
        "field.json": "b54993e5b91f6e29bfb0b6ab124647068b888936c05846d28419695a3b843519",
        "results": "8bc54b3da7f8226bcf8309970fcc401e748e3dffcad1692b7762dbdf66dc1fe6",
    },
}


def pin_id(argv):
    """The scenario name for its first pin; later pins add the slope and
    the values of their other options."""
    first = next(pinned for pinned in BYTE_PINS if pinned[0] == argv[0])
    if argv == first:
        return argv[0]
    slope = "e-2@1024" if argv[2] == E_MINUS_2_AT_1024 else argv[2]
    return "-".join([argv[0], slope,
                     *(a for a in argv[3:] if not a.startswith("--"))])


def artifact_digests(argv, out_dir):
    """printed_digests of a CLI run in this process."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main([*argv, "--out", str(out_dir)]) == 0
    return printed_digests(argv, printed.getvalue().splitlines(), out_dir)


def printed_digests(argv, printed, out_dir):
    """SHA-256 of the CSV body, of any field/map JSON and of the manifest
    results of a CLI run, from the lines it printed."""
    digests = {}
    for line in printed:
        path = Path(line)
        if path.parent != out_dir:
            continue
        text = path.read_text()
        if path.suffix == ".csv":
            text = "".join(l for l in text.splitlines(keepends=True)
                           if not l.startswith("#"))
            digests["csv"] = hashlib.sha256(text.encode()).hexdigest()
        elif path.name.endswith(("_field.json", "_map.json")):
            kind = path.name.rsplit("_", 1)[1]
            digests[kind] = hashlib.sha256(text.encode()).hexdigest()
        elif path.name.startswith(f"{argv[0]}_"):
            results = json.dumps(json.loads(text)["results"], sort_keys=True)
            digests["results"] = hashlib.sha256(results.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("argv", BYTE_PINS, ids=pin_id)
def test_outputs_keep_their_bytes(argv, tmp_path):
    assert artifact_digests(argv, tmp_path) == BYTE_PINS[argv]


# A fresh interpreter that cannot import scipy imports the package, runs
# the CLI arguments it is given (if any), and prints the number of live
# threads as its last line.
COLD_PROBE = """
import sys, threading
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is hidden from this process")
sys.meta_path.insert(0, NoScipy())
import torusrenorm
if sys.argv[1:]:
    from torusrenorm.cli_experiments import main
    assert main(sys.argv[1:]) == 0
print(threading.active_count())
"""


def package_env(**variables):
    """The environment with this package's source first on PYTHONPATH and
    the given variables set."""
    env = dict(os.environ, **variables)
    src = str(Path(torusrenorm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def cold_probe(argv, out_dir, **variables):
    """Standard output of COLD_PROBE run on argv, writing to out_dir."""
    out_args = ("--out", str(out_dir)) if argv else ()
    return subprocess.run([sys.executable, "-c", COLD_PROBE, *argv, *out_args],
                          env=package_env(**variables), check=True,
                          capture_output=True, text=True, timeout=300).stdout


@pytest.mark.parametrize("argv", [
    pytest.param((), id="import"),
    pytest.param(("cf", "--slope", "golden", "--n-terms", "60"), id="cf"),
    pytest.param(("cf", "--slope", E_MINUS_2_AT_1024, "--n-terms", "400"),
                 id="cf-e-2@1024"),
    pytest.param(("decay-probe", "--slope", "golden", "--steps", "6",
                  "--truncation", "40"), id="decay-probe"),
    pytest.param(("eliminate", "--perturb", "mixed:1e-4", "--seed", "7",
                  "--truncation", "16"), id="eliminate"),
    pytest.param(("orbit", "--slope", "golden", "--perturb", "resonant:1e-3",
                  "--steps", "3", "--truncation", "16", "--seed", "7"),
                 id="orbit"),
    pytest.param(("project", "--seed", "1", "--truncation", "8", "--cone",
                  "far"), id="project"),
    pytest.param(("scale", "--slope", "golden", "--seed", "1", "--n-fields",
                  "5", "--truncation", "16"), id="scale"),
    pytest.param(("spectrum", "--slope", "golden", "--steps", "4"),
                 id="spectrum"),
    pytest.param(("sweep", "--slope", "golden", "--perturb", "mixed:1e-4;1e-5",
                  "--steps", "2", "--truncation", "16", "--seed", "1"),
                 id="sweep"),
])
def test_cold_process_loads_only_the_scipy_it_uses(argv, tmp_path):
    # the package needs no scipy: every scenario runs in a fresh process
    # that cannot import it, and its first calls give the pinned bytes
    *printed, threads = cold_probe(argv, tmp_path).splitlines()
    # no scenario leaves a thread behind
    assert threads == "1"
    if argv in BYTE_PINS:
        assert printed_digests(argv, printed, tmp_path) == BYTE_PINS[argv]


def test_no_module_imports_scipy():
    # the cold probe sees only the paths a scenario runs; this reads every
    # import statement of the package, at any depth
    imports = []
    for path in Path(torusrenorm.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append((path.name, node.module))
    assert imports
    assert [(name, module) for name, module in imports
            if module.split(".")[0] == "scipy"] == []


# The values a user or a caller can set: defaulted parameters of named
# functions at any depth, defaulted dataclass fields and the CLI's arguments.
# A new setting has to raise this ceiling, in a recorded change of this test.
SETTABLE_VALUES = 46


def test_settable_values_stay_under_the_ceiling():
    parameters, fields = [], []
    for path in sorted(Path(torusrenorm.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                parameters += [(path.name, node.name)
                               for d in node.args.defaults + node.args.kw_defaults
                               if d is not None]
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields += [(node.name, item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and item.value is not None]
    options = [a.dest for a in build_parser()._actions if a.dest != "help"]
    counts = (len(parameters), len(fields), len(options))
    assert sum(counts) <= SETTABLE_VALUES, (counts, parameters, fields, options)


# A fresh interpreter records OPENBLAS_NUM_THREADS when numpy is first
# imported and after `import torusrenorm`, and prints both.
PIN_PROBE = """
import json, os, sys
at_numpy = []
class FirstNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not at_numpy:
            at_numpy.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, FirstNumpy())
import torusrenorm
print(json.dumps([at_numpy, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.parametrize("value", [None, "2"])
def test_the_package_pins_openblas_before_numpy_loads(value):
    # the pullback's worker needs the second core that an idle OpenBLAS
    # helper thread spins on; a value the user sets wins
    env = package_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    run = subprocess.run([sys.executable, "-c", PIN_PROBE], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120)
    expected = value or "1"
    assert json.loads(run.stdout) == [[expected], expected]


@pytest.mark.parametrize("argv", [
    next(pinned for pinned in BYTE_PINS if pinned[0] == scenario)
    for scenario in ("orbit", "eliminate")], ids=pin_id)
def test_outputs_keep_their_bytes_with_two_openblas_threads(argv, tmp_path):
    # with OpenBLAS free to split the pullback's products, every block but
    # the last still spans a multiple of 64 columns
    printed = cold_probe(argv, tmp_path, OPENBLAS_NUM_THREADS="2")
    assert printed_digests(argv, printed.splitlines(),
                           tmp_path) == BYTE_PINS[argv]
