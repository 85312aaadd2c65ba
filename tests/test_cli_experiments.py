import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from torusrenorm.cli_experiments import (
    config_hash,
    main,
    parse_perturbation,
    parse_slope,
    resolve_config,
    run_scenario,
)
from torusrenorm.errors import ConfigInvalid
from torusrenorm.fourier_field import load_field


class TestParsing:
    def test_named_slopes(self):
        assert parse_slope("golden").kind == "quadratic"
        assert parse_slope("sqrt2").kind == "quadratic"
        assert parse_slope("silver").kind == "quadratic"

    def test_rational(self):
        s = parse_slope("7/5")
        assert s.kind == "rational" and float(s) == pytest.approx(1.4)

    def test_quadratic_tuple(self):
        s = parse_slope("1,1,5,2")
        assert s.kind == "quadratic"
        assert float(s) == pytest.approx((1 + 5**0.5) / 2)

    def test_decimal_with_bits(self):
        s = parse_slope("1.4142135623730950488@128")
        assert s.kind == "real" and s.bits == 128

    def test_bad_slope(self):
        with pytest.raises(ConfigInvalid):
            parse_slope("not-a-slope")

    def test_perturbation(self):
        assert parse_perturbation("resonant:1e-3") == ("resonant", 1e-3)
        with pytest.raises(ConfigInvalid):
            parse_perturbation("bogus:1e-3")
        with pytest.raises(ConfigInvalid):
            parse_perturbation("resonant")

    def test_seed_required_for_random(self):
        with pytest.raises(ConfigInvalid):
            resolve_config("orbit", {}, {})
        config = resolve_config("orbit", {}, {"seed": "1"})
        assert config["seed"] == "1"

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=0.2\nseed=9\n")
        from torusrenorm.cli_experiments import load_config_file

        config = resolve_config("orbit", load_config_file(str(cfg)),
                                {"sigma": "0.15"})
        assert config["sigma"] == "0.15"  # CLI beats file
        assert config["seed"] == "9"

    def test_hash_stable(self):
        c1 = {"a": "1", "b": "2"}
        c2 = {"b": "2", "a": "1"}
        assert config_hash(c1) == config_hash(c2)


def run(scenario, tmp_path, **overrides):
    config = resolve_config(scenario, {}, {"out": str(tmp_path), **overrides})
    return config, run_scenario(config)


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

    def test_project_roundtrip(self, tmp_path):
        _, (code, artifacts) = run("project", tmp_path, slope="golden",
                                   seed="2", side="outside")
        assert code == 0
        manifest = json.loads(next(
            p for p in artifacts if "project" in p.name
            and not p.name.endswith("field.json")
            and p.suffix == ".json").read_text())
        assert manifest["results"]["complementary"] is True

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

    def test_scenario_flag_alias(self, tmp_path):
        code = main(["--scenario", "cf", "--slope", "sqrt2",
                     "--out", str(tmp_path)])
        assert code == 0

    def test_config_invalid_exit_two(self, tmp_path):
        code = main(["orbit", "--slope", "golden", "--out", str(tmp_path)])
        assert code == 2  # missing seed

    def test_artifact_paths_printed(self, tmp_path, capsys):
        main(["cf", "--slope", "golden", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert ".csv" in out and ".json" in out


# SHA-256 of each artifact of a small run: the CSV body without its comment
# header, and the eliminate scenario's field and map JSON.  A pin may change
# only with the reason recorded in CHANGES.md.
BYTE_PINS = {
    ("orbit", "--slope", "golden", "--perturb", "resonant:1e-3", "--steps", "3",
     "--truncation", "16", "--seed", "7"): {
        "csv": "0ca40c81e4c577e27ea2c4bcf23af8785b60a22faa5c0e8295d100bef8dd335f",
    },
    ("decay-probe", "--slope", "golden", "--steps", "6",
     "--truncation", "40"): {
        "csv": "7becaa2ae768927886e296fe45e8b00d049c84ff0a6275f997bdf485be6b860f",
    },
    ("cf", "--slope", "golden", "--n-terms", "60"): {
        "csv": "8315649ab64bf38ba94b3c713f597d202609e95d2b3bf0fa92ea4911fc082978",
    },
    ("eliminate", "--perturb", "mixed:1e-4", "--seed", "7",
     "--truncation", "16"): {
        "csv": "d3e45275cbd833d3a8a6c2e2a125d49ee6b1c96e2d1cd62455fd6aa2bab0528a",
        "field.json": "3d6bb50617022158c55bf92c41bd0f047b7827e6d82d3caa6cfdac16f8814091",
        "map.json": "78bb46b712202881652b324feef0f911cc6bab88d0d04d96609e557b0ab080bd",
    },
}


def artifact_digests(argv, out_dir):
    """SHA-256 of the CSV body and of any field/map JSON a CLI run writes."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main([*argv, "--out", str(out_dir)]) == 0
    digests = {}
    for line in printed.getvalue().splitlines():
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
    return digests


@pytest.mark.parametrize("argv", BYTE_PINS, ids=lambda argv: argv[0])
def test_outputs_keep_their_bytes(argv, tmp_path):
    assert artifact_digests(argv, tmp_path) == BYTE_PINS[argv]
