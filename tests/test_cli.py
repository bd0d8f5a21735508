"""Config layering, artifact determinism, exit codes of the batch runner."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from csoc import cli
from csoc.cli import (
    ConfigError,
    ScenarioConfig,
    config_from_layers,
    main,
    read_config_file,
)
from csoc.wiener import RNG_ALGORITHM


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_single_scenario_writes_report_and_manifest(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "clifford", "--out-dir", str(out)]) == 0
    report = json.loads(read_bytes(out / "clifford.json"))
    assert report["passed"] is True
    assert report["scenario"] == "clifford"
    assert report["verifies"]
    manifest = json.loads(read_bytes(out / "manifest.json"))
    assert manifest["rng_algorithm"] == RNG_ALGORITHM
    assert manifest["seed"] == 0
    assert "timestamp" in manifest
    assert manifest["scenarios"] == ["clifford"]
    # timestamps live only in the manifest
    assert "timestamp" not in report


def test_reports_are_stable_json(tmp_path):
    out = tmp_path / "run"
    main(["run", "clifford", "--out-dir", str(out)])
    raw = read_bytes(out / "clifford.json")
    assert raw.endswith(b"\n")
    parsed = json.loads(raw)
    redumped = json.dumps(parsed, sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"
    assert raw == redumped.encode()


def test_rerun_is_byte_identical(tmp_path):
    # two interpreters with different hash seeds, so set and dict order cannot leak
    a, b = tmp_path / "a", tmp_path / "b"
    run_a = run_fresh("run", "all", "--out-dir", str(a), "--seed", "7", PYTHONHASHSEED="1")
    run_b = run_fresh("run", "all", "--out-dir", str(b), "--seed", "7", PYTHONHASHSEED="2")
    assert run_a.returncode == run_b.returncode == 0, run_a.stderr
    assert run_a.stdout == run_b.stdout
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert {"hjb-residual.json", "hjb-probes.json", "summary.json"} <= set(names)
    for name in names:
        if name != "manifest.json":
            assert read_bytes(a / name) == read_bytes(b / name), name


def test_probe_records_have_the_documented_shape(tmp_path):
    out = tmp_path / "run"
    main(["run", "hjb-residual", "--out-dir", str(out), "--probes", "8"])
    probes = json.loads(read_bytes(out / "hjb-probes.json"))["probes"]
    assert len(probes) == 8
    rec = probes[0]
    assert sorted(rec) == ["residual_im", "residual_re", "tau",
                           "w_star_im", "w_star_re", "z_im", "z_re"]
    assert len(rec["z_re"]) == 4


def test_failing_check_exits_one(tmp_path, monkeypatch, capsys):
    # a failing check fails the report, and so does a report with no checks
    for checks in ([cli._check("stub", 1.0, 0.5)], []):
        monkeypatch.setitem(cli.RUNNERS, "clifford",
                            lambda cfg: {"scenario": "clifford", "verifies": [],
                                         "checks": checks})
        out = tmp_path / "run"
        assert main(["run", "clifford", "--out-dir", str(out)]) == 1
        assert "clifford: FAIL" in capsys.readouterr().out
        assert json.loads(read_bytes(out / "clifford.json"))["passed"] is False


def test_bad_flag_value_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "clifford", "--metric", "bogus"])
    assert exc.value.code == 2


def test_invalid_config_value_exits_two(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "clifford", "--out-dir", str(out),
                 "--box-half-width", "-1.0"])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    # a negative seed is refused before numpy sees it, from a flag or the file
    ini = tmp_path / "seed.ini"
    ini.write_text("[common]\nseed = -1\n")
    for args in (["--seed", "-1"], ["--config", str(ini)]):
        assert main(["run", "moments", "--out-dir", str(out), *args]) == 2
        assert "config error: seed must be nonnegative, got -1" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    # jobs was a key until the probe thread pool was retired
    for key in ("wavelength", "jobs"):
        ini = tmp_path / f"{key}.ini"
        ini.write_text(f"[common]\n{key} = 3\n")
        code = main(["run", "clifford", "--config", str(ini),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 2
        assert f"unknown config key: {key}" in capsys.readouterr().err


def test_unknown_config_section_rejected(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[warp-drive]\nseed = 1\n")
    with pytest.raises(ConfigError):
        read_config_file(str(ini))


def test_domain_error_exits_three(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "hjb-residual", "--out-dir", str(out),
                 "--tau-f", "inf"])
    assert code == 3
    assert "domain error" in capsys.readouterr().err


def test_domain_error_in_run_all_still_runs_the_rest(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "all", "--out-dir", str(out), "--tau-f", "inf"]) == 3
    assert "domain error: hjb-residual: tau_f must be finite" in capsys.readouterr().err
    summary = json.loads(read_bytes(out / "summary.json"))
    assert sorted(summary["scenarios"]) == sorted(cli.SCENARIOS)
    assert summary["scenarios"]["hjb-residual"] is False
    assert summary["scenarios"]["clifford"] is True
    assert summary["passed"] is False
    assert summary["errors"] == {"hjb-residual": "tau_f must be finite"}
    assert not (out / "hjb-residual.json").exists()
    assert (out / "clifford.json").exists()


def run_fresh(*args, **env_vars):
    """`python -m csoc.cli` in a fresh interpreter, so numpy's warnings stay
    warnings; keyword arguments are set in its environment."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **env_vars)
    return subprocess.run([sys.executable, "-m", "csoc.cli", *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("flag", ["--m", "--box-half-width"])
def test_infinite_flag_is_a_domain_error_not_a_traceback(tmp_path, flag):
    out = tmp_path / "run"
    proc = run_fresh("run", "all", "--out-dir", str(out), flag, "inf")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    summary = json.loads(read_bytes(out / "summary.json"))
    assert summary["errors"] and summary["passed"] is False


@pytest.mark.parametrize("flag", ["--q", "--tau-lo"])
def test_negative_infinity_as_a_separate_value_acts_like_the_equals_form(tmp_path, flag):
    apart = run_fresh("run", "all", "--out-dir", str(tmp_path / "apart"), flag, "-inf")
    joined = run_fresh("run", "all", "--out-dir", str(tmp_path / "joined"), f"{flag}=-inf")
    assert "expected one argument" not in apart.stderr
    assert apart.returncode == joined.returncode != 2, apart.stderr
    assert (read_bytes(tmp_path / "apart" / "summary.json")
            == read_bytes(tmp_path / "joined" / "summary.json"))


@pytest.mark.parametrize("value", ["-inf", "-INFINITY", "-nan", "-1e-3", "-0.5"])
def test_float_flags_take_a_negative_value_apart(value):
    parser = cli.build_parser()
    for flag in ("--q", "--tau-lo", "--tau-hi", "--tau-f", "--rapidity", "--sigma-x"):
        apart = parser.parse_args(cli._glue_float_values(["run", "all", flag, value]))
        joined = parser.parse_args(["run", "all", f"{flag}={value}"])
        assert cli._flag_layer(apart) == cli._flag_layer(joined) != {}
    with pytest.raises(SystemExit) as exc:   # an int flag still refuses it
        main(["run", "all", "--seed", value])
    assert exc.value.code == 2


def test_nan_rapidity_fails_the_covariance_check(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "covariance", "--out-dir", str(out), "--rapidity", "nan"]) == 1
    report = json.loads(read_bytes(out / "covariance.json"))
    assert report["max_discrepancy"] == "NaN"


def test_nan_step_is_a_domain_error_for_moments(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "moments", "--out-dir", str(out), "--d-tau", "nan"]) == 3
    assert "d_tau must be finite and positive" in capsys.readouterr().err


def test_config_file_sections_layer_under_flags(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[common]\nseed = 5\nprobes = 16\n"
                   "[hjb-residual]\nprobes = 8\n")
    out_a = tmp_path / "a"
    main(["run", "hjb-residual", "--config", str(ini), "--out-dir", str(out_a)])
    manifest = json.loads(read_bytes(out_a / "manifest.json"))
    assert manifest["config"]["probes"] == "8"   # scenario section beats common
    assert manifest["config"]["seed"] == "5"
    out_b = tmp_path / "b"
    main(["run", "cr-scan", "--config", str(ini), "--out-dir", str(out_b)])
    manifest = json.loads(read_bytes(out_b / "manifest.json"))
    assert manifest["config"]["probes"] == "16"  # no cr-scan section
    out_c = tmp_path / "c"
    main(["run", "hjb-residual", "--config", str(ini), "--out-dir", str(out_c),
          "--probes", "4"])
    manifest = json.loads(read_bytes(out_c / "manifest.json"))
    assert manifest["config"]["probes"] == "4"   # flags beat the file


def test_env_var_provides_default_out_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(env_dir))
    assert main(["run", "clifford"]) == 0
    assert (env_dir / "clifford.json").exists()
    flag_dir = tmp_path / "from-flag"
    assert main(["run", "clifford", "--out-dir", str(flag_dir)]) == 0
    assert (flag_dir / "clifford.json").exists()


def test_config_round_trips_through_ini(tmp_path):
    cfg = ScenarioConfig(hbar=1 / 3, q=-1e-17, d_tau=0.1 + 2 ** -52,
                         sigma_y=0.7071067811865476,
                         potential="constant(0.2,0,-0.1,0)",
                         seed=123456789, out_dir="some/dir")
    ini = tmp_path / "cfg.ini"
    ini.write_text(cfg.to_ini())
    sections = read_config_file(str(ini))
    assert set(sections) == {"common"}
    cfg2 = config_from_layers(sections["common"])
    assert cfg2 == cfg


def test_config_validation_messages():
    with pytest.raises(ConfigError):
        ScenarioConfig(metric="euclidean")
    with pytest.raises(ConfigError):
        ScenarioConfig(epsilon=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(tau_lo=1.0, tau_hi=0.5)
    with pytest.raises(ConfigError):
        config_from_layers({"n_paths": "many"})


def test_parser_rejects_unknown_scenario():
    with pytest.raises(SystemExit) as exc:
        main(["run", "everything"])
    assert exc.value.code == 2


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "default: natural" in text
    assert "default: mostly-plus" in text


def refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_write_json_is_strict_with_explicit_non_finite_values(tmp_path):
    path = tmp_path / "report.json"
    cli.write_json(str(path), {"zscore": float("inf"), "lines": [-np.inf, np.nan],
                               "moment": complex(1.0, float("inf"))})
    report = json.loads(read_bytes(path), parse_constant=refuse_constant)
    assert report == {"zscore": "Infinity", "lines": ["-Infinity", "NaN"],
                      "moment": {"re": 1.0, "im": "Infinity"}}
    assert float(report["zscore"]) == float("inf")


def test_every_check_of_run_all_has_one_schema(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "all", "--out-dir", str(out)]) == 0
    for name in cli.SCENARIOS:
        report = json.loads(read_bytes(out / f"{name}.json"),
                            parse_constant=refuse_constant)
        assert report["checks"], name
        for check in report["checks"]:
            assert sorted(check) == ["direction", "limit", "name", "passed", "value"]
            assert check["direction"] in ("below", "above")
        assert report["passed"] is all(c["passed"] for c in report["checks"])


def test_run_all_honours_scenario_sections(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[hjb-residual]\nprobes = 3\n")
    out = tmp_path / "run"
    assert main(["run", "all", "--config", str(ini), "--out-dir", str(out)]) == 0
    assert len(json.loads(read_bytes(out / "hjb-probes.json"))["probes"]) == 3
    assert json.loads(read_bytes(out / "cr-scan.json"))["params"]["probes"] == 64
    manifest = json.loads(read_bytes(out / "manifest.json"))
    assert manifest["scenario_overrides"] == {"hjb-residual": {"probes": "3"}}


def test_audit_scenario_fails_when_no_probe_is_evaluated(tmp_path, monkeypatch):
    # a zero value field puts every free-particle root on the branch point
    monkeypatch.setattr(cli, "_audit_value_field", lambda metric: lambda tau, z: 0j)
    out = tmp_path / "run"
    assert main(["run", "equivalence-audit", "--out-dir", str(out), "--probes", "4"]) == 1
    report = json.loads(read_bytes(out / "equivalence-audit.json"))
    assert report["n_singular"] == 4
    assert report["max_disagreement"] == "Infinity"
    assert report["checks"][0]["passed"] is False
