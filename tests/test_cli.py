"""Config layering, artifact determinism, exit codes of the batch runner."""

import argparse
import csv
import dataclasses
import json
import os
import re
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
from csoc.errors import DomainError
from csoc.hjb import covariance_check
from csoc.sde import constant_policy, integrate_with_increments, path_increments
from csoc.spacetime import MOSTLY_PLUS
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


def test_bad_flag_value_exits_two(tmp_path, capsys):
    assert main(["run", "clifford", "--metric", "bogus"]) == 2
    assert "config error: metric must be one of" in capsys.readouterr().err


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
    # so is a potential that does not parse or has a non-finite argument,
    # also for the scenarios that ignore the key and for run all, which then
    # runs no scenario
    for preset, why in (("bogus(", "cannot parse potential preset 'bogus('"),
                        ("constant(nan,0,0,0)", "preset 'constant(nan,0,0,0)' needs finite"),
                        ("linear-electric(inf)", "preset 'linear-electric(inf)' needs finite"),
                        ("constant(0,1e400,0,0)", "preset 'constant(0,1e400,0,0)' needs finite")):
        ini.write_text(f"[common]\npotential = {preset}\n")
        for scenario in ("hjb-residual", "dirac-planewave", "all"):
            for args in (["--potential", preset], ["--config", str(ini)]):
                assert main(["run", scenario, "--out-dir", str(out), *args]) == 2
                assert f"config error: bad value for potential: {why}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_two(tmp_path, capsys):
    # jobs was a key until the probe thread pool was retired, and signing
    # until the planted-defect tests took over its wrong bookkeeping
    for key in ("wavelength", "jobs", "signing"):
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


@pytest.mark.parametrize("flag", ["--tau-hi", "--tau-f"])
def test_infinite_flag_is_a_domain_error_not_a_traceback(tmp_path, flag):
    out = tmp_path / "run"
    proc = run_fresh("run", "all", "--out-dir", str(out), flag, "inf")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    summary = json.loads(read_bytes(out / "summary.json"))
    assert summary["errors"] and summary["passed"] is False


def test_a_boost_that_overflows_is_a_domain_error(tmp_path):
    # a finite rapidity whose cosh overflows: one error line, no warning
    out = tmp_path / "run"
    proc = run_fresh("run", "covariance", "--out-dir", str(out), "--rapidity", "800",
                     PYTHONWARNINGS="error")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "domain error: covariance: boost rapidity must be finite with a finite cosh, got 800.0"]
    assert proc.stdout == "covariance: FAIL\n"
    assert not (out / "covariance.json").exists()


def test_a_horizon_that_overflows_is_a_domain_error(tmp_path):
    # d_tau finite, tau0 + n_steps * d_tau not: one error line, no warning
    out = tmp_path / "run"
    proc = run_fresh("run", "sde-demo", "--out-dir", str(out), "--d-tau", "1e308",
                     "--n-steps", "3", PYTHONWARNINGS="error")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "domain error: sde-demo: the horizon tau0 + n_steps * d_tau must be finite, "
        "got 0.0 + 3 * 1e+308"]
    assert proc.stdout == "sde-demo: FAIL\n"
    ok = ["run", "sde-demo", "--out-dir", str(tmp_path / "ok"), "--d-tau", "1e300",
          "--n-steps", "3"]
    assert main(ok) == 0


@pytest.mark.parametrize("scenario, error", [
    ("dirac-planewave", "p, a_const, q, hbar, m and c must all be finite"),
    ("hjb-residual", "the value field's scale sigma_tilde m c^2 must be finite, got -inf")])
def test_a_mass_and_light_speed_whose_product_overflows_is_a_domain_error(tmp_path, scenario,
                                                                          error):
    # m and c finite, m c (and m c^2) not: one error line, no warning
    out = tmp_path / "run"
    proc = run_fresh("run", scenario, "--out-dir", str(out), "--m", "1e200", "--c", "1e200",
                     PYTHONWARNINGS="error")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [f"domain error: {scenario}: {error}"]
    assert proc.stdout == f"{scenario}: FAIL\n"


@pytest.mark.parametrize("flags", [("--box-half-width", "1e308"),
                                   ("--tau-lo=-1e308", "--tau-hi", "1e308")])
def test_a_probe_box_whose_span_overflows_is_a_domain_error(tmp_path, flags):
    # finite bounds whose span is inf: no NaN probes, and no overflow warning
    out = tmp_path / "run"
    proc = run_fresh("run", "all", "--out-dir", str(out), *flags, PYTHONWARNINGS="error")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr and "overflow" not in proc.stderr
    errors = json.loads(read_bytes(out / "summary.json"))["errors"]
    assert set(errors) >= {"cr-scan", "equivalence-audit", "hjb-residual"}
    assert set(errors.values()) == {"the probe box span must be finite"}


@pytest.mark.parametrize("flag", ["--q", "--tau-lo"])
def test_negative_infinity_as_a_separate_value_acts_like_the_equals_form(tmp_path, flag):
    apart = run_fresh("run", "all", "--out-dir", str(tmp_path / "apart"), flag, "-inf")
    joined = run_fresh("run", "all", "--out-dir", str(tmp_path / "joined"), f"{flag}=-inf")
    assert "expected one argument" not in apart.stderr
    assert apart.returncode == joined.returncode != 2, apart.stderr
    assert (read_bytes(tmp_path / "apart" / "summary.json")
            == read_bytes(tmp_path / "joined" / "summary.json"))


@pytest.mark.parametrize("value", ["-inf", "-INFINITY", "-nan", "-1e-3", "-0.5"])
def test_float_flags_take_a_negative_value_apart(value, capsys):
    parser = cli.build_parser()
    for flag in ("--q", "--tau-lo", "--tau-hi", "--tau-f", "--rapidity", "--sigma-x"):
        apart = parser.parse_args(cli._glue_float_values(["run", "all", flag, value]))
        joined = parser.parse_args(["run", "all", f"{flag}={value}"])
        assert cli._flag_layer(apart) == cli._flag_layer(joined) != {}
    # an int flag takes it too, and refuses it as a config error
    assert main(["run", "all", "--seed", value]) == 2
    assert f"config error: bad value for seed: '{value}'" in capsys.readouterr().err


def test_nan_rapidity_fails_the_covariance_check(tmp_path):
    # the check refuses the NaN boost; the CLI refuses the value up front
    value = lambda tau, z: complex(np.sum(MOSTLY_PLUS.eta * z * z))
    z = np.array([0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.1j, 0.05 + 0.3j])
    with pytest.raises(DomainError, match="rapidity"):
        covariance_check(value, MOSTLY_PLUS, float("nan"), 1, 0.2, z)
    out = tmp_path / "run"
    assert main(["run", "covariance", "--out-dir", str(out), "--rapidity", "nan"]) == 2
    assert not out.exists()


def test_nan_step_is_a_domain_error_for_moments(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "moments", "--out-dir", str(out), "--d-tau", "nan"]) == 2
    assert "config error: d_tau must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["hbar", "m", "c", "d_tau", "box_half_width", "sigma_x",
                                 "sigma_y", "rapidity"])
def test_non_finite_value_is_one_config_error(tmp_path, capsys, key, value):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[common]\n{key} = {value}\n")
    for args in (["--" + key.replace("_", "-"), value], ["--config", str(ini)]):
        out = tmp_path / "run"
        assert main(["run", "all", "--out-dir", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: {key} must be finite")
        assert not out.exists()


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
    ini.write_text("[common]\n" + "".join(f"{k} = {v}\n" for k, v in cfg.to_mapping().items()))
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


CONFIG_FIELDS = dataclasses.fields(ScenarioConfig)


def _flag(field):
    return "--" + field.name.replace("_", "-")


def _sample_value(field):
    """A valid raw value for the key, other than its default."""
    choices = field.metadata["choices"]
    if choices:
        return str(next(c for c in choices if c != field.default))
    special = {"potential": "constant(0.1,0,0,0)", "out_dir": "elsewhere"}
    return special.get(field.name, "3" if cli._FIELD_TYPES[field.name] is int else "0.25")


@pytest.mark.parametrize("field", CONFIG_FIELDS, ids=lambda f: f.name)
def test_each_config_key_has_one_flag(field):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in sub.choices["run"]._actions if a.dest == field.name]
    assert [a.option_strings for a in actions] == [[_flag(field)]]


@pytest.mark.parametrize("field", CONFIG_FIELDS, ids=lambda f: f.name)
def test_help_shows_each_key_default_and_allowed_values(field, capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    entries = re.split(r"\n  (?=-)", capsys.readouterr().out)
    entry = " ".join(next(e for e in entries if e.startswith(_flag(field) + " ")).split())
    shown = "natural" if field.default is None else field.default
    assert f"(default: {shown})" in entry
    choices = field.metadata["choices"]
    if choices:
        assert entry.startswith(f"{_flag(field)} {{{','.join(map(str, choices))}}}")


@pytest.mark.parametrize("field", CONFIG_FIELDS, ids=lambda f: f.name)
def test_flag_and_ini_key_give_the_same_config(field, tmp_path):
    value = _sample_value(field)
    args = cli.build_parser().parse_args(
        cli._glue_float_values(["run", "all", _flag(field), value]))
    from_flag = config_from_layers(cli._flag_layer(args))
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[common]\n{field.name} = {value}\n")
    from_ini = config_from_layers(read_config_file(str(ini))["common"])
    assert from_flag == from_ini != ScenarioConfig()


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
    # the preset is a field on (N, 4) rows: one value per row
    monkeypatch.setattr(cli, "_audit_value_field", lambda metric: lambda tau, z: [0j] * len(z))
    out = tmp_path / "run"
    assert main(["run", "equivalence-audit", "--out-dir", str(out), "--probes", "4"]) == 1
    report = json.loads(read_bytes(out / "equivalence-audit.json"))
    assert report["n_singular"] == 4
    assert report["max_disagreement"] == "Infinity"
    assert report["checks"][0]["passed"] is False



def test_a_nan_hjb_residual_after_the_first_probe_fails_the_check(tmp_path, monkeypatch):
    # the builtin max keeps a finite maximum over a later NaN; np.max does not
    probe = cli.hjb_residual_probe
    calls = []

    def nan_at_the_second_probe(*args, **kwargs):
        r = probe(*args, **kwargs)
        calls.append(r)
        return dataclasses.replace(r, residual=complex("nan+nanj")) if len(calls) == 2 else r

    monkeypatch.setattr(cli, "hjb_residual_probe", nan_at_the_second_probe)
    out = tmp_path / "run"
    assert main(["run", "hjb-residual", "--probes", "4", "--out-dir", str(out)]) == 1
    report = json.loads(read_bytes(out / "hjb-residual.json"))
    assert report["max_abs_residual"] == "NaN"
    assert report["checks"][0]["passed"] is False


def test_one_path_regenerated_alone_matches_the_sde_demo_trajectory(tmp_path):
    # path k's increments depend on (seed, k) alone, so path 3 integrated by
    # itself reproduces its rows of trajectories.csv bit for bit
    out = tmp_path / "run"
    assert main(["run", "sde-demo", "--epsilon", "-1", "--sigma-x", "0.7",
                 "--out-dir", str(out)]) == 0
    cfg = ScenarioConfig(epsilon=-1, sigma_x=0.7)
    w_bar = np.array([cfg.c, 0, 0, 0], dtype=np.complex128)
    dWx = path_increments(cfg.d_tau, cfg.n_steps, cfg.seed, 3)
    ens = integrate_with_increments(constant_policy(w_bar), cfg.diffusion(), np.zeros(4),
                                    cfg.d_tau, dWx[None])
    with open(out / "trajectories.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row[0] == "3"]
    assert len(rows) == cfg.n_steps + 1
    got = np.array([[float(v) for v in row[3:]] for row in rows])
    assert np.array_equal(got.view(np.uint64), ens.states[0].view(np.uint64))
