"""Batch scenario runner: `csoc run <scenario>`.

Every verification in the library is exposed as a reproducible command.
Each run writes a manifest (config, seed, library version, RNG algorithm,
timestamp) plus one JSON report per scenario and CSV tables where the data
is plottable. Reports are byte-identical for identical (config, seed);
timestamps live only in the manifest.

Exit codes: 0 all checks within tolerance, 1 check failure, 2 config parse
error, 3 domain error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Optional, get_type_hints

import numpy as np

from . import __version__
from .errors import CsocError
from .spacetime import MOSTLY_MINUS, MOSTLY_PLUS, Metric
from .wiener import RNG_ALGORITHM, DiffusionSpec, moment_check
from .sde import constant_policy, integrate
from .ccalc import DomainBox, analyticity_scan
from .lagrangian import EMFieldConfig, em_lagrangian, vector_potential_preset
from .control import equivalence_audit, solve_optimal_control
from .hjb import (HJBProblem, boundary_residual, covariance_check,
                  dalembertian, hjb_residual_probe, probe_points)
from .dirac import (build_gammas, hopf_cole_check, hopf_cole_order,
                    linearization_check, linearized_residual, plane_wave,
                    route_consistency)

SCENARIOS = ("moments", "sde-demo", "cr-scan", "optimal-control",
             "equivalence-audit", "hjb-residual", "covariance", "hopf-cole",
             "clifford", "dirac-planewave")

ENV_OUT_DIR = "CSOC_OUTPUT_DIR"


class ConfigError(Exception):
    """Bad config file or flag value; maps to exit code 2."""


_METRICS = {"mostly-plus": MOSTLY_PLUS, "mostly-minus": MOSTLY_MINUS}

# the "natural" sentinel keeps optional amplitudes round-trippable in INI
_NATURAL = "natural"


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat, fully serializable run configuration.

    sigma_x / sigma_y of None mean the natural amplitude sqrt(hbar/m).
    """

    hbar: float = 1.0
    m: float = 1.0
    c: float = 1.0
    q: float = 0.0
    metric: str = "mostly-plus"
    epsilon: int = 1
    sigma_x: Optional[float] = None
    sigma_y: Optional[float] = None
    potential: str = "zero"
    d_tau: float = 0.001
    n_paths: int = 100000
    n_steps: int = 200
    demo_paths: int = 16
    probes: int = 64
    box_half_width: float = 1.0
    tau_lo: float = 0.0
    tau_hi: float = 1.0
    tau_f: float = 1.0
    rapidity: float = 0.3
    boost_axis: int = 1
    branch: str = "+"
    signing: str = "exact"
    seed: int = 0
    out_dir: str = "csoc-out"

    def __post_init__(self):
        if self.metric not in _METRICS:
            raise ConfigError(f"metric must be one of {sorted(_METRICS)}, "
                              f"got {self.metric!r}")
        if self.epsilon not in (1, -1):
            raise ConfigError(f"epsilon must be 1 or -1, got {self.epsilon}")
        if self.branch not in ("+", "-"):
            raise ConfigError(f"branch must be '+' or '-', got {self.branch!r}")
        if self.signing not in ("exact", "unsigned"):
            raise ConfigError(f"signing must be 'exact' or 'unsigned', "
                              f"got {self.signing!r}")
        for name in ("hbar", "m", "c", "d_tau", "box_half_width"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("n_paths", "n_steps", "demo_paths", "probes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.boost_axis not in (1, 2, 3):
            raise ConfigError(f"boost_axis must be 1, 2 or 3, got {self.boost_axis}")
        for name in ("sigma_x", "sigma_y"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not self.tau_lo < self.tau_hi:
            raise ConfigError("tau_lo must be below tau_hi")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    @property
    def metric_object(self) -> Metric:
        return _METRICS[self.metric]

    def diffusion(self) -> DiffusionSpec:
        if self.sigma_x is None and self.sigma_y is None:
            return DiffusionSpec.natural(self.hbar, self.m, self.epsilon,
                                         self.metric_object)
        sx = self.sigma_x if self.sigma_x is not None else float(np.sqrt(self.hbar / self.m))
        sy = self.sigma_y if self.sigma_y is not None else float(np.sqrt(self.hbar / self.m))
        return DiffusionSpec(sigma_x=sx, sigma_y=sy, epsilon=self.epsilon,
                             metric=self.metric_object)

    def box(self) -> DomainBox:
        return DomainBox.cube(self.box_half_width, self.tau_lo, self.tau_hi)

    def em_config(self) -> EMFieldConfig:
        a_fn, _ = vector_potential_preset(self.potential)
        return EMFieldConfig(q=self.q, m=self.m, c=self.c, A=a_fn,
                             metric=self.metric_object)

    def to_mapping(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name in ("sigma_x", "sigma_y") and v is None:
                v = _NATURAL
            out[f.name] = v if isinstance(v, str) else repr(v)
        return out

    def to_ini(self) -> str:
        lines = ["[common]"]
        lines += [f"{k} = {v}" for k, v in self.to_mapping().items()]
        return "\n".join(lines) + "\n"


# each key's type, read from the annotations of ScenarioConfig
_FIELD_TYPES = get_type_hints(ScenarioConfig)
_ALL_FIELDS = tuple(_FIELD_TYPES)

# argparse reads a separate value such as "-inf", "-nan" or "-1e-3" as an
# option, since its negative-number pattern covers plain decimals only; main
# glues such a value to the float flag before it, as "--flag=value"
_FLOAT_FLAGS = frozenset("--" + k.replace("_", "-") for k, kind in _FIELD_TYPES.items()
                         if kind in (float, Optional[float]))


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _glue_float_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _FLOAT_FLAGS and token.startswith("-") and _is_float(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _coerce(key: str, raw) -> object:
    if not isinstance(raw, str):
        return raw
    kind = _FIELD_TYPES[key]
    try:
        if kind == Optional[float]:
            return None if raw == _NATURAL else float(raw)
        if kind in (float, int):
            return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return raw


def config_from_layers(*layers: dict) -> ScenarioConfig:
    """Later layers win; string values are coerced to the field types."""
    merged: dict = {}
    for layer in layers:
        for key, raw in layer.items():
            if key not in _ALL_FIELDS:
                raise ConfigError(f"unknown config key: {key}")
            if raw is None:
                continue
            merged[key] = _coerce(key, raw)
    try:
        return ScenarioConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def read_config_file(path: str) -> dict:
    """Parse the INI file into {section: {key: raw string}}."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    known = set(SCENARIOS) | {"common"}
    sections = {}
    for name in parser.sections():
        if name not in known:
            raise ConfigError(f"unknown config section [{name}]")
        sections[name] = dict(parser.items(name))
    return sections


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        if math.isfinite(obj):
            return obj
        # strict JSON has no NaN or infinity; these strings read back with float()
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    return obj


def write_json(path: str, obj: dict) -> None:
    """Strict JSON: sorted keys, non-finite floats as "NaN"/"Infinity"/"-Infinity"."""
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _check(name: str, value: float, limit: float, direction: str = "below") -> dict:
    """One check: passes when value is below (or above) limit."""
    passed = value < limit if direction == "below" else value > limit
    return {"name": name, "value": float(value), "limit": float(limit),
            "direction": direction, "passed": bool(passed)}


# one fixed demo point per scenario family, inside the default box
_PROBE_Z = np.array([0.11, -0.23, 0.17, 0.05]) + 1j * np.array([0.07, 0.13, -0.19, 0.02])


def run_moments(cfg: ScenarioConfig) -> dict:
    report = moment_check(cfg.diffusion(), [0.0] * 4, [0.0] * 4, cfg.d_tau,
                          cfg.n_paths, cfg.seed)
    lines = [{"name": ln.name, "estimate": ln.estimate, "target": ln.target,
              "stderr": ln.stderr, "zscore": ln.zscore, "flagged": ln.flagged}
             for ln in report.lines]
    csv_path = os.path.join(cfg.out_dir, "moments.csv")
    with open(csv_path, "w", newline="\n") as fh:
        fh.write("name,estimate,target,stderr,zscore,flagged\n")
        for ln in report.lines:
            fh.write("%s,%.17g,%.17g,%.17g,%.17g,%d\n"
                     % (ln.name, ln.estimate, ln.target, ln.stderr,
                        ln.zscore, ln.flagged))
    return {
        "scenario": "moments",
        "verifies": ["increment-mean-drift", "increment-sheet-variances",
                     "cross-sheet-correlation-sign"],
        "params": {"n_paths": cfg.n_paths, "d_tau": cfg.d_tau,
                   "seed": cfg.seed, "epsilon": cfg.epsilon,
                   "metric": cfg.metric},
        "n_lines": len(lines), "n_flagged": report.n_flagged,
        "worst_zscore": abs(report.worst.zscore), "z_max": report.z_max,
        "lines": lines,
        "checks": [_check("flagged-lines", report.n_flagged, 1.0)],
        "artifacts": ["moments.csv"],
    }


def run_sde_demo(cfg: ScenarioConfig) -> dict:
    spec = cfg.diffusion()
    w_bar = np.zeros(4, dtype=np.complex128)
    w_bar[0] = cfg.c
    ens = integrate(constant_policy(w_bar), spec, np.zeros(4, np.complex128),
                    cfg.d_tau, cfg.n_steps, cfg.demo_paths, cfg.seed)
    csv_path = os.path.join(cfg.out_dir, "trajectories.csv")
    ens.to_csv(csv_path)
    tau_total = cfg.d_tau * cfg.n_steps
    final_x0 = ens.x[:, -1, 0]
    drift_err = float(abs(final_x0.mean() - cfg.c * tau_total))
    se = float(spec.sigma_x[0] * np.sqrt(tau_total / cfg.demo_paths))
    limit = max(5.0 * se, 1e-12)
    return {
        "scenario": "sde-demo",
        "verifies": ["paired-euler-integration", "trajectory-dump-format"],
        "params": {"demo_paths": cfg.demo_paths, "n_steps": cfg.n_steps,
                   "d_tau": cfg.d_tau, "seed": cfg.seed},
        "n_failed_paths": len(ens.failed_paths),
        "checks": [_check("final-drift-error", drift_err, limit),
                   _check("failed-paths", float(len(ens.failed_paths)), 1.0)],
        "artifacts": ["trajectories.csv"],
    }


def _cr_fields(metric: Metric):
    eta = metric.eta

    def analytic(tau, z):
        return complex(np.sum(eta * z * z)) + 0.1 * complex(np.exp(z[0])) + tau * complex(z[1])

    def twisted(tau, z):
        return analytic(tau, z) + 0.5 * complex(np.conj(z[0]))

    return analytic, twisted


def run_cr_scan(cfg: ScenarioConfig) -> dict:
    pts = probe_points(cfg.box(), cfg.probes)
    analytic, twisted = _cr_fields(cfg.metric_object)
    good = analyticity_scan(analytic, pts)
    bad = analyticity_scan(twisted, pts)
    worst_good = good.results[good.worst_index].scaled_residual
    worst_bad = bad.results[bad.worst_index].scaled_residual
    return {
        "scenario": "cr-scan",
        "verifies": ["cauchy-riemann-consistency", "analyticity-refusal"],
        "params": {"probes": cfg.probes, "tol": good.tol},
        "analytic_worst_residual": worst_good,
        "non_analytic_worst_residual": worst_bad,
        "checks": [_check("analytic-worst", worst_good, good.tol),
                   _check("non-analytic-detected", worst_bad, 0.1, "above")],
    }


def run_optimal_control(cfg: ScenarioConfig) -> dict:
    lag = em_lagrangian(cfg.em_config())
    dj = np.array([0.3, -0.2, 0.1, 0.05]) + 0.02j * np.ones(4)
    result = solve_optimal_control(lag, dj, tau=0.1, z=_PROBE_Z)
    closed = lag.em.stationary_control(0.1, _PROBE_Z, dj)
    diff = float(np.abs(result.w_star.components - closed).max())
    res = float(np.abs(result.residual_complex).max())
    return {
        "scenario": "optimal-control",
        "verifies": ["stationarity-newton-root", "closed-form-control-match"],
        "params": {"q": cfg.q, "m": cfg.m, "c": cfg.c,
                   "potential": cfg.potential},
        "iterations": result.iterations,
        "w_star_re": list(result.w_star.components.real),
        "w_star_im": list(result.w_star.components.imag),
        "checks": [_check("newton-residual", res, 1e-10),
                   _check("closed-form-difference", diff, 1e-8)],
    }


def _audit_value_field(metric: Metric):
    eta = metric.eta

    def field(tau, z):
        return 0.1 * complex(np.sum(eta * z * z)) + 0.3 * complex(z[0]) + 0.05 * tau
    return field


def run_equivalence_audit(cfg: ScenarioConfig) -> dict:
    lag = em_lagrangian(cfg.em_config())
    pts = probe_points(cfg.box(), cfg.probes)
    report = equivalence_audit(lag, _audit_value_field(cfg.metric_object), pts)
    n_singular = len(report.singular_probes)
    # a maximum over no compared roots is no evidence that the roots agree
    disagreement = report.max_disagreement if n_singular < len(pts) else float("inf")
    return {
        "scenario": "equivalence-audit",
        "verifies": ["real-pair-imag-pair-equivalence",
                     "closed-form-control-match"],
        "params": {"probes": cfg.probes, "tol": report.tol},
        "max_disagreement": disagreement,
        "max_closed_form_disagreement": report.max_closed_form_disagreement,
        "n_singular": n_singular,
        "checks": [_check("pair-root-disagreement", disagreement, report.tol)],
    }


def run_hjb_residual(cfg: ScenarioConfig) -> dict:
    metric = cfg.metric_object
    lag = em_lagrangian(cfg.em_config())
    problem = HJBProblem(lagrangian=lag, diffusion=cfg.diffusion(), tau_f=cfg.tau_f)
    sigma_tilde = metric.sigma_tilde
    scale = sigma_tilde * cfg.m * cfg.c * cfg.c

    def value(tau, z):
        return complex(scale * (cfg.tau_f - tau))

    pts = probe_points(cfg.box(), cfg.probes)
    records = [hjb_residual_probe(problem, value, tau, z).to_record() for tau, z in pts]
    worst = max(np.hypot(r["residual_re"], r["residual_im"]) for r in records)
    boundary = boundary_residual(problem, value, [z for _, z in pts])
    json_path = os.path.join(cfg.out_dir, "hjb-probes.json")
    write_json(json_path, {"probes": records})
    return {
        "scenario": "hjb-residual",
        "verifies": ["value-residual-after-substitution",
                     "terminal-boundary-zero"],
        "params": {"probes": cfg.probes, "tau_f": cfg.tau_f,
                   "metric": cfg.metric},
        "max_abs_residual": float(worst),
        "boundary_residual": boundary,
        "checks": [_check("max-abs-residual", worst, 1e-6),
                   _check("boundary-residual", boundary, 1e-12)],
        "artifacts": ["hjb-probes.json"],
    }


def run_covariance(cfg: ScenarioConfig) -> dict:
    metric = cfg.metric_object
    eta = metric.eta

    def value(tau, z):
        return complex(np.sum(eta * z * z))

    pts = probe_points(cfg.box(), min(cfg.probes, 8))
    # np.max, unlike the builtin, propagates a NaN discrepancy
    worst = float(np.max([covariance_check(value, metric, cfg.rapidity, cfg.boost_axis,
                                           tau, z) for tau, z in pts]))
    d_val = dalembertian(value, pts[0][0], pts[0][1], metric)
    return {
        "scenario": "covariance",
        "verifies": ["dalembertian-boost-invariance"],
        "params": {"rapidity": cfg.rapidity, "axis": cfg.boost_axis,
                   "metric": cfg.metric},
        "dalembertian_re": d_val.real, "dalembertian_im": d_val.imag,
        "max_discrepancy": worst,
        "checks": [_check("boost-discrepancy", worst, 1e-6)],
    }


def run_hopf_cole(cfg: ScenarioConfig) -> dict:
    metric = cfg.metric_object
    a = np.array([0.3, -0.2, 0.1, 0.4])
    eta = metric.eta

    def linear(tau, z):
        return complex(np.sum(a * z))

    def quadratic(tau, z):
        return 0.25 * complex(np.sum(eta * z * z)) + complex(np.sum(a * z))

    z0 = _PROBE_Z
    r_lin = hopf_cole_check(linear, 0.2, z0, metric, h=1e-3).residual
    r_quad = hopf_cole_check(quadratic, 0.2, z0, metric, h=1e-3).residual
    order = hopf_cole_order(quadratic, 0.2, z0, metric)
    return {
        "scenario": "hopf-cole",
        "verifies": ["exponential-substitution-identity",
                     "second-order-stencil-convergence"],
        "params": {"h": 1e-3, "metric": cfg.metric},
        "linear_residual": r_lin, "quadratic_residual": r_quad,
        "observed_order": order,
        "checks": [_check("linear-residual", r_lin, 1e-6),
                   _check("quadratic-residual", r_quad, 1e-6),
                   _check("order-deviation", abs(order - 2.0), 0.3)],
    }


def run_clifford(cfg: ScenarioConfig) -> dict:
    gammas = build_gammas(cfg.metric_object)
    anti = gammas.anticommutator_residual()
    lin = linearization_check(gammas, n=100, seed=cfg.seed)
    json_path = os.path.join(cfg.out_dir, "gammas.json")
    write_json(json_path, gammas.to_payload())
    return {
        "scenario": "clifford",
        "verifies": ["anticommutator-table", "slash-square-scalar"],
        "params": {"metric": cfg.metric, "seed": cfg.seed,
                   "representation": gammas.representation},
        "anticommutator_residual": anti,
        "linearization_residual": lin,
        "checks": [_check("anticommutator-residual", anti, 1e-14),
                   _check("linearization-residual", lin, 1e-12)],
        "artifacts": ["gammas.json"],
    }


def run_dirac_planewave(cfg: ScenarioConfig) -> dict:
    gammas = build_gammas(cfg.metric_object)
    p = np.array([0.3, 0.2, -0.1, 0.4]) * cfg.m * cfg.c
    common = dict(hbar=cfg.hbar, m=cfg.m, c=cfg.c)

    free = plane_wave(gammas, p, branch=cfg.branch, **common)
    res_free = float(np.abs(linearized_residual(
        gammas, free.phi, 0.17, _PROBE_Z, **common)).max())

    a_const = np.array([0.2, -0.1, 0.05, 0.15])
    q = cfg.q if cfg.q != 0.0 else 0.5
    coupled = plane_wave(gammas, p, q=q, a_const=a_const, branch=cfg.branch,
                         **common)
    res_coupled = float(np.abs(linearized_residual(
        gammas, coupled.phi, 0.17, _PROBE_Z, q=q,
        A=lambda tau, z: a_const, **common)).max())

    route = route_consistency(gammas, coupled.phi, 0.17, _PROBE_Z, q=q,
                              A=lambda tau, z: a_const,
                              components=(0, 2), signing=cfg.signing, **common)
    return {
        "scenario": "dirac-planewave",
        "verifies": ["plane-wave-dispersion",
                     "linear-nonlinear-route-agreement"],
        "params": {"metric": cfg.metric, "branch": cfg.branch,
                   "signing": cfg.signing, "q": q},
        "eigenvalue": {"re": free.g.real, "im": free.g.imag},
        "frequency": {"re": free.lam.real, "im": free.lam.imag},
        "eigen_residual": free.eigen_residual,
        "free_residual": res_free,
        "coupled_residual": res_coupled,
        "route_components": list(route.components),
        "route_discrepancy": route.max_discrepancy,
        "checks": [_check("free-plane-wave-residual", res_free, 1e-6),
                   _check("coupled-plane-wave-residual", res_coupled, 1e-6),
                   _check("route-discrepancy", route.max_discrepancy, 1e-6)],
    }


RUNNERS: dict[str, Callable[[ScenarioConfig], dict]] = {
    "moments": run_moments,
    "sde-demo": run_sde_demo,
    "cr-scan": run_cr_scan,
    "optimal-control": run_optimal_control,
    "equivalence-audit": run_equivalence_audit,
    "hjb-residual": run_hjb_residual,
    "covariance": run_covariance,
    "hopf-cole": run_hopf_cole,
    "clifford": run_clifford,
    "dirac-planewave": run_dirac_planewave,
}


def write_manifest(cfg: ScenarioConfig, configs: dict) -> None:
    """The run's config, plus each scenario's keys that its own section changed."""
    base = cfg.to_mapping()
    overrides = {}
    for name, scenario_cfg in configs.items():
        changed = {k: v for k, v in scenario_cfg.to_mapping().items() if base[k] != v}
        if changed:
            overrides[name] = changed
    manifest = {
        "version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "seed": cfg.seed,
        "scenarios": list(configs),
        "config": base,
        "scenario_overrides": overrides,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest)


def run(scenario: str, cfg: ScenarioConfig, configs: dict) -> int:
    """Run one scenario or all of them; returns the process exit code.

    cfg is the run's own config (manifest, summary); configs maps each
    scenario to run to its config resolved with its own section. A domain
    error fails its scenario, goes to the summary's errors map and makes the
    exit code 3 once the other scenarios have run.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_manifest(cfg, configs)
    summary, errors = {}, {}
    for name, scenario_cfg in configs.items():
        os.makedirs(scenario_cfg.out_dir, exist_ok=True)
        try:
            report = RUNNERS[name](scenario_cfg)
        except CsocError as exc:
            errors[name] = str(exc)
            summary[name] = False
            print(f"domain error: {name}: {exc}", file=sys.stderr)
        else:
            # one verdict rule: a report passes when it has checks and all pass
            checks = report.get("checks", [])
            report["passed"] = bool(checks) and all(c["passed"] for c in checks)
            write_json(os.path.join(scenario_cfg.out_dir, f"{name}.json"), report)
            summary[name] = report["passed"]
        print(f"{name}: {'pass' if summary[name] else 'FAIL'}")
    all_passed = all(summary.values())
    if scenario == "all":
        payload = {"scenarios": summary, "passed": all_passed}
        if errors:
            payload["errors"] = errors
        write_json(os.path.join(cfg.out_dir, "summary.json"), payload)
    return 3 if errors else 0 if all_passed else 1


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    defaults = ScenarioConfig()

    def flag(name, **kwargs):
        kwargs.setdefault("default", None)
        field = name.replace("-", "_")
        base = getattr(defaults, field)
        shown = _NATURAL if base is None else base
        kwargs["help"] = kwargs["help"] + f" (default: {shown})"
        parser.add_argument(f"--{name}", dest=field, **kwargs)

    flag("hbar", type=float, help="action scale")
    flag("m", type=float, help="mass")
    flag("c", type=float, help="speed scale")
    flag("q", type=float, help="charge coupling")
    flag("metric", choices=sorted(_METRICS), help="metric convention")
    flag("epsilon", type=int, choices=(1, -1), help="sheet correlation sign")
    flag("sigma-x", type=str, help="real-sheet amplitude, or 'natural'")
    flag("sigma-y", type=str, help="imaginary-sheet amplitude, or 'natural'")
    flag("potential", type=str,
         help="vector potential preset: zero | constant(a0,a1,a2,a3) "
              "| linear-electric(E)")
    flag("d-tau", type=float, help="proper-time step")
    flag("n-paths", type=int, help="Monte Carlo sample count")
    flag("n-steps", type=int, help="integration steps per path")
    flag("demo-paths", type=int, help="paths written by sde-demo")
    flag("probes", type=int, help="probe count for stencil scenarios")
    flag("box-half-width", type=float, help="domain box half width")
    flag("tau-lo", type=float, help="domain lower proper time")
    flag("tau-hi", type=float, help="domain upper proper time")
    flag("tau-f", type=float, help="terminal proper time")
    flag("rapidity", type=float, help="boost rapidity for covariance")
    flag("boost-axis", type=int, choices=(1, 2, 3), help="boost axis")
    flag("branch", choices=("+", "-"), help="plane-wave eigenvalue branch")
    flag("signing", choices=("exact", "unsigned"),
         help="route-consistency sign bookkeeping")
    flag("seed", type=int, help="RNG seed")
    flag("out-dir", type=str,
         help=f"output directory (env {ENV_OUT_DIR} overrides)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csoc",
        description="Batch verification scenarios for the complex "
                    "stochastic optimal control toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one scenario or all of them")
    runp.add_argument("scenario", choices=SCENARIOS + ("all",))
    runp.add_argument("--config", default=None,
                      help="INI config file ([common] plus per-scenario sections)")
    _add_override_flags(runp)
    return parser


def _flag_layer(args: argparse.Namespace) -> dict:
    layer = {}
    for name in _ALL_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            layer[name] = value if isinstance(value, str) else repr(value)
    return layer


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_glue_float_values(argv))
    try:
        sections = read_config_file(args.config) if args.config else {}
        env_out = os.environ.get(ENV_OUT_DIR)
        env_layer = {"out_dir": env_out} if env_out else {}
        flags = _flag_layer(args)

        def resolve(scenario: str) -> ScenarioConfig:
            # defaults, environment, [common], the scenario's section, flags
            return config_from_layers(env_layer, sections.get("common", {}),
                                      sections.get(scenario, {}), flags)

        cfg = resolve(args.scenario)   # "all" has no section of its own
        names = SCENARIOS if args.scenario == "all" else (args.scenario,)
        configs = {name: resolve(name) for name in names}
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(args.scenario, cfg, configs)


if __name__ == "__main__":
    sys.exit(main())
