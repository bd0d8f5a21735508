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
from typing import Any, Callable, Optional, get_type_hints

import numpy as np

from . import __version__
from .errors import CsocError, DomainError
from .spacetime import MOSTLY_MINUS, MOSTLY_PLUS, Metric
from .wiener import RNG_ALGORITHM, DiffusionSpec, moment_check
from .sde import constant_policy, integrate
from .ccalc import DomainBox, _scan_rows
from .lagrangian import (EMFieldConfig, em_lagrangian, free_particle_lagrangian,
                         vector_potential_preset)
from .control import _audit_rows, solve_optimal_control
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


def _key(default, help: str, choices: tuple = ()) -> Any:
    """A config key: its default, the help of its flag and any allowed values."""
    return dataclasses.field(default=default,
                             metadata={"help": help, "choices": choices})


# keys whose value must be a finite number; a non-finite tau_lo, tau_hi,
# tau_f or q is left to the scenarios, which report it as a domain error
_FINITE_KEYS = ("hbar", "m", "c", "d_tau", "box_half_width", "sigma_x", "sigma_y",
                "rapidity")


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat, fully serializable run configuration.

    Each field is one INI key and one `csoc run` flag. sigma_x / sigma_y of
    None mean the natural amplitude sqrt(hbar/m).
    """

    hbar: float = _key(1.0, "action scale")
    m: float = _key(1.0, "mass")
    c: float = _key(1.0, "speed scale")
    q: float = _key(0.0, "charge coupling")
    metric: str = _key("mostly-plus", "metric convention", tuple(sorted(_METRICS)))
    epsilon: int = _key(1, "sheet correlation sign", (1, -1))
    sigma_x: Optional[float] = _key(None, "real-sheet amplitude, or 'natural'")
    sigma_y: Optional[float] = _key(None, "imaginary-sheet amplitude, or 'natural'")
    potential: str = _key("zero", "vector potential preset: zero | "
                                  "constant(a0,a1,a2,a3) | linear-electric(E)")
    d_tau: float = _key(0.001, "proper-time step")
    n_paths: int = _key(100000, "Monte Carlo sample count")
    n_steps: int = _key(200, "integration steps per path")
    demo_paths: int = _key(16, "paths written by sde-demo")
    probes: int = _key(64, "probe count for stencil scenarios")
    box_half_width: float = _key(1.0, "domain box half width")
    tau_lo: float = _key(0.0, "domain lower proper time")
    tau_hi: float = _key(1.0, "domain upper proper time")
    tau_f: float = _key(1.0, "terminal proper time")
    rapidity: float = _key(0.3, "boost rapidity for covariance")
    boost_axis: int = _key(1, "boost axis", (1, 2, 3))
    branch: str = _key("+", "plane-wave eigenvalue branch", ("+", "-"))
    seed: int = _key(0, "RNG seed")
    out_dir: str = _key("csoc-out", f"output directory (env {ENV_OUT_DIR} overrides)")

    def __post_init__(self):
        for f in dataclasses.fields(self):
            choices, value = f.metadata["choices"], getattr(self, f.name)
            if choices and value not in choices:
                raise ConfigError(f"{f.name} must be one of {list(choices)}, "
                                  f"got {value!r}")
        for name in _FINITE_KEYS:
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        for name in ("hbar", "m", "c", "d_tau", "box_half_width"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("n_paths", "n_steps", "demo_paths", "probes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for name in ("sigma_x", "sigma_y"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not self.tau_lo < self.tau_hi:
            raise ConfigError("tau_lo must be below tau_hi")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        try:
            vector_potential_preset(self.potential)
        except DomainError as exc:
            raise ConfigError(f"bad value for potential: {exc}") from exc

    @property
    def metric_object(self) -> Metric:
        return _METRICS[self.metric]

    def diffusion(self) -> DiffusionSpec:
        natural = float(np.sqrt(self.hbar / self.m))
        return DiffusionSpec(sigma_x=natural if self.sigma_x is None else self.sigma_x,
                             sigma_y=natural if self.sigma_y is None else self.sigma_y,
                             epsilon=self.epsilon, metric=self.metric_object)

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


# each key's type, read from the annotations of ScenarioConfig
_FIELD_TYPES = get_type_hints(ScenarioConfig)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# argparse reads a separate value such as "-inf", "-nan" or "-1e-3" as an
# option, since its negative-number pattern covers plain decimals only; main
# glues such a value to the number flag before it, as "--flag=value"
_NUMBER_FLAGS = frozenset(_flag(k) for k, kind in _FIELD_TYPES.items() if kind is not str)


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _glue_float_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _NUMBER_FLAGS and token.startswith("-") and _is_float(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _coerce(key: str, raw: str) -> object:
    """The one parser of a raw value, from a flag or the INI file."""
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
    """Layers map keys to raw strings; later layers win, and each value is
    coerced to its field's type."""
    merged: dict = {}
    for layer in layers:
        for key, raw in layer.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key: {key}")
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
        "verifies": ["paired-euler-integration", "trajectory-dump-format"],
        "params": {"demo_paths": cfg.demo_paths, "n_steps": cfg.n_steps,
                   "d_tau": cfg.d_tau, "seed": cfg.seed},
        "n_failed_paths": len(ens.failed_paths),
        "checks": [_check("final-drift-error", drift_err, limit),
                   _check("failed-paths", float(len(ens.failed_paths)), 1.0)],
        "artifacts": ["trajectories.csv"],
    }


# The presets of cr-scan and equivalence-audit are fields on (..., 4) rows
# with a tau per row, so a scan takes one call per offset of a stencil block.
# Each returns one Python complex per row: the stencil divides Python complex
# values as CPython does, and numpy's own arithmetic here rounds as a
# per-point field's Python arithmetic would, so every artifact keeps its bits.
def _cr_fields(metric: Metric):
    eta = metric.eta

    def values(tau, z):
        return np.add.reduce(eta * z * z, axis=-1) + 0.1 * np.exp(z[..., 0]) + tau * z[..., 1]

    def analytic(tau, z):
        return values(tau, z).tolist()

    def twisted(tau, z):
        return (values(tau, z) + 0.5 * np.conj(z[..., 0])).tolist()

    return analytic, twisted


def run_cr_scan(cfg: ScenarioConfig) -> dict:
    pts = probe_points(cfg.box(), cfg.probes)
    analytic, twisted = _cr_fields(cfg.metric_object)
    good = _scan_rows(analytic, pts)
    bad = _scan_rows(twisted, pts)
    worst_good = good.results[good.worst_index].scaled_residual
    worst_bad = bad.results[bad.worst_index].scaled_residual
    return {
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
    diff = float(np.abs(result.w_star - closed).max())
    res = float(np.abs(result.residual_complex).max())
    return {
        "verifies": ["stationarity-newton-root", "closed-form-control-match"],
        "params": {"q": cfg.q, "m": cfg.m, "c": cfg.c,
                   "potential": cfg.potential},
        "iterations": result.iterations,
        "w_star_re": list(result.w_star.real),
        "w_star_im": list(result.w_star.imag),
        "checks": [_check("newton-residual", res, 1e-10),
                   _check("closed-form-difference", diff, 1e-8)],
    }


def _audit_value_field(metric: Metric):
    eta = metric.eta

    def field(tau, z):
        return (0.1 * np.add.reduce(eta * z * z, axis=-1) + 0.3 * z[..., 0]
                + 0.05 * tau).tolist()
    return field


def run_equivalence_audit(cfg: ScenarioConfig) -> dict:
    lag = em_lagrangian(cfg.em_config())
    pts = probe_points(cfg.box(), cfg.probes)
    report = _audit_rows(lag, _audit_value_field(cfg.metric_object), pts)
    disagreement = report.max_disagreement
    return {
        "verifies": ["real-pair-imag-pair-equivalence",
                     "closed-form-control-match"],
        "params": {"probes": cfg.probes, "tol": report.tol},
        "max_disagreement": disagreement,
        "max_closed_form_disagreement": report.max_closed_form_disagreement,
        "n_singular": len(report.singular_probes),
        "checks": [_check("pair-root-disagreement", disagreement, report.tol)],
    }


def run_hjb_residual(cfg: ScenarioConfig) -> dict:
    # the free value field below solves the HJB equation of the free particle
    # only, so the check ignores q and potential
    metric = cfg.metric_object
    lag = free_particle_lagrangian(cfg.m, cfg.c, metric)
    problem = HJBProblem(lagrangian=lag, diffusion=cfg.diffusion(), tau_f=cfg.tau_f)
    sigma_tilde = metric.sigma_tilde
    scale = sigma_tilde * cfg.m * cfg.c * cfg.c
    if not math.isfinite(scale):
        raise DomainError(f"the value field's scale sigma_tilde m c^2 must be finite, got {scale}")

    def value(tau, z):
        return complex(scale * (cfg.tau_f - tau))

    pts = probe_points(cfg.box(), cfg.probes)
    records = [hjb_residual_probe(problem, value, tau, z).to_record() for tau, z in pts]
    # np.max, unlike the builtin, propagates a NaN residual
    worst = np.max([np.hypot(r["residual_re"], r["residual_im"]) for r in records])
    boundary = boundary_residual(problem, value, [z for _, z in pts])
    json_path = os.path.join(cfg.out_dir, "hjb-probes.json")
    write_json(json_path, {"probes": records})
    return {
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
    with np.errstate(over="ignore"):   # plane_wave refuses a p that overflowed
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
                              components=(0, 2), **common)
    return {
        "verifies": ["plane-wave-dispersion",
                     "linear-nonlinear-route-agreement"],
        "params": {"metric": cfg.metric, "branch": cfg.branch, "q": q},
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
            report["scenario"] = name
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
    # each flag keeps its value as the raw string; _coerce parses it as it
    # parses the same key from the INI file
    for f in dataclasses.fields(ScenarioConfig):
        choices = f.metadata["choices"]
        shown = _NATURAL if f.default is None else f.default
        runp.add_argument(_flag(f.name), default=None,
                          metavar="{%s}" % ",".join(map(str, choices)) if choices else None,
                          help=f"{f.metadata['help']} (default: {shown})")
    return parser


def _flag_layer(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k in _FIELD_TYPES and v is not None}


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
