"""Seeded inputs, one pass and the output checks of each workload.

Every workload builds its inputs from the benchmark seed alone and hands csoc
only those inputs. A pass returns how many operations it attempted and how
many of them failed their check, so a fast wrong answer is a failure and
never a speed-up. Checks use the library's own tolerances.

probe-sweep  per-probe stencil and Newton loops (ccalc, control, lagrangian,
             hjb, dirac); wiener and sde stay idle.
ensemble     increment sampling and the Euler-Maruyama stepper, both storing
             the full trajectory and only reducing it (wiener, sde); the
             stencil layers stay idle.
cli-default  one fresh `csoc run all` interpreter per pass at the default
             config: imports, many small scenarios and artifact I/O.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

L3_BYTES = 105 * 2**20          # last-level cache of the reference machine (lscpu)
PROBES = 1024                   # probe-sweep probes per pass
BLOCK = 32                      # probe-sweep probes per timed segment
MOMENT_SAMPLES = 1_000_000      # ensemble moment table
MOMENT_LINES = 44               # lines in wiener.moment_check's table
STEPS = 200                     # ensemble steps per path
D_TAU = 1e-3
# the stored (paths, STEPS + 1, 8) float64 trajectory is at least 4x L3
INTEGRATE_PATHS = -(-4 * L3_BYTES // ((STEPS + 1) * 8 * 8))
ACTION_PATHS = 4096
# the ensemble's warm-up pass: large enough to run every code path, small
# enough to leave the run's time to timed passes
WARM_PATHS = 1024
WARM_SAMPLES = 100_000
# the scenarios `csoc run all` decides at the default config
CLI_SCENARIOS = ("moments", "sde-demo", "cr-scan", "optimal-control",
                 "equivalence-audit", "hjb-residual", "covariance", "hopf-cole",
                 "clifford", "dirac-planewave")

HJB_TOL = 1e-6                  # hjb-residual, dirac-planewave scenario limits
CONTAMINATION_FLOOR = 0.1       # cr-scan: a non-analytic field scores above this
Z_MAX = 5.0                     # Monte Carlo checks: standard errors allowed


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    notes: list = dataclasses.field(default_factory=list)
    seconds: float | None = None   # set when the pass times itself
    phases: dict = dataclasses.field(default_factory=dict)   # see Phases

    def check(self, ok: bool, what: str = "", n: int = 1) -> None:
        """Record n operations that all pass or all fail together."""
        self.attempted += n
        if not ok:
            self.failed += n
            if len(self.notes) < 8:
                self.notes.append(what)


class Phases:
    """Cuts a pass into back-to-back segments, grouped by phase name.

    Segments within a phase do the same work (one probe block, one stepper
    step), so a run can take a percentile of each phase's segments over all
    its passes; mark() closes the segment that ends now.
    """

    def __init__(self, out: PassResult):
        self.segments = out.phases
        self.last = time.perf_counter()

    def mark(self, phase: str) -> None:
        now = time.perf_counter()
        self.segments.setdefault(phase, []).append(now - self.last)
        self.last = now

    def stepping(self, prefix: str, policy):
        """Wrap a policy so the stepper's set-up and each of its steps is a segment.

        The stepper calls the policy once per step: the time up to the first
        call is its set-up (the increments), each later interval one step.
        After the stepper returns, mark(prefix + ".step") closes the last step.
        """
        first = True

        def timed_policy(tau, z):
            nonlocal first
            self.mark(prefix + (".setup" if first else ".step"))
            first = False
            return policy(tau, z)
        return timed_policy


def _identity(key, fn):
    return fn


class InProcess:
    """A workload whose passes run inside the measuring process."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    def close(self) -> None:
        pass


# --------------------------------------------------------------- probe-sweep

class ProbeSweep(InProcess):
    """At every probe: two analyticity scans, the equivalence audit, two HJB
    residual probes (EM closed form and the Newton path), the paired real
    residual, route consistency and the linearized plane-wave residual."""

    def __init__(self, seed: int, n_probes: int = PROBES):
        import numpy as np
        import csoc

        self.csoc = csoc
        rng = np.random.default_rng(seed)
        if n_probes % min(n_probes, BLOCK):
            raise ValueError(f"probes must fill whole blocks of {BLOCK}")
        self.n = n_probes
        self.work = n_probes
        self.ops_per_pass = 8 * n_probes
        metric = csoc.MOSTLY_PLUS
        eta, st = metric.eta, metric.sigma_tilde
        # default box [0, 1] x [-1, 1]^8, shrunk by 5% like hjb.probe_points
        taus = rng.uniform(0.05, 0.95, n_probes)
        zs = rng.uniform(-0.9, 0.9, (n_probes, 4)) + 1j * rng.uniform(-0.9, 0.9, (n_probes, 4))
        self.probes = [(float(t), z) for t, z in zip(taus, zs)]

        s0, s1 = rng.uniform(0.05, 0.15), rng.uniform(0.5, 1.5)
        kappa = rng.uniform(0.4, 0.6)

        def analytic(tau, z):
            return complex(np.sum(eta * z * z)) + s0 * complex(np.exp(z[0])) + tau * s1 * complex(z[1])

        def contaminated(tau, z):
            return analytic(tau, z) + kappa * complex(np.conj(z[0]))

        self.analytic, self.contaminated = analytic, contaminated

        # EM Lagrangian with a constant potential; time-dominant gradients keep
        # every stationary velocity away from the square-root branch point
        q = 0.5
        a_const = rng.uniform(-0.1, 0.1, 4)
        a_fn, _ = csoc.vector_potential_preset("constant(%.17g,%.17g,%.17g,%.17g)" % tuple(a_const))
        self.em = csoc.em_lagrangian(csoc.EMFieldConfig(q=q, m=1.0, c=1.0, A=a_fn, metric=metric))
        k = _time_dominant(rng)

        def audit_field(tau, z):
            return 0.1 * complex(np.sum(eta * z * z)) + complex(np.sum(k * z)) + 0.05 * tau

        self.audit_field = audit_field

        # J = a.z + b (tau_f - tau) solves the EM equation exactly when b is
        # the bracket L(w*) + w*.dJ = st c sqrt(st p.p) - p.p / m, p = a + qA
        tau_f = 1.0
        a = _time_dominant(rng)
        p = a + q * a_const
        pp = complex(np.sum(eta * p * p))
        b_em = st * np.sqrt(st * pp + 0j) - pp

        def em_value(tau, z):
            return complex(np.sum(a * z)) + b_em * (tau_f - tau)

        # L = (alpha/2) w.w has no closed form in hjb, so it goes through Newton;
        # J = g.z + b (tau_f - tau) is exact with b = -g.g / (2 alpha)
        alpha = rng.uniform(0.8, 1.2)
        g = rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(-0.2, 0.2, 4)
        b_quad = -complex(np.sum(eta * g * g)) / (2 * alpha)

        def quad_value(tau, z):
            return complex(np.sum(g * z)) + b_quad * (tau_f - tau)

        def em_r(tau, x, y):
            return em_value(tau, x + 1j * y).real

        def em_i(tau, x, y):
            return em_value(tau, x + 1j * y).imag

        self.em_value, self.quad_value, self.em_r, self.em_i = em_value, quad_value, em_r, em_i
        spec = csoc.DiffusionSpec.natural(metric=metric)
        self.quad = csoc.quadratic_lagrangian(alpha, metric)
        self.tau_f, self.spec = tau_f, spec

        # coupled plane wave with a constant potential
        self.gammas = csoc.build_gammas(metric)
        p_wave = np.array([0.3, 0.2, -0.1, 0.4]) + rng.uniform(-0.05, 0.05, 4)
        a_wave = np.array([0.2, -0.1, 0.05, 0.15]) + rng.uniform(-0.05, 0.05, 4)
        self.q_wave = 0.5
        self.wave = csoc.plane_wave(self.gammas, p_wave, q=self.q_wave, a_const=a_wave)
        self.input_bytes = n_probes * (8 + 64)

        # the audit's roots must be interior: no probe near the branch point
        for tau, z in self.probes:
            w = self.em.params["closed_form_control"](tau, z, 0.2 * eta * z + k)
            if abs(np.sum(eta * w * w)) < 0.05:
                raise ValueError("probe-sweep input has a root near the branch point")

    def sizes(self) -> dict:
        return {"probes": self.n, "input_bytes": self.input_bytes}

    def warm_up(self) -> PassResult:
        """A pass over the first block: every operation, every code path."""
        return self.run(probes=self.probes[:BLOCK])

    def run(self, tracer=None, probes=None) -> PassResult:
        """One pass: the probes in equal blocks, every operation on each block.

        Each block's seconds are kept as a segment of the pass; see run.py
        for why wall_s is taken from them.
        """
        probes = self.probes if probes is None else probes
        csoc = self.csoc
        count = tracer.counted if tracer else _identity
        timed = tracer.timed if tracer else _identity
        em, quad = self.em, self.quad
        if tracer:
            em = dataclasses.replace(em, value=timed("lagrangian.value", em.value),
                                     gradient_w=timed("lagrangian.grad", em.gradient_w))
            quad = dataclasses.replace(quad, value=timed("lagrangian.value", quad.value),
                                       gradient_w=timed("lagrangian.grad", quad.gradient_w))
        fields = {name: count("field", getattr(self, name))
                  for name in ("analytic", "contaminated", "audit_field", "em_value",
                               "quad_value", "em_r", "em_i")}
        phi = count("spinor", self.wave.phi)
        problem_em = csoc.HJBProblem(lagrangian=em, diffusion=self.spec, tau_f=self.tau_f)
        problem_quad = csoc.HJBProblem(lagrangian=quad, diffusion=self.spec, tau_f=self.tau_f)
        out = PassResult()
        clock = Phases(out)
        for i in range(0, len(probes), BLOCK):
            self._block(probes[i:i + BLOCK], out, fields, phi, em, problem_em,
                        problem_quad, tracer)
            clock.mark("block")
        return out

    def _block(self, probes, out, f, phi, em, problem_em, problem_quad, tracer) -> None:
        import numpy as np
        csoc = self.csoc
        good = csoc.ccalc.analyticity_scan(f["analytic"], probes)
        for r in good.results:
            out.check(r.passed, "analytic field refused")
        bad = csoc.ccalc.analyticity_scan(f["contaminated"], probes)
        for r in bad.results:
            out.check(not r.passed and r.scaled_residual > CONTAMINATION_FLOOR,
                      "contaminated field accepted as analytic")

        try:
            audit = csoc.control.equivalence_audit(em, f["audit_field"], probes)
        except csoc.CsocError as exc:
            out.check(False, f"equivalence audit raised {exc!r}", n=len(probes))
        else:
            if tracer:
                tracer.counts["control.audit_probes"] += len(audit.probes)
                tracer.counts["control.evaluated"] += sum(not p.singular for p in audit.probes)
            for point in audit.probes:
                out.check(not point.singular and point.disagreement < audit.tol
                          and point.closed_form_disagreement < audit.tol,
                          f"audit probe singular or disagreeing: {point.note}")

        a_wave = self.wave.potential()
        for tau, z in probes:
            r = csoc.hjb.hjb_residual_probe(problem_em, f["em_value"], tau, z)
            out.check(abs(r.residual) < HJB_TOL and r.control_method == "closed-form",
                      "EM residual above limit")
            r = csoc.hjb.hjb_residual_probe(problem_quad, f["quad_value"], tau, z)
            out.check(abs(r.residual) < HJB_TOL and r.control_method == "newton",
                      "Newton-path residual above limit")
            rr, ri = csoc.hjb.hjb_residual_pair(problem_em, f["em_r"], f["em_i"], tau,
                                                z.real, z.imag, h=1e-3)
            out.check(abs(complex(rr, ri)) < HJB_TOL, "paired residual above limit")
            route = csoc.dirac.route_consistency(self.gammas, phi, tau, z, q=self.q_wave,
                                                 A=a_wave, components=(0, 2))
            out.check(route.max_discrepancy < HJB_TOL, "route discrepancy above limit")
            lin = csoc.dirac.linearized_residual(self.gammas, phi, tau, z, lam=self.wave.lam,
                                                 q=self.q_wave, A=a_wave)
            out.check(float(np.abs(lin).max()) < HJB_TOL, "plane-wave residual above limit")


def _time_dominant(rng):
    """A lower-index gradient whose time component dominates the spatial ones."""
    import numpy as np
    k = rng.uniform(-0.1, 0.1, 4) + 1j * rng.uniform(-0.05, 0.05, 4)
    k[0] = rng.uniform(1.2, 1.6)
    return k


# ------------------------------------------------------------------ ensemble

class Ensemble(InProcess):
    """moment_check at 1e6 samples, integrate storing the whole trajectory and
    estimate_action reducing it, both under one linear-feedback policy."""

    def __init__(self, seed: int, paths: int = INTEGRATE_PATHS,
                 action_paths: int = ACTION_PATHS, samples: int = MOMENT_SAMPLES):
        import numpy as np
        import csoc

        self.csoc = csoc
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.spec = csoc.DiffusionSpec.natural()
        self.v = rng.uniform(-0.5, 0.5, 4)
        self.u = rng.uniform(-0.5, 0.5, 4)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, 3)]
        self.matrix = -0.5 * np.eye(4) + 0.1 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        self.z0 = rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(-0.5, 0.5, 4)
        self.alpha = rng.uniform(0.8, 1.2)
        self.paths, self.action_paths, self.samples = paths, action_paths, samples
        self.work = (paths + action_paths) * STEPS + samples
        self.ops_per_pass = MOMENT_LINES + paths + action_paths + 2
        self.lagrangian = csoc.quadratic_lagrangian(self.alpha, self.spec.metric)
        self.expected_final, self.expected_action = self._exact()

    def _exact(self):
        """Exact expectations of the Euler scheme under linear feedback.

        z_{t+1} = A z_t + c * xi_t with A = I + M d_tau, c = sigma_x + i sigma_y
        eps eta and xi ~ N(0, d_tau), so E z_t = A^t z0 and S_t = E[z z^T]
        follows S_{t+1} = A S A^T + d_tau diag(c^2). The action is
        sum_t (alpha/2) tr(eta M S_t M^T) d_tau (left endpoint).
        """
        import numpy as np
        spec = self.spec
        eta = spec.metric.eta
        c = spec.sigma_x + 1j * spec.sigma_y * spec.epsilon * eta
        a = np.eye(4) + self.matrix * D_TAU
        s = np.outer(self.z0, self.z0)
        action = 0j
        for _ in range(STEPS):
            action += 0.5 * self.alpha * np.trace(np.diag(eta) @ self.matrix @ s @ self.matrix.T) * D_TAU
            s = a @ s @ a.T + D_TAU * np.diag(c * c)
        return np.linalg.matrix_power(a, STEPS) @ self.z0, complex(action)

    def array_bytes(self) -> int:
        """Computed bytes of the states array and the increment arrays."""
        states = self.paths * (STEPS + 1) * 8 * 8
        increments = 2 * (self.paths + self.action_paths) * STEPS * 4 * 8
        return states + increments

    def sizes(self) -> dict:
        return {"moment_samples": self.samples, "integrate_paths": self.paths,
                "action_paths": self.action_paths, "steps": STEPS,
                "states_bytes": self.paths * (STEPS + 1) * 64,
                "array_bytes_computed": self.array_bytes()}

    def warm_up(self) -> PassResult:
        """A pass of a smaller ensemble built from the same seed."""
        return Ensemble(self.seed, paths=WARM_PATHS, action_paths=WARM_PATHS,
                        samples=WARM_SAMPLES).run()

    def run(self, tracer=None) -> PassResult:
        import numpy as np
        csoc = self.csoc
        out = PassResult()
        clock = Phases(out)
        policy = csoc.linear_policy(self.matrix)
        lagrangian = self.lagrangian
        if tracer:
            policy = tracer.counted("policy", policy)
            lagrangian = dataclasses.replace(lagrangian,
                                             value=tracer.timed("lagrangian.value", lagrangian.value))

        report = csoc.wiener.moment_check(self.spec, self.v, self.u, D_TAU,
                                          self.samples, self.seeds[0])
        for line in report.lines:
            out.check(not line.flagged, f"moment line {line.name} flagged")
        if tracer:
            tracer.counts["wiener.increments"] += report.n
            tracer.counts["wiener.flagged"] += report.n_flagged
        clock.mark("moments")

        ens = csoc.sde.integrate(clock.stepping("integrate", policy), self.spec, self.z0,
                                 D_TAU, STEPS, self.paths, self.seeds[1])
        clock.mark("integrate.step")
        failed = set(ens.failed_paths)
        out.attempted += self.paths
        out.failed += len(failed)
        final = ens.z(STEPS)
        ok = ens.states.shape == (self.paths, STEPS + 1, 8) and np.array_equal(
            ens.z(0), np.broadcast_to(self.z0, (self.paths, 4)))
        se = final.real.std(axis=0, ddof=1) / np.sqrt(self.paths)
        se_i = final.imag.std(axis=0, ddof=1) / np.sqrt(self.paths)
        dev = np.concatenate([np.abs(final.real.mean(axis=0) - self.expected_final.real) / se,
                              np.abs(final.imag.mean(axis=0) - self.expected_final.imag) / se_i])
        out.check(ok and bool(np.all(dev < Z_MAX)), "stored trajectory mean off its exact value")
        del ens, final
        clock.mark("integrate.checks")

        est = csoc.sde.estimate_action(lagrangian, clock.stepping("action", policy), self.spec,
                                       self.z0, D_TAU, STEPS, self.action_paths, self.seeds[2])
        clock.mark("action.step")
        out.attempted += self.action_paths
        out.failed += est.n_failed
        z_re = abs(est.mean.real - self.expected_action.real) / est.stderr_re
        z_im = abs(est.mean.imag - self.expected_action.imag) / est.stderr_im
        out.check(est.valid and z_re < Z_MAX and z_im < Z_MAX,
                  f"action estimate {est.mean} off its exact value {self.expected_action}")
        if tracer:
            tracer.counts["sde.failed_paths"] += len(failed) + est.n_failed
        clock.mark("action.checks")
        return out


# --------------------------------------------------------------- cli-default

def _digest(out_dir: Path) -> dict:
    """sha256 of every artifact except the manifest, which carries a timestamp."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


class CliDefault:
    """One fresh `csoc run all` interpreter per pass, default config."""

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.cli_seed = seed % 2**31
        self.work = len(CLI_SCENARIOS)
        self.ops_per_pass = len(CLI_SCENARIOS) + 1
        self.tmp = root / ".perfbench-tmp"
        self.reference: dict | None = None
        self.rss_mb: list[float] = []
        self.traces: list[dict] = []
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("CSOC_OUTPUT_DIR", None)

    def sizes(self) -> dict:
        return {"scenarios": len(CLI_SCENARIOS), "cli_seed": self.cli_seed}

    def warm_up(self) -> PassResult:
        """A whole pass: it also records the artifacts later passes must match."""
        return self.run()

    def command(self, out_dir: Path, traced: bool) -> list:
        if traced:
            head = [sys.executable, str(Path(__file__).with_name("cli_trace.py"))]
        else:
            head = [sys.executable, "-m", "csoc.cli"]
        return head + ["run", "all", "--out-dir", str(out_dir), "--seed", str(self.cli_seed)]

    def run(self, tracer=None) -> PassResult:
        """One child from spawn to exit; a tracer selects the traced child."""
        out_dir = self.tmp / "run"
        log_path = self.tmp / "run.log"
        shutil.rmtree(out_dir, ignore_errors=True)
        self.tmp.mkdir(exist_ok=True)
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.command(out_dir, tracer is not None),
                                    cwd=self.root, env=self.env, stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb.append(usage.ru_maxrss * 1024 / 1e6)

        out = PassResult(seconds=seconds)
        try:
            summary = json.loads((out_dir / "summary.json").read_text())
        except (OSError, ValueError):
            summary = {}
        scenarios = summary.get("scenarios") or {}
        if not scenarios:
            out.check(False, f"no summary.json (exit {code})", n=len(CLI_SCENARIOS))
        for name, ok in sorted(scenarios.items()):
            out.check(code == 0 and summary.get("passed") is True and ok is True,
                      f"scenario {name} not passed (exit {code})")
        digest = _digest(out_dir) if out_dir.is_dir() else {}
        if self.reference is None:
            self.reference = digest
        out.check(bool(digest) and digest == self.reference,
                  "artifacts differ from the first pass")
        if tracer is not None:
            try:
                trace = json.loads(log_path.read_text().splitlines()[-1])
            except (IndexError, ValueError):
                trace = {"scenario_s": {}, "run_s": 0.0}
            trace["artifact_bytes"] = sum(p.stat().st_size for p in out_dir.glob("*")
                                          if p.name != "manifest.json")
            self.traces.append(trace)
        return out

    def peak_rss_mb(self) -> float:
        """Median peak RSS of the timed children (the warm-up pass excluded)."""
        return float(statistics.median(self.rss_mb[1:] or self.rss_mb))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
