"""The four benchmark workloads.

A workload's constructor is its set-up: it turns the seed into inputs,
expands the frequency and builds the models. ``round`` then calls the
library the way a researcher does, each call through ``rnd.op``, and
records every check of the outputs through ``rnd.check``. All rounds of a
workload attempt the same ``ops`` operations, whatever the seed, so the
share of failed operations does not depend on how many rounds a run makes.

Sizes are chosen so one round takes a few seconds on two cores; the
``smoke`` sizes keep every check meaningful at a fraction of a second.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np

from speclab import cli
from speclab import cocycles as coc
from speclab import diophantine as dio
from speclab import duality as dua
from speclab import ehm
from speclab import operators as ops
from speclab import reducibility as red
from speclab.errors import ThetaInSingularOrbit
from speclab.symbols import constant

import checks

TWO_PI = 2.0 * math.pi
GOLDEN_DEPTH = 40             # depth of the CLI's golden expansion


class Round:
    """Operations completed and checks made during one round."""

    def __init__(self):
        self.done = 0
        self.checks = []

    def op(self, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        self.done += 1
        return out

    def check(self, name: str, result: tuple) -> None:
        ok, detail = result
        self.checks.append((name, bool(ok), detail))


class Lyapunov:
    """Lyapunov exponents at region-I couplings against the closed form, at
    energies from a small truncation, and L(eps) of the subcritical dual
    cocycle across the strip 0 <= eps < L / 2 pi (the complex path)."""

    COUPLINGS = ((0.0, 0.5, 0.0), (0.1, 0.5, 0.2), (0.2, 0.4, 0.1))
    STRIP_COUPLING = (0.1, 0.5, 0.2)
    SIZES = {
        "full": dict(N=200, n_theta=2, energies=2, n_iter=40_000,
                     n_phases=4, n_eps=5, strip_iter=20_000),
        "smoke": dict(N=60, n_theta=1, energies=1, n_iter=4_000,
                      n_phases=4, n_eps=3, strip_iter=4_000),
    }

    def __init__(self, seed: int, size: dict, out_dir: str):
        self.size = size
        rng = np.random.default_rng(seed)
        cf = dio.expand("golden", GOLDEN_DEPTH)
        self.models = [ehm.ehm_model(lam, cf) for lam in self.COUPLINGS]
        self.dual = ehm.ehm_model(ehm.sigma(self.STRIP_COUPLING), cf)
        self.quantiles = rng.uniform(0.05, 0.95,
                                     (len(self.COUPLINGS), size["energies"]))
        self.strip_quantile = float(rng.uniform(0.05, 0.95))
        self.lyap_seed = int(rng.integers(2**31))
        L = checks.ehm_lyapunov(self.STRIP_COUPLING)
        self.eps = np.linspace(0.0, 0.9 * L / TWO_PI, size["n_eps"])
        self.ops = len(self.COUPLINGS) * (1 + size["energies"]) + 2

    def round(self, rnd: Round) -> None:
        s = self.size
        for lam, model, qs in zip(self.COUPLINGS, self.models, self.quantiles):
            proxy = rnd.op(ops.spectrum_proxy, model, s["N"], s["n_theta"])
            L = checks.ehm_lyapunov(lam)
            # nearest: an interpolated quantile can fall in a spectral gap
            for i, E in enumerate(np.quantile(proxy, qs, method="nearest")):
                co = coc.Cocycle(model, float(E), kind="normalized")
                est = rnd.op(coc.lyapunov, co, s["n_iter"], s["n_phases"],
                             self.lyap_seed + i)
                rnd.check(f"lyapunov {lam}",
                          checks.check_lyapunov(est.value, est.stderr, L))
        proxy = rnd.op(ops.spectrum_proxy, self.dual, s["N"], s["n_theta"])
        E = float(np.quantile(proxy, self.strip_quantile, method="nearest"))
        co = coc.Cocycle(self.dual, E, kind="normalized")
        ests = rnd.op(coc.lyapunov_strip, co, self.eps, s["strip_iter"],
                      s["n_phases"], self.lyap_seed)
        rnd.check("dual strip", checks.check_strip([e.value for e in ests]))


class Spectral:
    """IDS by eigenvalue counting against 1 - 2 rho(E) for AMO and EHM, and
    the spectral (Hausdorff) and IDS (Kolmogorov) duality distances."""

    COUPLINGS = (("AMO", (0.0, 0.5, 0.0)), ("EHM", (0.1, 0.5, 0.2)))
    SIZES = {
        "full": dict(N=400, n_phases=2, n_e=40, n_iter=20_000,
                     dual_N=400, dual_phases=2),
        "smoke": dict(N=150, n_phases=1, n_e=20, n_iter=5_000,
                      dual_N=200, dual_phases=2),
    }

    def __init__(self, seed: int, size: dict, out_dir: str):
        self.size = size
        rng = np.random.default_rng(seed)
        cf = dio.expand("golden", GOLDEN_DEPTH)
        self.models = [(name, ehm.ehm_model(lam, cf))
                       for name, lam in self.COUPLINGS]
        self.grids = []
        for _, model in self.models:
            # the grid extends 1/2 past the spectrum on both sides, so a
            # shift by a fraction of a step keeps N(E) pinned at 0 and 1
            hi = model.sup_bound() + 0.5
            grid = np.linspace(-hi, hi, size["n_e"])
            self.grids.append(grid + rng.uniform(-0.25, 0.25) * (grid[1] - grid[0]))
        self.lam = self.COUPLINGS[1][1]
        self.reference = ehm.ehm_model(ehm.sigma(self.lam), cf)
        self.ids_seed = int(rng.integers(2**31))
        self.theta0 = float(rng.random())
        self.dual_seed = int(rng.integers(2**31))
        self.ops = 2 * len(self.COUPLINGS) + 1

    def round(self, rnd: Round) -> None:
        s = self.size
        for (name, model), grid in zip(self.models, self.grids):
            curve = rnd.op(ops.ids, model, grid, s["N"], s["n_phases"],
                           self.ids_seed)
            rho = rnd.op(coc.rotation_sweep, model, grid, s["n_iter"],
                         self.theta0)
            rnd.check(f"ids-rotation {name}",
                      checks.check_ids_rotation(curve.N_of_E, rho))
            rnd.check(f"ids shape {name}", checks.check_ids_shape(curve.N_of_E))
        rep = rnd.op(dua.duality_checks, self.models[1][1], self.lam[1],
                     self.reference, s["dual_N"], s["dual_phases"],
                     self.dual_seed)
        rnd.check("duality", checks.check_duality(rep.hausdorff, rep.kolmogorov))


class Transition:
    """``speclab transition`` through ``cli.run`` at the singular two-zeros
    coupling with the golden frequency, and the singular-orbit scan at a
    planted on-orbit phase and at an off-orbit phase."""

    LAMBDA = (0.3, 0.5, 0.3)
    SIZES = {
        "full": dict(alpha="golden", depth=GOLDEN_DEPTH, N=300, n_phases=1,
                     scan_depth=20),
        # the Fibonacci convergent 987/1597 keeps the CLI's scans short
        "smoke": dict(alpha="quotients:" + ",".join(["1"] * 16), depth=16,
                      N=150, n_phases=1, scan_depth=10),
    }

    def __init__(self, seed: int, size: dict, out_dir: str):
        self.size = size
        rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.cf = cli.parse_alpha(size["alpha"], size["depth"])
        self.config = {
            "command": "transition", "seed": int(rng.integers(2**31)),
            "out_dir": out_dir,
            "params": {"lambda": ",".join(map(str, self.LAMBDA)),
                       "alpha": size["alpha"], "N": size["N"],
                       "n_phases": size["n_phases"]}}
        self.L = checks.ehm_lyapunov(self.LAMBDA)
        self.p, self.q = checks.fibonacci_convergents(size["depth"])
        phases = checks.singular_phases(self.LAMBDA, self.cf.value)
        # the planted phase is scanned last and sits at the edge k = +K of
        # the scan, so every scan covers the full range
        j = int(rng.integers(len(phases)))
        self.phases = tuple(p for i, p in enumerate(phases) if i != j) + (phases[j],)
        self.scan_depth = size["scan_depth"]
        self.k_range = self.q[self.scan_depth - 1]
        proxy = Fraction(self.p[-1], self.q[-1])
        self.theta_on = float((Fraction(phases[j]) + self.k_range * proxy) % 1)
        self.theta_off = float(rng.random())
        self.beta = checks.fibonacci_beta(size["depth"], self.scan_depth)
        self.ops = 3

    def _on_orbit(self, theta: float) -> bool:
        try:
            dio.check_theta(self.cf, theta, self.phases, self.k_range)
        except ThetaInSingularOrbit:
            return True
        return False

    def _delta(self, theta: float):
        try:
            return dio.delta_c(self.cf, theta, self.phases, self.scan_depth)
        except ThetaInSingularOrbit:
            return None

    def round(self, rnd: Round) -> None:
        code = rnd.op(cli.run, self.config)
        if code == 0:
            with open(os.path.join(self.out_dir, "result.json")) as fh:
                result = json.load(fh)
            rnd.check("transition", checks.check_transition(code, result, self.L))
            rnd.check("frequency", checks.check_equal(
                "q_n", map(int, result["provenance"]["alpha"]["q"]), self.q))
        else:
            rnd.check("transition", (False, f"exit code {code}"))
        rnd.check("singular phases", checks.check_close(
            "singular phases",
            sorted(ehm.classify(self.LAMBDA).shifted_phases(self.cf.value)),
            sorted(self.phases), 1e-12))

        on = rnd.op(self._on_orbit, self.theta_on)
        rnd.check("planted on-orbit phase", checks.check_orbit_scan(
            on, checks.orbit_distance(self.theta_on, self.phases, self.k_range,
                                      self.p[-1], self.q[-1])))
        delta = rnd.op(self._delta, self.theta_off)
        rnd.check("off-orbit phase", checks.check_orbit_scan(
            delta is None,
            checks.orbit_distance(self.theta_off, self.phases, self.k_range,
                                  self.p[-1], self.q[-1])))
        if delta is not None:
            rnd.check("off-orbit delta", checks.check_delta(delta, self.beta))


class Reducibility:
    """The reducibility -> dual-localization chain on the dual of
    (0.1, 0.5, 0.2): spectrum samples, rotation numbers, energy selection by
    Diophantine membership of 2 rho, conjugacy fit, cohomology, the dual
    eigenvector and a second rotation number; plus a constructed constant
    cocycle C R C^-1 whose conjugacy is known."""

    LAMBDA = (0.1, 0.5, 0.2)
    SIZES = {
        "full": dict(N=300, n_theta=2, energies=8, n_iter=50_000,
                     m_max=2_000, K_B=48, grid=1024, k_cohom=48,
                     cohom_grid=8192),
        "smoke": dict(N=100, n_theta=1, energies=4, n_iter=10_000,
                      m_max=500, K_B=32, grid=512, k_cohom=32,
                      cohom_grid=2048),
    }
    TAU = 2.0

    def __init__(self, seed: int, size: dict, out_dir: str):
        self.size = size
        rng = np.random.default_rng(seed)
        self.cf = dio.expand("golden", GOLDEN_DEPTH)
        self.dual_lam = checks.sigma(self.LAMBDA)
        self.model = ehm.ehm_model(self.dual_lam, self.cf)
        self.alpha = self.cf.value
        self.p, self.q = checks.fibonacci_convergents(GOLDEN_DEPTH)
        self.quantiles = np.sort(rng.uniform(0.05, 0.95, size["energies"]))
        self.theta0 = float(rng.random())
        self.phi = float(rng.uniform(0.05, 0.45))
        C = checks.random_sl2(rng)
        self.A = C @ checks.rotation(self.phi) @ np.linalg.inv(C)
        entries = tuple(tuple(constant(complex(self.A[i, j])) for j in range(2))
                        for i in range(2))
        self.constant_cocycle = coc.Cocycle(None, 0.0, kind="custom",
                                            entries=entries)
        self.ops = size["energies"] + 8

    def round(self, rnd: Round) -> None:
        s = self.size
        proxy = rnd.op(ops.spectrum_proxy, self.model, s["N"], s["n_theta"])
        energies = np.quantile(proxy, self.quantiles, method="nearest")
        rhos = rnd.op(coc.rotation_sweep, self.model, energies, s["n_iter"])
        gammas = [rnd.op(dio.dc_membership, self.cf, float(r), self.TAU,
                         s["m_max"]) for r in rhos]
        rnd.check("membership", checks.check_close(
            "dc_membership",
            gammas, [checks.dc_gamma(float(r), self.TAU, s["m_max"],
                                     self.p[-1], self.q[-1]) for r in rhos],
            1e-8))
        best = int(np.argmax(gammas))
        E, rho = float(energies[best]), float(rhos[best])
        rnd.check("gamma", (gammas[best] > 1e-3,
                            f"gamma_hat {gammas[best]:.3f} (> 1e-3)"))

        co = coc.Cocycle(self.model, E, kind="normalized")
        cand = rnd.op(red.fit_conjugacy, co, rho, s["K_B"], s["grid"])
        # evaluated between the fit's grid points, with the exact |c|
        off_grid = (np.arange(s["grid"]) + 0.5) / s["grid"]
        fit = checks.conjugacy_residual(
            cand.z_coeffs, self.alpha, rho,
            lambda th: checks.normalized_cocycle(self.dual_lam, self.alpha, E, th),
            off_grid)
        rnd.check("subcritical fit", checks.check_below("fit residual", fit, 1e-3))

        rhs = rnd.op(red.phase_rhs, self.model.c, s["k_cohom"])
        sol = rnd.op(red.solve_cohomology, rhs, self.cf, s["k_cohom"],
                     s["cohom_grid"])
        xs = np.arange(s["cohom_grid"]) / s["cohom_grid"]
        g, g_next = (checks.fourier_eval(sol.g.coeffs, xs),
                     checks.fourier_eval(sol.g.coeffs, xs + self.alpha))
        rnd.check("cohomology", checks.check_below(
            "cohomology residual",
            float(np.max(np.abs(g_next - g - checks.fourier_eval(rhs.coeffs, xs)))),
            1e-8))
        d = checks.ehm_hopping(self.dual_lam, self.alpha, xs)
        rnd.check("phase identity", checks.check_close(
            "phase identity", np.exp(0.5 * (g_next - g)), d / np.abs(d), 1e-8))

        _, resid = rnd.op(red.dual_eigenvector_from_conjugacy, cand, co)
        rnd.check("dual eigenvector",
                  checks.check_dual_eigenvector(resid, cand.residual))
        rho2 = rnd.op(coc.rotation_number, co, s["n_iter"], self.theta0)
        rnd.check("rotation target", checks.check_rotation_target(
            rho2, cand.rho_target, cand.degree, self.alpha))

        cand_c = rnd.op(red.fit_conjugacy, self.constant_cocycle, self.phi,
                        4, 256, alpha=self.alpha)
        recovered = checks.conjugacy_residual(
            cand_c.z_coeffs, self.alpha, self.phi,
            lambda th: np.broadcast_to(self.A, (len(th), 2, 2)),
            (np.arange(256) + 0.5) / 256)
        rnd.check("constructed recovery",
                  checks.check_below("recovery residual", recovered, 1e-10))


WORKLOADS = {"lyapunov": Lyapunov, "spectral": Spectral,
             "transition": Transition, "reducibility": Reducibility}
