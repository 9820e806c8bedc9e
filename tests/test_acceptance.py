"""Acceptance suite: every numbered criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The heavy spectral computations are organized so the whole
suite stays inside its declared runtime budgets.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from speclab import cocycles as coc
from speclab import diophantine as dio
from speclab import duality as dua
from speclab import ehm
from speclab import operators as ops
from speclab import reducibility as red
from speclab import symbols as sym
from speclab.errors import VanishesOnTorus


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def golden40():
    return dio.expand("golden", 40)


# -- criterion 1: closed-form Lyapunov exponent vs iteration ----------------

def test_criterion_01_lyapunov_closed_form(golden40):
    lams = ((0.0, 0.5, 0.0), (0.1, 0.5, 0.2), (0.2, 0.4, 0.1))
    worst = 0.0
    slowest = 0.0
    for lam in lams:
        t0 = time.time()
        L = ehm.lyapunov_closed_form(lam)
        model = ehm.ehm_model(lam, golden40)
        energies = ops.spectrum_samples(model, 5, N=1000, n_theta=4)
        for i, E in enumerate(energies):
            est = coc.lyapunov(coc.Cocycle(model, float(E), kind="normalized"),
                               n_iter=10**6, n_phases=4, seed=100 + i)
            err = abs(est.value - L)
            assert err <= max(1e-2, 2 * est.stderr), \
                f"lam={lam} E={E}: |{est.value} - {L}| = {err}"
            worst = max(worst, err)
        slowest = max(slowest, time.time() - t0)
    ok = slowest <= 60.0
    report(1, ok, f"max |L_num - L_closed| = {worst:.2e} "
                  f"(<= max(1e-2, 2 stderr)); slowest lambda {slowest:.0f}s")


# -- criterion 2: IDS vs rotation number -------------------------------------

def test_criterion_02_ids_rotation_identity(golden40):
    t0 = time.time()
    sups = {}
    for name, lam in (("AMO", (0.0, 0.5, 0.0)), ("EHM", (0.1, 0.5, 0.2))):
        model = ehm.ehm_model(lam, golden40)
        hi = model.sup_bound() + 0.5
        grid = np.linspace(-hi, hi, 50)
        curve = ops.ids(model, grid, N=2000, n_phases=6, seed=5)
        rhos = coc.rotation_sweep(model, grid, n_iter=200_000)
        sups[name] = float(np.max(np.abs(curve.N_of_E - (1 - 2 * rhos))))
        assert sups[name] <= 1e-2
    dt = time.time() - t0
    report(2, dt <= 300,
           f"sup|N(E) - (1 - 2 rho)| = AMO {sups['AMO']:.2e}, "
           f"EHM {sups['EHM']:.2e} (<= 1e-2); {dt:.0f}s")


# -- criterion 3: duality of spectra and IDS ---------------------------------

def test_criterion_03_duality(golden40):
    t0 = time.time()
    lam = (0.1, 0.5, 0.2)
    model = ehm.ehm_model(lam, golden40)
    ref = ehm.ehm_model(ehm.sigma(lam), golden40)
    rep = dua.duality_checks(model, lam[1], ref, N=2000, n_phases=12, seed=2)
    dt = time.time() - t0
    ok = rep.hausdorff <= 2e-2 and rep.kolmogorov <= 2e-2 and dt <= 600
    report(3, ok,
           f"Hausdorff {rep.hausdorff:.2e} (half-window "
           f"{rep.hausdorff_half_window:.2e}), Kolmogorov "
           f"{rep.kolmogorov:.2e} (half {rep.kolmogorov_half_window:.2e}) "
           f"(<= 2e-2); {dt:.0f}s")


# -- criterion 4: subcritical strip and supercritical value ------------------

def test_criterion_04_subcritical_strip(golden40):
    lam = (0.1, 0.5, 0.2)
    L = ehm.lyapunov_closed_form(lam)
    dual = ehm.ehm_model(ehm.sigma(lam), golden40)
    E_hat = float(ops.spectrum_samples(dual, 1, N=1000, n_theta=4)[0])
    co = coc.Cocycle(dual, E_hat, kind="normalized")
    eps_list = np.linspace(0.0, 0.9 * L / (2 * math.pi), 9)
    ests = coc.lyapunov_strip(co, eps_list, n_iter=200_000, n_phases=8,
                              seed=3)
    max_strip = max(e.value for e in ests)
    assert max_strip <= 1e-2

    primal = ehm.ehm_model(lam, golden40)
    E = float(ops.spectrum_samples(primal, 1, N=1000, n_theta=4)[0])
    est0 = coc.lyapunov(coc.Cocycle(primal, E, kind="normalized"),
                        n_iter=200_000, n_phases=8, seed=4)
    ok = max_strip <= 1e-2 and est0.value >= 0.75
    report(4, ok, f"max L(eps) over strip = {max_strip:.2e} (<= 1e-2); "
                  f"primal L(0) = {est0.value:.4f} (>= 0.75)")


# -- criterion 5: winding engine ---------------------------------------------

def test_criterion_05_winding_engine(golden40):
    rng = np.random.default_rng(55)
    done = 0
    mismatches = 0
    while done < 1000:
        deg = int(rng.integers(1, 7))
        coeffs = rng.normal(size=2 * deg + 1) + 1j * rng.normal(size=2 * deg + 1)
        s = sym.TorusSymbol(coeffs)
        if float(np.min(np.abs(s.on_grid(4096)))) <= 1e-3:
            continue
        try:
            sym.winding(s)
        except VanishesOnTorus:
            continue
        except Exception:
            mismatches += 1
        done += 1
    assert mismatches == 0

    region_one = 0
    while region_one < 20:
        lam = tuple(rng.uniform(0.02, 0.9, size=3))
        if ehm.classify(lam).region != "I":
            continue
        _, _, w = ehm.dual_symbol(lam, golden40.value)
        assert w == 0
        region_one += 1
    report(5, True, f"0 mismatches on 1000 random symbols; w(dual) = 0 on "
                    f"20 region-I samples")


# -- criterion 6: cohomological solver ---------------------------------------

def test_criterion_06_cohomology(golden40):
    d = ehm.ehm_model(ehm.sigma((0.1, 0.5, 0.2)), golden40).c
    rhs = red.phase_rhs(d, 48)
    sol = red.solve_cohomology(rhs, golden40, 48, grid=8192)
    assert sol.residual_sup <= 1e-8
    grid = np.arange(8192) / 8192
    af = golden40.value
    f = sym.TorusSymbol(sol.g.coeffs / 2.0)
    lhs = np.exp(f.eval((grid + af) % 1.0) - f.eval(grid))
    dv = d.eval(grid)
    phase_err = float(np.max(np.abs(lhs - dv / np.abs(dv))))
    ok = sol.residual_sup <= 1e-8 and phase_err <= 1e-8
    report(6, ok, f"cohomology residual {sol.residual_sup:.2e}, phase "
                  f"identity error {phase_err:.2e} (<= 1e-8)")


# -- criteria 7 and 8: conjugacy fitting and the dual eigenvector ------------

@pytest.fixture(scope="module")
def subcritical_fit(golden40):
    lam = (0.1, 0.5, 0.2)
    dual = ehm.ehm_model(ehm.sigma(lam), golden40)
    energies = ops.spectrum_samples(dual, 8, N=800, n_theta=4)
    rhos = coc.rotation_sweep(dual, energies, n_iter=10**6)
    best = None
    for E, r in zip(energies, rhos):
        g = dio.dc_membership(golden40, float(r), 2.0, 10_000)
        if best is None or g > best[2]:
            best = (float(E), float(r), g)
    E, rho, gamma = best
    co = coc.Cocycle(dual, E, kind="normalized")
    cand = red.fit_conjugacy(co, rho, K_B=64, grid=2048)
    return co, cand, gamma


def test_criterion_07_conjugacy(golden40, subcritical_fit):
    from conftest import random_sl2
    rng = np.random.default_rng(77)
    phi = 0.173
    C = random_sl2(rng)
    Rm = np.array([[math.cos(2 * math.pi * phi), -math.sin(2 * math.pi * phi)],
                   [math.sin(2 * math.pi * phi), math.cos(2 * math.pi * phi)]])
    A = C @ Rm @ np.linalg.inv(C)
    ent = tuple(tuple(sym.constant(complex(A[i][j])) for j in range(2))
                for i in range(2))
    co_const = coc.Cocycle(None, 0.0, kind="custom", entries=ent)
    cand_c = red.fit_conjugacy(co_const, phi, K_B=4, grid=256,
                               alpha=golden40.value)
    assert cand_c.residual <= 1e-10

    co, cand, gamma = subcritical_fit
    assert gamma > 1e-3
    assert cand.residual <= 1e-3
    rho_meas = coc.rotation_number(co, n_iter=10**6, theta0=0.377)
    dev = abs(rho_meas - cand.rho_target - cand.degree * golden40.value / 2)
    dev = dev % 1.0
    dev = min(dev, 1.0 - dev)
    ok = cand_c.residual <= 1e-10 and cand.residual <= 1e-3 and dev <= 2e-3
    report(7, ok, f"constructed recovery {cand_c.residual:.2e} (<= 1e-10); "
                  f"subcritical fit {cand.residual:.2e} (<= 1e-3, "
                  f"gamma_hat {gamma:.3f}); rotation-target dev {dev:.2e} "
                  f"(<= 2e-3)")


def test_criterion_08_dual_eigenvector(subcritical_fit):
    co, cand, _ = subcritical_fit
    u, resid = red.dual_eigenvector_from_conjugacy(cand, co, which_row=1)
    ok = resid <= 10 * cand.residual
    report(8, ok, f"dual eigen-equation residual {resid:.2e} <= "
                  f"10 x {cand.residual:.2e}")


# -- criterion 9: duality transform identities -------------------------------

def test_criterion_09_transform_identities(golden40):
    af = golden40.value
    xs = np.arange(64) / 64
    model = ehm.ehm_model((0.1, 0.5, 0.2), golden40)
    worst = 0.0
    for trial in range(100):
        psi = dua.random_band_limited(32, 64, seed=trial, x_band=8,
                                      support=8, alpha=af)
        ur = dua.u_r(psi)
        worst = max(worst, abs(ur.norm() - psi.norm()))
        back = dua.u_r_inv(ur)
        worst = max(worst, float(np.max(np.abs(back.values - psi.values))))
        for l in (-3, -1, 2):
            lhs = dua.u_r(dua.shift_field(psi, l)).values
            rhs = np.exp(2j * np.pi * l * xs)[None, :] * ur.values
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        for k in (-2, 1):
            uk = dua.u_k(psi, k)
            for l in (-3, 2):
                lhs = dua.u_k(dua.shift_field(psi, l), k).values
                rhs = (np.exp(2j * np.pi * l * k * (xs + l * af / 2))[None, :]
                       * dua.shift_field(uk, l).values)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        if trial % 10 == 0:
            worst = max(worst, dua.duality_residual(model, psi))
    ok = worst <= 1e-10
    report(9, ok, f"max identity residual over 100 fields = {worst:.2e} "
                  f"(<= 1e-10)")


# -- criterion 10: phase-transition dichotomy --------------------------------

def test_criterion_10_transition(golden40):
    t0 = time.time()
    # (a) localized side: golden frequency, growth rate beats approximation
    lam = (0.1, 0.5, 0.2)
    L = ehm.lyapunov_closed_form(lam)
    model = ehm.ehm_model(lam, golden40)
    rng = np.random.default_rng(10)
    rates, r2s = [], []
    for _, sd, keep in ops.phase_pool(model, 2000, rng.random(32)):
        more_rates, more_r2s, _ = ops.middle_decay_fits(sd, keep)
        rates += more_rates
        r2s += more_r2s
        sd = None
    decay_median = float(np.median(rates))
    r2_median = float(np.median(r2s))
    pp_ok = abs(decay_median - L) <= 0.2 * L and r2_median > 0.9

    # (b) escape side: synthesized frequency with growth exponent 1.5; a
    # small-exponent region-I coupling keeps the finite window honest
    cfs = dio.synth_alpha(1.5, 4, q2=2)
    lam_sc = (0.1, 0.9, 0.2)
    model_sc = ehm.ehm_model(lam_sc, cfs)
    iprs, pool = [], []
    for _, sd, keep in ops.phase_pool(model_sc, 2000, rng.random(6)):
        pool.extend(sd.eigenvalues[keep].tolist())
        iprs.extend(ops.ipr(sd, idx) for idx in keep)
        sd = None
    ipr_median = float(np.median(iprs))
    usable = [n for n in range(1, cfs.depth - 1) if cfs.q[n] <= 5000]
    pass_rates = []
    for lvl in usable[-2:]:
        passes = 0
        for i in range(32):
            theta = float(rng.random())
            E = float(pool[int(rng.integers(len(pool)))])
            rep = ops.gordon_test(model_sc, theta, E, cfs, level=lvl + 1,
                                  phi_count=8)
            passes += bool(rep.passed)
        pass_rates.append(passes / 32)
    sc_ok = (min(pass_rates) >= 0.9 and ipr_median < 10.0 / (2 * 2000 + 1))
    dt = time.time() - t0
    ok = pp_ok and sc_ok and dt <= 1800
    report(10, ok,
           f"(a) decay median {decay_median:.4f} vs L {L:.4f} "
           f"(within 20%), r2 median {r2_median:.3f} (> 0.9); "
           f"(b) Gordon pass rates {pass_rates} (>= 0.9), ipr median "
           f"{ipr_median:.2e} (< {10 / 4001:.2e}); {dt:.0f}s")


# -- criterion 11: Diophantine invariants ------------------------------------

def test_criterion_11_diophantine_invariants():
    freqs = [dio.expand("golden", 24), dio.expand("sqrt2", 18),
             dio.synth_alpha(1.0, 4), dio.synth_alpha(1.5, 4, q2=2)]
    checked_levels = 0
    scans = 0
    for cf in freqs:
        pr = cf.proxy
        den = pr.denominator
        for n in range(cf.depth - 1):
            lo, hi = cf.norm_interval(cf.q[n])
            assert lo >= Fraction(1, cf.q[n] + cf.q[n + 1])
            assert hi <= Fraction(1, cf.q[n + 1])
            checked_levels += 1
            if cf.q[n + 1] <= 100_000:
                r = (cf.q[n] * pr.numerator) % den
                target = Fraction(min(r, den - r), den)
                for k in range(1, cf.q[n + 1]):
                    r = (k * pr.numerator) % den
                    assert Fraction(min(r, den - r), den) >= target
                scans += 1
    report(11, True, f"approximation sandwich exact on {checked_levels} "
                     f"levels; best-approximation scans on {scans} levels "
                     f"(q_next <= 1e5)")


# -- criterion 12: CLI determinism -------------------------------------------

def test_criterion_12_cli_determinism(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "lyapunov"}))
    args = [sys.executable, "-m", "speclab.cli", "sweep", "--config",
            str(cfg), "--seed", "11",
            "--set", "lambda=0.1,0.5,0.2", "--set", "alpha=golden",
            "--set", "n_iter=20000", "--set", "n_phases=4",
            "--axis", "energy=0.1,0.3,0.5,0.7"]
    outs = {}
    for threads in (1, 4):
        base = tmp_path / f"t{threads}"
        env_t = dict(env, SPECLAB_THREADS=str(threads))
        r = subprocess.run(args + ["--out-dir", str(base)],
                           capture_output=True, text=True, env=env_t)
        assert r.returncode == 0, r.stderr
        blobs = [(base / "index.csv").read_bytes()]
        for i in range(4):
            blobs.append((base / f"point_{i:04d}" / "result.json").read_bytes())
        outs[threads] = blobs
    ok = outs[1] == outs[4]
    report(12, ok, "byte-identical index.csv and result artifacts across "
                   "SPECLAB_THREADS in {1, 4}")
