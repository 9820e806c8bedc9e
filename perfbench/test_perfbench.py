"""Tests of the benchmark itself.

Every workload runs end to end at smoke size, untraced and traced, with all
checks passing and the metrics that BENCHMARK.json names; every checker
rejects a wrong value; the tracer rebinds and restores the library's names;
and the benchmark refuses to run without the library's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from speclab import cocycles as coc  # noqa: E402
from speclab import diophantine as dio  # noqa: E402
from speclab import duality as dua  # noqa: E402
from speclab import ehm  # noqa: E402
from speclab import operators as ops  # noqa: E402
from speclab import reducibility as red  # noqa: E402

WORKLOADS = ("lyapunov", "spectral", "transition", "reducibility")
ALPHA = (math.sqrt(5.0) - 1.0) / 2.0


def _bench(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    r = _bench(ROOT, workload, trace, "--smoke")
    assert r.returncode == 0, r.stderr
    res = json.loads(r.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] is True, r.stdout + r.stderr
    assert res["failed"] == 0 and res["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    r = _bench(tmp_path, "lyapunov", 0)
    assert r.returncode != 0
    assert r.stdout == ""


def test_tracer_rebinds_and_restores_names():
    import tracing
    orig = coc.orbit_phases
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # duality and operators bind orbit_phases by `from .cocycles import`
        assert dua.orbit_phases is coc.orbit_phases is ops.orbit_phases
        assert coc.orbit_phases is not orig
        model = ehm.ehm_model((0.1, 0.5, 0.2), dio.expand("golden", 20))
        dual = dua.dualize(model)
        ops.eigensolve(ops.build(dual, 0.3, 40), want_vectors=True)
    finally:
        tracer.uninstall()
    assert coc.orbit_phases is orig and dua.orbit_phases is orig
    totals = tracer.snapshot()
    assert totals["operators.eigensolve.calls"] == 1
    assert totals["operators.eigensolve.sites"] == 81
    assert totals["cocycles.orbit_phases.self_s"] > 0
    names = {s[1] for s in tracer.spans}
    assert {"operators.build", "duality.lattice_bands",
            "cocycles.orbit_phases", "symbols.eval"} <= names
    by_id = {s[0]: s for s in tracer.spans}
    assert by_id[[s for s in tracer.spans
                  if s[1] == "duality.lattice_bands"][0][4]][1] == "operators.build"


# ---------------------------------------------------------------------------
# reference values agree with the library where both exist
# ---------------------------------------------------------------------------

def test_references_agree_with_the_library():
    cf = dio.expand("golden", 40)
    p, q = checks.fibonacci_convergents(40)
    assert list(cf.p) == p and list(cf.q) == q
    assert checks.ehm_lyapunov((0.0, 0.5, 0.0)) == math.log(2.0)
    for lam in ((0.1, 0.5, 0.2), (0.2, 0.4, 0.1), (0.3, 0.5, 0.3)):
        assert checks.ehm_lyapunov(lam) == pytest.approx(
            ehm.lyapunov_closed_form(lam), abs=1e-14)
    lam = (0.3, 0.5, 0.3)
    assert np.allclose(checks.singular_phases(lam, cf.value),
                       sorted(ehm.classify(lam).shifted_phases(cf.value)),
                       atol=1e-14)
    for phi in (0.1, 0.2345, 0.4):
        assert checks.dc_gamma(phi, 2.0, 300, p[-1], q[-1]) == pytest.approx(
            dio.dc_membership(cf, phi, 2.0, 300), abs=1e-12)
    assert checks.fibonacci_beta(40, 20) == pytest.approx(
        max(math.log(q[n + 1]) / q[n] for n in range(3, 20)))


# ---------------------------------------------------------------------------
# every checker rejects a wrong value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", ((0.0, 0.5, 0.0), (0.1, 0.5, 0.2),
                                 (0.2, 0.4, 0.1)))
def test_lyapunov_off_by_five_percent_is_rejected(lam):
    L = checks.ehm_lyapunov(lam)
    assert checks.check_lyapunov(L + 1e-4, 1e-4, L)[0]
    assert not checks.check_lyapunov(1.05 * L, 1e-4, L)[0]
    assert not checks.check_strip([0.0, 1e-3, 0.05 * L])[0]


def test_rotation_number_shifted_by_002_is_rejected():
    model = ehm.ehm_model((0.0, 0.5, 0.0), dio.expand("golden", 40))
    grid = np.linspace(-3.5, 3.5, 15)
    curve = ops.ids(model, grid, 150, 1, seed=1)
    rho = coc.rotation_sweep(model, grid, 5_000)
    assert checks.check_ids_rotation(curve.N_of_E, rho)[0]
    assert not checks.check_ids_rotation(curve.N_of_E, rho + 0.02)[0]
    assert checks.check_ids_shape(curve.N_of_E)[0]
    assert not checks.check_ids_shape(curve.N_of_E[::-1])[0]
    assert checks.check_rotation_target(0.3, 0.3005, 0, ALPHA)[0]
    assert not checks.check_rotation_target(0.32, 0.3, 0, ALPHA)[0]
    assert checks.check_rotation_target(0.3 + ALPHA / 2, 0.3, 1, ALPHA)[0]


def test_off_orbit_phase_reported_on_orbit_is_rejected():
    from fractions import Fraction
    p, q = checks.fibonacci_convergents(40)
    lam = (0.3, 0.5, 0.3)
    phases = checks.singular_phases(lam, ALPHA)
    K = 987
    on = float((Fraction(phases[1]) + K * Fraction(p[-1], q[-1])) % 1)
    d_on = checks.orbit_distance(on, phases, K, p[-1], q[-1])
    d_off = checks.orbit_distance(0.123, phases, K, p[-1], q[-1])
    assert d_on < 1e-15 < 1e-6 < d_off
    assert checks.check_orbit_scan(True, d_on)[0]
    assert checks.check_orbit_scan(False, d_off)[0]
    assert not checks.check_orbit_scan(True, d_off)[0]
    assert not checks.check_orbit_scan(False, d_on)[0]
    assert not checks.check_orbit_scan(False, 1e-12)[0]
    beta = checks.fibonacci_beta(40, 20)
    assert checks.check_delta(0.02, beta)[0]
    assert not checks.check_delta(beta + 0.01, beta)[0]


def test_conjugacy_residual_times_1e4_is_rejected():
    cf = dio.expand("golden", 40)
    lam = checks.sigma((0.1, 0.5, 0.2))
    model = ehm.ehm_model(lam, cf)
    E = float(np.median(ops.spectrum_proxy(model, 100, 1)))
    co = coc.Cocycle(model, E, kind="normalized")
    rho = coc.rotation_number(co, 20_000)
    cand = red.fit_conjugacy(co, rho, 32, 512)
    off_grid = (np.arange(512) + 0.5) / 512
    fit = checks.conjugacy_residual(
        cand.z_coeffs, cf.value, rho,
        lambda th: checks.normalized_cocycle(lam, cf.value, E, th), off_grid)
    assert fit == pytest.approx(cand.residual, rel=0.5)
    assert checks.check_below("fit", fit, 1e-3)[0]
    assert not checks.check_below("fit", 1e4 * fit, 1e-3)[0]
    assert checks.check_dual_eigenvector(5 * fit, fit)[0]
    assert not checks.check_dual_eigenvector(1e4 * fit, fit)[0]

    # a constant conjugacy B = C^-1 recovers C R C^-1; a perturbed A does not
    rng = np.random.default_rng(3)
    C = checks.random_sl2(rng)
    A = C @ checks.rotation(0.2) @ np.linalg.inv(C)
    z = np.zeros((2, 3), dtype=complex)
    Cinv = np.linalg.inv(C)
    z[:, 1] = Cinv[0] + 1j * Cinv[1]
    th = np.linspace(0, 1, 64, endpoint=False)
    exact = checks.conjugacy_residual(
        z, ALPHA, 0.2, lambda t: np.broadcast_to(A, (len(t), 2, 2)), th)
    wrong = checks.conjugacy_residual(
        z, ALPHA, 0.2, lambda t: np.broadcast_to(A + 1e-6, (len(t), 2, 2)), th)
    assert checks.check_below("recovery", exact, 1e-10)[0]
    assert not checks.check_below("recovery", wrong, 1e-10)[0]


def test_other_checkers_reject_wrong_values():
    L = math.log(3.0)
    good = {"verdict": "pp-side", "L_lambda": L,
            "decay": {"median": 1.1 * L, "r2_median": 0.92}}
    assert checks.check_transition(0, good, L)[0]
    assert not checks.check_transition(2, good, L)[0]
    for key, bad in (("verdict", "sc-side"), ("L_lambda", 1.01 * L)):
        assert not checks.check_transition(0, dict(good, **{key: bad}), L)[0]
    for decay in ({"median": 1.25 * L, "r2_median": 0.92},
                  {"median": L, "r2_median": 0.89}):
        assert not checks.check_transition(0, dict(good, decay=decay), L)[0]
    assert checks.check_duality(1e-2, 1e-2)[0]
    assert not checks.check_duality(3e-2, 1e-2)[0]
    assert not checks.check_duality(1e-2, 3e-2)[0]
    assert not checks.check_equal("q", [1, 2, 3, 5], [1, 2, 3, 4])[0]
    assert not checks.check_close("phases", [0.1, 0.2], [0.1, 0.2 + 1e-9], 1e-12)[0]
    assert not checks.check_below("residual", 2e-8, 1e-8)[0]
