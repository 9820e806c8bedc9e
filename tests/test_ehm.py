import math

import numpy as np
import pytest

from speclab import cocycles as coc
from speclab import diophantine as dio
from speclab import duality as dua
from speclab import ehm
from speclab import operators as ops
from speclab.errors import InvalidParameters, NotRegionOne


def test_classify_regions():
    assert ehm.classify((0.1, 0.5, 0.2)).region == "I"
    assert ehm.classify((0.4, 2.0, 0.2)).region == "II"
    assert ehm.classify((0.9, 0.5, 0.9)).region == "III"
    assert ehm.classify((0.1, 0.5, 0.2)).singular_case == "nonsingular"


def test_classify_singular_cases(golden):
    af = golden.value
    pp = ehm.classify((0.5, 0.5, 0.5))
    # l1 + l3 = 1 sits on the region edge; the zero positions still apply
    assert pp.region == "boundary"
    assert pp.singular_case == "two_zeros"
    assert sorted(pp.shifted_phases(af)) == pytest.approx(
        sorted(((1 / 3 - af / 2) % 1, (-1 / 3 - af / 2) % 1)), abs=1e-12)
    pp2 = ehm.classify((0.2, 0.5, 0.3))
    assert pp2.singular_case == "one_zero"
    assert pp2.shifted_phases(af)[0] == pytest.approx((0.5 - af / 2) % 1)
    assert ehm.classify((0.2, 0.6, 0.2)).singular_case == "nonsingular"


def test_classify_invalid():
    with pytest.raises(InvalidParameters):
        ehm.classify((-0.1, 0.5, 0.2))
    with pytest.raises(InvalidParameters):
        ehm.classify((0.1, 0.0, 0.2))


def test_sigma_involution_and_region_duality():
    rng = np.random.default_rng(3)
    count = 0
    while count < 12:
        lam = tuple(rng.uniform(0.05, 0.9, size=3))
        if ehm.classify(lam).region != "I":
            continue
        lam_hat = ehm.sigma(lam)
        assert np.allclose(ehm.sigma(lam_hat), lam, atol=1e-14)
        assert ehm.classify(lam_hat).region == "II"
        count += 1


def test_lyapunov_closed_form_values():
    assert ehm.lyapunov_closed_form((0.0, 0.5, 0.0)) == pytest.approx(
        math.log(2.0), abs=1e-15)
    expect = math.log((1 + math.sqrt(0.92)) / (0.5 + math.sqrt(0.17)))
    assert ehm.lyapunov_closed_form((0.1, 0.5, 0.2)) == pytest.approx(
        expect, abs=1e-15)
    assert f"{ehm.lyapunov_closed_form((0.1, 0.5, 0.2)):.5f}" == "0.76429"


def test_lyapunov_closed_form_region_errors():
    with pytest.raises(NotRegionOne):
        ehm.lyapunov_closed_form((0.5, 0.9, 0.5))   # l1 + l3 = 1 boundary
    with pytest.raises(NotRegionOne):
        ehm.lyapunov_closed_form((0.4, 2.0, 0.2))


def test_dual_symbol_roots_and_winding(golden):
    af = golden.value
    d, zer, w = ehm.dual_symbol((0.1, 0.5, 0.2), af)
    moduli = sorted(np.abs(zer.roots))
    disc = math.sqrt(1 - 4 * 0.1 * 0.2)
    expect = sorted(abs((-1 + s * disc) / (2 * 0.1)) for s in (1, -1))
    assert moduli == pytest.approx(expect, rel=1e-10)
    assert w == 0
    assert len(zer.on_circle) == 0


def test_dual_symbol_amo_constant_hopping(golden):
    d, zer, w = ehm.dual_symbol((0.0, 0.5, 0.0), golden.value)
    assert d.coeff(0) == pytest.approx(2.0)
    assert len(zer.roots) == 0
    assert w == 0


def test_dual_symbol_on_circle_flagged(golden):
    # l1 l3 > 1/4: complex root pair with modulus sqrt(l3/l1) = 1
    d, zer, w = ehm.dual_symbol((0.6, 0.9, 0.6), golden.value)
    assert len(zer.on_circle) == 2
    assert w is None


def test_dual_symbol_winding_region_one_sample():
    rng = np.random.default_rng(11)
    count = 0
    while count < 20:
        lam = tuple(rng.uniform(0.02, 0.9, size=3))
        if ehm.classify(lam).region != "I":
            continue
        _, zer, w = ehm.dual_symbol(lam, 0.618)
        assert w == 0
        count += 1


def test_closed_form_matches_iteration(golden):
    rng = np.random.default_rng(7)
    for lam in ((0.0, 0.5, 0.0), (0.1, 0.5, 0.2), (0.2, 0.4, 0.1)):
        L = ehm.lyapunov_closed_form(lam)
        model = ehm.ehm_model(lam, golden)
        E = float(ops.spectrum_samples(model, 1, N=600, n_theta=4)[0])
        est = coc.lyapunov(coc.Cocycle(model, E, kind="normalized"),
                           n_iter=200_000, n_phases=8,
                           seed=int(rng.integers(1 << 30)))
        assert abs(est.value - L) <= max(1e-2, 2 * est.stderr)


def test_transition_smoke_pp_side(golden):
    report = ehm.transition_experiment((0.1, 0.5, 0.2), golden, N=400,
                                       seed=3, n_phases=6)
    assert report["region"] == "I"
    assert report["verdict"] in ("pp-side", "inconclusive")
    assert report["decay"]["median"] == pytest.approx(
        report["L_lambda"], rel=0.3)
    assert {"lambda", "region", "L_lambda", "beta", "verdict", "decay",
            "ipr", "gordon", "provenance"} <= set(report)


def test_transition_smoke_sc_side():
    cfs = dio.synth_alpha(1.5, 4, q2=2)
    report = ehm.transition_experiment(
        (0.1, 0.9, 0.2), cfs, N=400, seed=5, n_phases=6,
        thresholds={"min_q": 10})
    assert report["beta"] > report["L_lambda"]
    assert report["verdict"] in ("sc-side", "inconclusive")
    assert report["gordon"][-1]["pass_rate"] >= 0.9


def test_transition_decay_fit_bug_propagates(golden, monkeypatch):
    # only the expected fit refusals (ValidationError) are counted and
    # skipped; anything else is a bug and must surface
    def broken(sd, index):
        raise RuntimeError("bug in the fit")

    monkeypatch.setattr(ops, "decay_rate", broken)
    with pytest.raises(RuntimeError):
        ehm.transition_experiment((0.1, 0.5, 0.2), golden, N=100, n_phases=1)


def test_transition_region_two_rejected(golden):
    with pytest.raises(NotRegionOne):
        ehm.transition_experiment((0.4, 2.0, 0.2), golden, N=200)


def test_duality_checks_wrapper_exists(golden):
    lam = (0.1, 0.5, 0.2)
    model = ehm.ehm_model(lam, golden)
    ref = ehm.ehm_model(ehm.sigma(lam), golden)
    rep = dua.duality_checks(model, lam[1], ref, N=200, n_phases=4, seed=0)
    assert rep.hausdorff < 0.15


def test_atlas_rows():
    rows = ehm.atlas_rows([0.3, 1.2], [0.5, 2.0])
    assert len(rows) == 4
    regions = {(r["l1"] + r["l3"], r["l2"]): r["region"] for r in rows}
    assert regions[(0.3, 0.5)] == "I"
    assert regions[(0.3, 2.0)] == "II"
    assert regions[(1.2, 0.5)] == "III"
    for r in rows:
        if r["region"] == "I":
            assert r["L"] is not None and r["dual_winding"] == 0
