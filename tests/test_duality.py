import numpy as np
import pytest

from speclab import cocycles as coc
from speclab import duality as dua
from speclab import ehm
from speclab import operators as ops
from speclab import symbols as sym
from speclab.errors import AliasingBudgetExceeded


@pytest.fixture(scope="module")
def field(golden):
    return dua.random_band_limited(32, 64, seed=1, x_band=22, support=22,
                                   alpha=golden.value)


def test_dualize_amo_self_dual(golden):
    dual = dua.dualize(ehm.amo_model(1.0, golden))
    d0 = dual.d(0)
    assert d0.coeff(1) == pytest.approx(1.0)
    assert d0.coeff(-1) == pytest.approx(1.0)
    assert abs(dual.d(1).coeff(0) - 1.0) < 1e-14
    assert abs(dual.d(1).coeff(1)) < 1e-14
    assert dual.bandwidth == 1


def test_dualize_free_laplacian_is_multiplication(golden):
    model = coc.JacobiModel(ehm.hopping_symbol((0, 1.0, 0), golden.value),
                            sym.constant(0.0), golden)
    dual = dua.dualize(model)
    assert dual.bandwidth == 0
    xs = np.arange(32) / 32
    assert np.allclose(dual.d(0).eval(xs), 2 * np.cos(2 * np.pi * xs))


def test_dualize_ehm_matches_scaled_dual_couplings(golden, ehm_112):
    lam = (0.1, 0.5, 0.2)
    dual = dua.dualize(ehm_112)
    assert np.allclose(dual.d(0).coeff(1), lam[1])     # l2 * (1/l2 * ... )
    ref = ehm.ehm_model(ehm.sigma(lam), golden)
    op_dual = ops.build(dual, 0.37, 25).dense()
    op_ref = ops.build(ref, 0.37, 25).dense()
    assert np.max(np.abs(op_dual - lam[1] * op_ref)) < 1e-12


def test_double_dual_restores_family(golden):
    lam = (0.1, 0.5, 0.2)
    lam_hat = ehm.sigma(lam)
    assert np.allclose(ehm.sigma(lam_hat), lam, atol=1e-14)
    dual_of_dual = dua.dualize(ehm.ehm_model(lam_hat, golden))
    orig = ops.build(ehm.ehm_model(lam, golden), 0.21, 20).dense()
    dd = ops.build(dual_of_dual, 0.21, 20).dense()
    assert np.max(np.abs(dd - orig / lam[1])) < 1e-12


def test_dual_hermiticity_invariant(golden, ehm_112):
    # d_{-m'}(x) = conj d_{m'}(x + m' alpha) on a test grid
    dual = dua.dualize(ehm_112)
    xs = np.arange(257) / 257
    for mp, s in dual.d_symbols.items():
        lhs = dual.d_symbols[-mp].eval(xs)
        rhs = np.conj(s.eval(xs + mp * golden.value))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_dual_lattice_covariance(golden, ehm_112):
    dual = dua.dualize(ehm_112)
    a = ops.build(dual, 0.3, 30).dense()
    b = ops.build(dual, (0.3 + golden.value) % 1.0, 30).dense()
    assert np.max(np.abs(b[:-1, :-1] - a[1:, 1:])) < 1e-9


def test_u_k_zero_is_identity(field):
    assert dua.u_k(field, 0) is field


def test_u_r_unitary_and_inverse(field):
    ur = dua.u_r(field)
    assert ur.norm() == pytest.approx(field.norm(), abs=1e-10)
    assert dua.u_r_inv(field).norm() == pytest.approx(field.norm(), abs=1e-10)
    assert dua.u_k(field, 2).norm() == pytest.approx(field.norm(), abs=1e-12)
    back = dua.u_r_inv(ur)
    assert np.max(np.abs(back.values - field.values)) < 1e-10
    forth = dua.u_r(dua.u_r_inv(field))
    assert np.max(np.abs(forth.values - field.values)) < 1e-10


def test_shift_identities(golden, field):
    xs = np.arange(field.G) / field.G
    af = golden.value
    ur = dua.u_r(field)
    uri = dua.u_r_inv(field)
    for l in range(-3, 4):
        if l == 0:
            continue
        lhs = dua.u_r(dua.shift_field(field, l)).values
        rhs = np.exp(2j * np.pi * l * xs)[None, :] * ur.values
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        lhs = dua.u_r_inv(dua.shift_field(field, l)).values
        rhs = np.exp(-2j * np.pi * l * xs)[None, :] * uri.values
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_u_k_shift_identity(golden):
    psi = dua.random_band_limited(32, 64, seed=4, x_band=8, support=8,
                                  alpha=golden.value)
    xs = np.arange(psi.G) / psi.G
    af = golden.value
    for k in range(-2, 3):
        if k == 0:
            continue
        uk = dua.u_k(psi, k)
        for l in range(-3, 4):
            if l == 0:
                continue
            lhs = dua.u_k(dua.shift_field(psi, l), k).values
            rhs = (np.exp(2j * np.pi * l * k * (xs + l * af / 2))[None, :]
                   * dua.shift_field(uk, l).values)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_aliasing_budget_rejected(golden):
    vals = np.zeros((65, 64), dtype=complex)
    xs = np.arange(64)
    vals[32] = np.exp(2j * np.pi * 31 * xs / 64)   # top x-frequency
    hot = dua.GridField(vals, golden.value)
    with pytest.raises(AliasingBudgetExceeded):
        dua.u_r(hot)


def test_duality_residual_cases(golden, field, ehm_112):
    assert dua.duality_residual(ehm.amo_model(1.0, golden), field) < 1e-6
    model = coc.JacobiModel(ehm.hopping_symbol((0, 1.0, 0), golden.value),
                            sym.constant(0.0), golden)
    assert dua.duality_residual(model, field) < 1e-6
    assert dua.duality_residual(ehm_112, field) < 1e-6


def test_duality_checks_smoke(golden):
    lam = (0.1, 0.5, 0.2)
    model = ehm.ehm_model(lam, golden)
    ref = ehm.ehm_model(ehm.sigma(lam), golden)
    rep = dua.duality_checks(model, lam[1], ref, N=300, n_phases=6, seed=1)
    assert rep.hausdorff < 0.1
    assert rep.kolmogorov < 0.1


def test_duality_checks_phases_follow_seed(golden):
    lam = (0.1, 0.5, 0.2)
    model = ehm.ehm_model(lam, golden)
    ref = ehm.ehm_model(ehm.sigma(lam), golden)
    reps = [dua.duality_checks(model, lam[1], ref, N=60, n_phases=2, seed=s)
            for s in (0, 5, 5)]
    assert reps[1] == reps[2]
    assert reps[0] != reps[1]
