import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from speclab import cocycles as coc
from speclab import diophantine as dio
from speclab import ehm
from speclab import operators as ops
from speclab import symbols as sym
from speclab.errors import (OutsideStrip, SingularHopping, ValidationError,
                            VanishesOnTorus)
from conftest import random_sl2

LN2 = math.log(2.0)


def const_cocycle(mat):
    ent = tuple(tuple(sym.constant(complex(mat[i][j])) for j in range(2))
                for i in range(2))
    return coc.Cocycle(None, 0.0, kind="custom", entries=ent)


def one_matrix(co, theta):
    return co.matrices(np.array([theta]))[0]


def log_norm(p):
    return p.log_scale + math.log(np.linalg.norm(p.matrix, 2))


def test_matrix_at_free_normalized(golden):
    model = ehm.ehm_model((0.0, 1.0, 0.0), golden)
    model = coc.JacobiModel(model.c, sym.constant(0.0), golden)
    co = coc.Cocycle(model, 0.0, kind="normalized")
    m = one_matrix(co, 0.37)
    assert np.allclose(m, [[0, -1], [1, 0]], atol=1e-12)


def test_matrix_at_free_transfer(golden):
    model = coc.JacobiModel(ehm.hopping_symbol((0, 1.0, 0), golden.value),
                            sym.constant(0.0), golden)
    co = coc.Cocycle(model, 1.7, kind="transfer")
    assert np.allclose(one_matrix(co, 0.9), [[1.7, -1], [1, 0]], atol=1e-12)


def test_matrix_at_singular_hopping(golden):
    # |c| is 6e-15 at the offset phase: the normalized kind tests |c| at
    # each point, not s = sqrt(ab), which a large neighbour lifts past 1e-12
    model = ehm.ehm_model((0.2, 0.5, 0.3), golden)
    for kind in ("transfer", "normalized"):
        co = coc.Cocycle(model, 0.1, kind=kind)
        for offset in (0.0, 1e-14):
            theta = (0.5 - golden.value / 2 + offset) % 1.0
            with pytest.raises(SingularHopping):
                one_matrix(co, theta)
            with pytest.raises(SingularHopping):
                co.matrices([theta, theta + golden.value])
            with pytest.raises(SingularHopping):
                co.orbit_entries(np.array([theta]), 0, 2)


def test_lyapunov_constant_diagonal():
    co = const_cocycle([[2.0, 0.0], [0.0, 0.5]])
    est = coc.lyapunov(co, n_iter=5000, n_phases=4, seed=1)
    assert abs(est.value - LN2) < 1e-12
    assert est.stderr < 1e-12


def test_lyapunov_conjugation_invariance(ehm_112):
    # finite-n bound: |L_conj - L| <= 2 ln cond(C) / n
    rng = np.random.default_rng(5)
    C = random_sl2(rng)
    Ci = np.linalg.inv(C)
    E = 0.31
    co = coc.Cocycle(ehm_112, E, kind="normalized")
    n = 200_000
    base = coc.lyapunov(co, n_iter=n, n_phases=6, seed=9)

    # same cocycle conjugated by the constant matrix
    # build custom symbol entries for C A(theta) C^{-1} is impossible with
    # static symbols (theta-dependent); instead conjugate matrices directly
    calls = []

    class ConjCocycle(coc.Cocycle):
        def orbit_entries(self, thetas, k0, count):
            m, growth = super().orbit_entries(thetas, k0, count)
            calls.append(np.size(m[0]))
            out = np.stack(np.broadcast_arrays(*m), -1).reshape(
                m[0].shape + (2, 2))
            # C A C^-1 and its inverse have row sums up to cond(C) G
            return (coc._entries(np.einsum("ij,...jk,kl->...il", C, out, Ci)),
                    growth * np.linalg.cond(C, np.inf))

    co2 = ConjCocycle(ehm_112, E, kind="normalized")
    conj = coc.lyapunov(co2, n_iter=n, n_phases=6, seed=9)
    # the kernel reads the cocycle through `orbit_entries`, every step of it
    assert sum(calls) == 6 * n
    cond = np.linalg.cond(C)
    assert abs(conj.value - base.value) <= 2 * math.log(cond) / n + 1e-9


def test_lyapunov_rescale_schedule_invariance(ehm_112, monkeypatch):
    # quartering the block size must not change the value beyond float
    # noise: 4 phases in 4 * 1024 and then 4 * 256 cells are blocks of
    # 1024 and 256 steps
    co = coc.Cocycle(ehm_112, 0.31, kind="normalized")
    monkeypatch.setattr(coc, "_CELLS", 4 * 1024)
    a = coc.lyapunov(co, n_iter=50_000, n_phases=4, seed=3)
    monkeypatch.setattr(coc, "_CELLS", 4 * 256)
    b = coc.lyapunov(co, n_iter=50_000, n_phases=4, seed=3)
    assert abs(a.value - b.value) < 1e-9


def test_lyapunov_transfer_matches_normalized(ehm_112):
    E = 0.31
    a = coc.lyapunov(coc.Cocycle(ehm_112, E, kind="transfer"),
                     n_iter=100_000, n_phases=8, seed=2)
    b = coc.lyapunov(coc.Cocycle(ehm_112, E, kind="normalized"),
                     n_iter=100_000, n_phases=8, seed=7)
    assert abs(a.value - b.value) <= 2 * (a.stderr + b.stderr) + 5e-4


def test_lyapunov_strip_constant_and_epsilon_zero(ehm_112):
    co = const_cocycle([[2.0, 0.0], [0.0, 0.5]])
    ests = coc.lyapunov_strip(co, [0.0, 0.01, 0.02], n_iter=2000, n_phases=2,
                              seed=11)
    for e in ests:
        assert abs(e.value - LN2) < 1e-12
    co2 = coc.Cocycle(ehm_112, 0.31, kind="normalized")
    plain = coc.lyapunov(co2, n_iter=20_000, n_phases=4, seed=5)
    strip = coc.lyapunov_strip(co2, [0.0], n_iter=20_000, n_phases=4, seed=5)
    assert strip[0].value == plain.value


def test_lyapunov_strip_outside_strip(ehm_112):
    co = coc.Cocycle(ehm_112, 0.31, kind="normalized")
    with pytest.raises(OutsideStrip):
        coc.lyapunov_strip(co, [10.0], n_iter=1000, n_phases=2, seed=0)


def test_det_invariants(ehm_112, golden):
    grid = np.arange(4096) / 4096
    co_n = coc.Cocycle(ehm_112, 0.31, kind="normalized")
    dets = np.linalg.det(co_n.matrices(grid))
    assert np.max(np.abs(np.abs(dets) - 1.0)) < 1e-10
    co_t = coc.Cocycle(ehm_112, 0.31, kind="transfer")
    dets_t = np.linalg.det(co_t.matrices(grid))
    ct = ehm_112.c_tilde.eval(grid - golden.value)
    c = ehm_112.c.eval(grid)
    assert np.max(np.abs(dets_t - ct / c)) < 1e-10
    # |det| -> 1 in geometric mean over theta
    assert abs(float(np.mean(np.log(np.abs(dets_t))))) < 1e-6


def test_subadditivity_on_matched_samples(ehm_112):
    n = 400
    rng = np.random.default_rng(21)
    co = coc.Cocycle(ehm_112, 0.31, kind="normalized")
    af = ehm_112.alpha.value
    lhs = rhs = 0.0
    for theta in rng.random(6):
        p2n = coc.finite_product(co, theta, 0, 2 * n - 1)
        pa = coc.finite_product(co, theta, 0, n - 1)
        pb = coc.finite_product(co, theta, n, 2 * n - 1)
        lhs += log_norm(p2n) / (2 * n)
        rhs += (log_norm(pa) + log_norm(pb)) / (2 * n)
    assert lhs <= rhs + 1e-9


def test_finite_product_trivial_cases(ehm_112):
    co = coc.Cocycle(ehm_112, 0.31, kind="normalized")
    ident = coc.finite_product(co, 0.2, 3, 2)
    assert np.allclose(ident.matrix, np.eye(2))
    single = coc.finite_product(co, 0.2, 0, 0)
    m = single.matrix * math.exp(single.log_scale)
    assert np.allclose(m, one_matrix(co, 0.2), atol=1e-12)


def test_finite_product_inverse_is_stable(ehm_112):
    # direct inversion of a grown product underflows its determinant; the
    # per-step route must stay finite and invert short segments exactly
    co = coc.Cocycle(ehm_112, 0.31, kind="transfer")
    P = coc.finite_product(co, 0.4, -6, -1)
    Pi = coc.finite_product_inv(co, 0.4, -6, -1)
    prod = (P.matrix @ Pi.matrix) * math.exp(P.log_scale + Pi.log_scale)
    assert np.max(np.abs(prod - np.eye(2))) < 1e-8
    big = coc.finite_product_inv(co, 0.4, -400, -1)
    assert np.all(np.isfinite(big.matrix))
    assert math.isfinite(big.log_scale)


def test_finite_product_singular_site_reported(golden):
    model = ehm.ehm_model((0.2, 0.5, 0.3), golden)
    co = coc.Cocycle(model, 0.1, kind="transfer")
    theta0 = (0.5 - golden.value / 2 - 7 * golden.value) % 1.0
    with pytest.raises(SingularHopping) as exc:
        coc.finite_product(co, theta0, 0, 20)
    assert exc.value.site == 7


def test_uniform_upper_bound_fitted(golden, amo_half):
    # fit C_delta on one phase set, verify the bound on a fresh set
    L, delta = LN2, 0.1
    co = coc.Cocycle(amo_half, 0.0, kind="normalized")
    rng = np.random.default_rng(31)
    fit_excess = []
    for n in (10, 100, 1000):
        for theta in rng.random(8):
            p = coc.finite_product(co, theta, 0, n - 1)
            fit_excess.append(log_norm(p) - (L + delta) * n)
    C = math.exp(max(fit_excess)) * 1.5
    for n in (10, 100, 1000):
        for theta in rng.random(8):
            p = coc.finite_product(co, theta, 0, n - 1)
            assert log_norm(p) <= math.log(C) + (L + delta) * n


def test_rotation_number_extremes(amo_half):
    hi = amo_half.sup_bound() + 1.0
    above = coc.rotation_number(coc.Cocycle(amo_half, hi, kind="normalized"),
                                n_iter=50_000)
    below = coc.rotation_number(coc.Cocycle(amo_half, -hi, kind="normalized"),
                                n_iter=50_000)
    assert above <= 1e-3
    assert abs(below - 0.5) <= 1e-3


def test_rotation_number_amo_center(amo_half):
    r = coc.rotation_number(coc.Cocycle(amo_half, 0.0, kind="normalized"),
                            n_iter=200_000)
    assert abs(r - 0.25) <= 2e-3


def test_rotation_monotone(amo_half):
    E = np.linspace(-2.6, 2.6, 100)
    rhos = coc.rotation_sweep(amo_half, E, n_iter=30_000)
    assert np.all(np.diff(rhos) <= 2e-3)


def test_orbit_phases_anchoring(golden):
    # long-orbit phase must match the exact rational reduction
    ph = coc.orbit_phases(golden, 0.3, 10**6, 4)
    exact = float((Fraction(0.3) + 10**6 * golden.proxy) % 1)
    assert abs(ph[0] - exact) < 1e-9


def test_estimate_json(ehm_112):
    est = coc.lyapunov(coc.Cocycle(ehm_112, 0.31, kind="normalized"),
                       n_iter=1000, n_phases=2, seed=0)
    blob = est.to_json()
    assert set(blob) == {"value", "stderr", "n_iter", "n_phases", "method",
                         "seed"}


# -- the normalized step against the Fourier projection of |c| ---------------

def _projected_step(model, th):
    """The normalized step as built from the projection of |c| alone: the
    reference for the exact real-torus step."""
    mod = sym.modulus_symbol(model.c, 4 * model.c.order + 64)
    a = mod.eval(th).real
    b = mod.eval(th - model.alpha.value).real
    return a, b, model.v.eval(th).real, np.sqrt(np.abs(a * b))


@pytest.mark.parametrize("lam", [(0.1, 0.5, 0.2), ehm.sigma((0.1, 0.5, 0.2)),
                                 (0.2, 0.4, 0.1)])
def test_normalized_matrices_match_projection(golden, lam):
    model = ehm.ehm_model(lam, golden)
    co = coc.Cocycle(model, 0.31, kind="normalized")
    th = np.random.default_rng(4).random((4, 256))
    mod = sym.modulus_symbol(model.c, 4 * model.c.order + 64)
    a, b = mod.eval(th), mod.eval(th - golden.value)
    s = np.sqrt(a * b)
    ref = np.zeros(th.shape + (2, 2), dtype=complex)
    ref[..., 0, 0] = (0.31 - model.v.eval(th)) / s
    ref[..., 0, 1] = -b / s
    ref[..., 1, 0] = a / s
    mats = co.matrices(th)
    assert mats.dtype == np.float64
    assert np.max(np.abs(mats - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_rotation_and_lyapunov_match_projection(golden, monkeypatch):
    model = ehm.ehm_model((0.1, 0.5, 0.2), golden)
    energies = np.linspace(-2.5, 2.5, 12)
    co = coc.Cocycle(model, 0.31, kind="normalized")
    rho = coc.rotation_sweep(model, energies, n_iter=20_000, theta0=0.3)
    est = coc.lyapunov(co, n_iter=20_000, n_phases=4, seed=3)
    # both read orbits through `_orbit_step`: the reference replaces it
    reads = []

    def projected(model, thetas, k0, count, eps=0.0):
        assert eps == 0.0
        reads.append(count)
        a, b, v, s = _projected_step(
            model, coc.orbit_phases(model.alpha, thetas, k0, count))
        # the kernel also returns the least and largest |c| it read
        return a, b, v, s, (min(a.min(), b.min()), max(a.max(), b.max()))

    monkeypatch.setattr(coc, "_orbit_step", projected)
    rho_ref = coc.rotation_sweep(model, energies, n_iter=20_000, theta0=0.3)
    est_ref = coc.lyapunov(co, n_iter=20_000, n_phases=4, seed=3)
    assert sum(reads) == 20_000 * 2
    assert np.max(np.abs(rho - rho_ref)) <= 1e-12
    assert abs(est.value - est_ref.value) <= 1e-12


# -- the orbit read against the grid read at orbit phases ----------------------

@pytest.mark.parametrize("lam", [(0.1, 0.5, 0.2), ehm.sigma((0.1, 0.5, 0.2))])
@pytest.mark.parametrize("kind,eps", [("normalized", 0.0),
                                      ("normalized", 0.05),
                                      ("transfer", 0.0), ("transfer", 0.05)])
def test_orbit_entries_match_matrices_at_orbit_phases(golden, lam, kind, eps):
    # the orbit read takes z from the anchor table and b (c~) from the
    # point before; the grid read takes z = e^{2 pi i theta} and
    # zb = z e^{-2 pi i alpha} at the same phases
    co = coc.Cocycle(ehm.ehm_model(lam, golden), 0.31, kind=kind,
                     epsilon=eps)
    thetas = np.random.default_rng(6).random(3)
    for k0, count in ((0, 1), (0, 256), (1000, 777), (-300, 2049)):
        got = np.stack(np.broadcast_arrays(*co.orbit_entries(
            thetas, k0, count)[0]), -1).reshape(3, count, 2, 2)
        ref = co.matrices(coc.orbit_phases(golden, thetas, k0, count))
        assert got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("lam", [(0.1, 0.5, 0.2), ehm.sigma((0.1, 0.5, 0.2))])
def test_orbit_read_sums_horner_times_zinv(golden, lam):
    # on the real torus both kinds read c, c~ and v as horner(z) times K
    # in-place multiplications by zinv, and |c| as |horner(z)|: bit for bit
    model = ehm.ehm_model(lam, golden)
    thetas = np.random.default_rng(8).random(3)
    z, zinv = coc._orbit_points(golden, thetas, 99, 514)

    def summed(s, cols):
        out = s.horner(z[:, cols])
        for _ in range(s.order):
            out *= zinv[:, cols]
        return out

    E, now, before = 0.31, slice(1, None), slice(None, -1)
    v = summed(model.v, now)
    r = 1.0 / summed(model.c, now)
    mod = np.abs(model.c.horner(z))
    a, b = mod[:, 1:], mod[:, :-1]
    rs = 1.0 / np.sqrt(a * b)
    refs = {"transfer": ((E - v) * r, -summed(model.c_tilde, before) * r,
                         1.0, 0.0),
            "normalized": ((E - v.real) * rs, -b * rs, a * rs, 0.0)}
    for kind, ref in refs.items():
        got = coc.Cocycle(model, E, kind=kind).orbit_entries(thetas, 100,
                                                             513)[0]
        for x, y in zip(got, ref):
            assert np.array_equal(x, np.broadcast_to(y, x.shape))


def test_orbit_phases_agree_with_exact_fractions(golden):
    thetas = np.array([0.0, 0.3, 0.9])
    ph = coc.orbit_phases(golden, thetas, 1000, 777)
    for i, th in enumerate(thetas):
        for k in (0, 1, 255, 256, 500, 776):
            exact = (Fraction(th) + (1000 + k) * golden.proxy) % 1
            assert abs(ph[i, k] - float(exact)) <= 2e-15


def test_orbit_read_refuses_branch_and_zero_hopping(golden):
    # the dual of the singular (0.3, 0.5, 0.3) passes 3 pi / 4 at the
    # strip radius along orbits as on the grid
    model = ehm.ehm_model(ehm.sigma((0.3, 0.5, 0.3)), golden)
    R = sym.modulus_strip(model.c)
    thetas = np.random.default_rng(1).random(2)
    ok = coc.Cocycle(model, 0.31, epsilon=0.9 * R)
    assert np.all(np.isfinite(ok.orbit_entries(thetas, 7, 4096)[0][0]))
    with pytest.raises(OutsideStrip):
        coc.Cocycle(model, 0.31, epsilon=R).orbit_entries(thetas, 7, 4096)
    # c vanishes at site 1000 of the singular model: the transfer read
    # names the site from its own c
    model = ehm.ehm_model((0.2, 0.5, 0.3), golden)
    theta0 = (0.5 - golden.value / 2 - 1000 * golden.value) % 1.0
    co = coc.Cocycle(model, 0.1, kind="transfer")
    with pytest.raises(SingularHopping) as exc:
        co.orbit_entries(np.array([0.7, theta0]), 999, 301)
    assert exc.value.site == 1000
    # a hopping that vanishes everywhere stops the normalized reads too
    zero = coc.JacobiModel(sym.TorusSymbol(np.zeros(3), True, golden.value),
                           model.v, golden)
    with pytest.raises(SingularHopping):
        coc.lyapunov(coc.Cocycle(zero, 0.1), 300, 2)
    with pytest.raises(SingularHopping):
        coc.rotation_sweep(zero, np.array([0.1]), 300)


@pytest.mark.parametrize("lam", [ehm.sigma((0.1, 0.5, 0.2)), (0.1, 0.5, 0.2),
                                 (0.2, 0.4, 0.1)])
def test_strip_modulus_matches_reflection_and_projection(golden, lam):
    # off the torus a = sqrt(c c~); by Schwarz reflection c~(theta + i eps)
    # = conj(c(theta - i eps)), and the projection of |c| continues the
    # same function up to its truncation error
    model = ehm.ehm_model(lam, golden)
    c, af = model.c, golden.value
    mod = sym.modulus_symbol(c, 4 * c.order + 64)
    th = np.random.default_rng(4).random(1024)
    for eps in (0.3 * mod.strip, 0.9 * mod.strip):
        a, b, _, _ = coc._normalized_step(model, th + 1j * eps)
        for got, x in ((a, th), (b, th - af)):
            refl = np.sqrt(c.eval(x + 1j * eps) * np.conj(c.eval(x - 1j * eps)))
            assert np.max(np.abs(got - refl)) <= 1e-12 * np.max(np.abs(refl))
            proj = mod.eval(x + 1j * eps)
            assert np.max(np.abs(got - proj)) <= 1e-6 * np.max(np.abs(proj))


def test_strip_radius_from_roots(ehm_112):
    # c c~ vanishes at |Im theta| = |log |r|| / 2 pi for each root r of c
    roots = sym.zeros_on_torus(ehm_112.c).roots
    R = 0.95 * np.min(np.abs(np.log(np.abs(roots)))) / (2 * math.pi)
    assert sym.modulus_strip(ehm_112.c) == pytest.approx(R, rel=1e-15)
    ok = coc.lyapunov(coc.Cocycle(ehm_112, 0.31, epsilon=0.99 * R), 2000, 2)
    assert math.isfinite(ok.value)
    with pytest.raises(OutsideStrip):
        coc.lyapunov(coc.Cocycle(ehm_112, 0.31, epsilon=1.01 * R), 2000, 2)


def test_strip_branch_margin(golden):
    # on the dual of the singular (0.3, 0.5, 0.3), |arg(c c~)| reaches
    # 2.40 rad, past 3 pi / 4, at the strip radius, and 1.90 rad at 0.9 of it
    model = ehm.ehm_model(ehm.sigma((0.3, 0.5, 0.3)), golden)
    R = sym.modulus_strip(model.c)
    th = np.arange(4096) / 4096
    a, b, _, _ = coc._normalized_step(model, th + 0.9j * R)
    assert np.min(a.real) > 0 and np.min(b.real) > 0
    with pytest.raises(OutsideStrip):
        coc._normalized_step(model, th + 1j * R)


# -- the unrolled block product against np.matmul -----------------------------

def _tree_product_matmul(mats):
    """The block product on (P, B, 2, 2) stacks with np.matmul: the
    reference for the product on entry arrays."""
    P = mats.shape[0]
    logs = np.zeros(P)
    while mats.shape[1] > 1:
        B = mats.shape[1]
        if B % 2:
            odd = mats[:, -1:]
            mats = mats[:, :-1]
        else:
            odd = None
        mats = np.matmul(mats[:, 1::2], mats[:, 0::2])
        if odd is not None:
            mats = np.concatenate([mats, odd], axis=1)
        scale = np.max(np.abs(mats), axis=(2, 3))
        scale = np.where(scale > 0, scale, 1.0)
        mats = mats / scale[..., None, None]
        logs += np.sum(np.log(scale), axis=1)
    return mats[:, 0], logs


def _product_logs_matmul(co, thetas, n_iter, block=256, orbit_read=False):
    """The block loop with np.matmul, on the grid read at the orbit phases
    or, with orbit_read=True, on the orbit read's own steps."""
    P = len(thetas)
    run = np.broadcast_to(np.eye(2, dtype=complex), (P, 2, 2)).copy()
    logs = np.zeros(P)
    alpha = co.model.alpha if co.model is not None else 0
    done = 0
    while done < n_iter:
        n = min(block, n_iter - done)
        if orbit_read:
            m = co.orbit_entries(thetas, done, n)[0]
            mats = np.stack(np.broadcast_arrays(*m), -1).reshape(P, n, 2, 2)
        else:
            mats = co.matrices(coc.orbit_phases(alpha, thetas, done, n))
        prod, blog = _tree_product_matmul(mats)
        run = np.matmul(prod, run)
        scale = np.max(np.abs(run), axis=(1, 2))
        run /= scale[:, None, None]
        logs += blog + np.log(scale)
        done += n
    return logs + np.log(np.linalg.norm(run, ord=2, axis=(1, 2)))


@pytest.mark.parametrize("complex_", [False, True])
def test_tree_product_matches_matmul(complex_):
    rng = np.random.default_rng(8)
    for B in (1, 2, 3, 7, 64, 1000):
        mats = rng.normal(size=(3, B, 2, 2)) * 3.0
        if complex_:
            mats = mats + 1j * rng.normal(size=mats.shape)
        prod, logs = coc._tree_product(coc._entries(mats))
        prod = np.stack(prod, -1).reshape(-1, 2, 2)
        ref, ref_logs = _tree_product_matmul(mats)
        # the same product up to where the scale is kept
        n, n_ref = (np.linalg.norm(m, 2, axis=(1, 2)) for m in (prod, ref))
        assert np.max(np.abs(logs + np.log(n) - ref_logs - np.log(n_ref))) \
            <= 1e-12 * max(1.0, np.max(np.abs(ref_logs)))
        assert np.max(np.abs(prod / n[:, None, None]
                             - ref / n_ref[:, None, None])) <= 1e-12


@pytest.mark.parametrize("kind,eps", [("normalized", 0.0), ("transfer", 0.0),
                                      ("normalized", 0.05),
                                      ("transfer", 0.05)])
def test_product_logs_match_matmul(ehm_112, kind, eps):
    co = coc.Cocycle(ehm_112, 0.31, kind=kind, epsilon=eps)
    thetas = np.random.default_rng(2).random(3)
    for n_iter in (1, 777, 10_000):
        logs = coc._product_logs(co, thetas, n_iter)
        ref = _product_logs_matmul(co, thetas, n_iter)
        assert np.max(np.abs(logs - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- the rescale schedule at its extremes ---------------------------------------

def _schedule_cases(golden):
    """(name, cocycle, phases, expected rescale interval): the largest
    energy the schedule meets (every = 1), a block beside a hopping zero
    (G about 1e12), the strip near its certified edge, an ordinary
    energy, and the custom kind, which has no bound."""
    ehm_112 = ehm.ehm_model((0.1, 0.5, 0.2), golden)
    near = ehm.ehm_model((0.2, 0.5, 0.3), golden)
    # |c| is 5.3e-12 at the orbit's first point, 5e-12 past its zero
    theta_near = (0.5 - golden.value / 2 + 5e-12) % 1.0
    dual = ehm.ehm_model(ehm.sigma((0.3, 0.5, 0.3)), golden)
    R = sym.modulus_strip(dual.c)
    rot = np.array([[math.cos(1.0), -math.sin(1.0)],
                    [math.sin(1.0), math.cos(1.0)]])
    phases = np.array([0.3, 0.71])
    for kind in ("normalized", "transfer"):
        yield (f"E=1e150 {kind}", coc.Cocycle(ehm_112, 1e150, kind=kind),
               phases, 1)
        yield (f"hopping zero {kind}", coc.Cocycle(near, 0.31, kind=kind),
               np.array([theta_near, 0.3]), 24)
        yield (f"strip {kind}", coc.Cocycle(dual, 0.31, kind=kind,
                                            epsilon=0.9 * R), phases, 202)
        yield (f"E=0.31 {kind}", coc.Cocycle(ehm_112, 0.31, kind=kind),
               phases, 251)
    yield "custom", const_cocycle(3.0 * rot), phases, 1


def test_rescale_schedule_extremes_match_matmul(golden, monkeypatch):
    scales = []
    rescaled = coc._rescaled

    def counted(m):
        scales.append(np.shape(m[0]))
        return rescaled(m)

    monkeypatch.setattr(coc, "_rescaled", counted)
    for name, co, thetas, every in _schedule_cases(golden):
        m, growth = co.orbit_entries(thetas, 0, 4096)
        assert coc._rescale_every(growth) == every, name
        # a 4096-step block: levels of span 2 .. 4096, then the final
        # scale; a level is rescaled iff its span exceeds `every`
        scales.clear()
        coc._tree_product(m, growth)
        spans = [2 ** (k + 1) for k in range(12)]
        assert len(scales) == sum(sp > every for sp in spans) + 1, name
        for n_iter in (1, 3, 777, 10_000):
            logs = coc._product_logs(co, thetas, n_iter)
            # beside the zero, |c| ~ 5e-12 moves by 1e-4 relative with a
            # rounding of the phase: the reference takes the same steps
            ref = _product_logs_matmul(co, thetas, n_iter,
                                       orbit_read=name.startswith("hopping"))
            assert np.all(np.isfinite(logs)), name
            assert np.max(np.abs(logs - ref)) <= \
                1e-12 * np.max(np.abs(ref)), (name, n_iter)
        for B in (1, 3, 777):
            m, growth = co.orbit_entries(thetas, 5, B)
            prod, logs = coc._tree_product(m, growth)
            prod = np.stack(prod, -1).reshape(-1, 2, 2)
            mats = np.stack(np.broadcast_arrays(*m), -1).reshape(-1, B, 2, 2)
            ref, ref_logs = _tree_product_matmul(mats)
            n, n_ref = (np.linalg.norm(x, 2, axis=(1, 2)) for x in (prod, ref))
            assert np.max(np.abs(logs + np.log(n) - ref_logs - np.log(n_ref))) \
                <= 1e-12 * max(1.0, np.max(np.abs(ref_logs))), (name, B)
            # the direction of 777 steps beside the zero is ill-conditioned:
            # against a long-double step loop it is off by 1.0e-12 here,
            # by 6.2e-13 with every level rescaled, and np.matmul by 5.8e-13
            tol = 1e-11 if name.startswith("hopping") else 1e-12
            assert np.max(np.abs(prod / n[:, None, None]
                                 - ref / n_ref[:, None, None])) <= tol, name


def test_rescale_every_rule():
    assert coc._rescale_every(math.inf) == 1
    assert coc._rescale_every(math.nan) == 1
    assert coc._rescale_every(1e301) == 1
    assert coc._rescale_every(1.0) == coc._rescale_every(2.0) == 996
    every = coc._rescale_every(10.0)
    assert 10.0 ** every <= 1e300 < 10.0 ** (every + 2)


@pytest.mark.parametrize("a", [-5, 0])
def test_inverse_product_refuses_vanishing_first_c_tilde(golden, a):
    # c~ at site a - 1 enters only the first step of the segment, whose
    # inverse divides by it; the forward product still takes it
    model = ehm.ehm_model((0.3, 0.5, 0.3), golden)
    co = coc.Cocycle(model, 0.1, kind="transfer")
    phases = ehm.classify((0.3, 0.5, 0.3)).shifted_phases(golden.value)
    assert len(phases) == 2
    for tj in phases:
        theta = (tj - (a - 1) * golden.value) % 1.0
        with pytest.raises(SingularHopping) as exc:
            coc.finite_product_inv(co, theta, a, a + 20)
        assert exc.value.site == a - 1
        fwd = coc.finite_product(co, theta, a, a + 20)
        assert np.all(np.isfinite(fwd.matrix))


def _block_cases(golden, ehm_112):
    """(cocycle, bounded): the three kinds. bounded marks the products
    that stay near norm one over sites -3..900 (log-norm below 0.5), whose
    inverse times forward product can be checked against the identity;
    ehm_112 at E = 0.31 grows to log-norm 690 there."""
    flat = ehm.ehm_model((0.3, 2.0, 0.3), golden)
    # the transfer step of hopping 2 and potential 2 cos at E = 0
    step = ((sym.from_dict({-1: -0.5, 1: -0.5}), sym.constant(-1.0)),
            (sym.constant(1.0), sym.constant(0.0)))
    for kind in ("normalized", "transfer"):
        yield coc.Cocycle(flat, 0.5, kind=kind), True
        yield coc.Cocycle(ehm_112, 0.31, kind=kind), False
    yield coc.Cocycle(flat, 0.0, kind="custom", entries=step), True


def test_products_across_blocks_match_one_block(golden, ehm_112,
                                                monkeypatch):
    # _CELLS = 256 cuts a one-phase product into 256-step blocks: the 904
    # sites -3..900 take three blocks and a tail of 136 steps
    for co, bounded in _block_cases(golden, ehm_112):
        funcs = (coc.finite_product, coc.finite_product_inv)
        one = [f(co, 0.3, -3, 900) for f in funcs]
        monkeypatch.setattr(coc, "_CELLS", 256)
        fwd, inv = many = [f(co, 0.3, -3, 900) for f in funcs]
        monkeypatch.undo()
        for p, ref in zip(many, one):
            assert abs(log_norm(p) - log_norm(ref)) <= \
                1e-12 * max(1.0, abs(log_norm(ref))), co.kind
            n, n_ref = (np.linalg.norm(x.matrix, 2) for x in (p, ref))
            assert np.max(np.abs(p.matrix / n - ref.matrix / n_ref)) <= 1e-12
        if bounded:
            assert log_norm(fwd) < 0.5, co.kind
            ident = inv.matrix @ fwd.matrix * \
                math.exp(inv.log_scale + fwd.log_scale)
            assert np.max(np.abs(ident - np.eye(2))) <= 1e-12, co.kind


@pytest.mark.parametrize("kind", ["normalized", "transfer"])
def test_hopping_zero_in_a_later_block(golden, monkeypatch, kind):
    # a zero of c at site j, also read as c~ by the step j + 1: 256-step
    # blocks from site -3 put 252 last in the first, 253 first in the
    # second and 600 inside the third
    model = ehm.ehm_model((0.3, 0.5, 0.3), golden)
    co = coc.Cocycle(model, 0.1, kind=kind)
    tj = ehm.classify((0.3, 0.5, 0.3)).shifted_phases(golden.value)[0]

    def site(f, theta):
        with pytest.raises(SingularHopping) as exc:
            f(co, theta, -3, 900)
        return exc.value.site

    for j in (252, 253, 600):
        theta = (tj - float(j * golden.proxy % 1)) % 1.0
        for f in (coc.finite_product, coc.finite_product_inv):
            ref = site(f, theta)
            monkeypatch.setattr(coc, "_CELLS", 256)
            assert site(f, theta) == ref, (j, f.__name__)
            monkeypatch.undo()
            if kind == "transfer":
                assert ref == j


def test_inverse_product_matches_stacked_inverse(ehm_112):
    # the entrywise inverse against np.linalg.inv of each step, multiplied
    # in reversed order with np.matmul
    for kind in ("normalized", "transfer"):
        for eps in (0.0, 0.02):
            co = coc.Cocycle(ehm_112, 0.31, kind=kind, epsilon=eps)
            for a, b in ((-6, -6), (-6, 3), (-400, -1)):
                Pi = coc.finite_product_inv(co, 0.4, a, b)
                mats = co.matrices(coc.orbit_phases(
                    ehm_112.alpha, np.array([0.4]), a, b - a + 1))
                ref, ref_log = _tree_product_matmul(
                    np.linalg.inv(mats)[:, ::-1])
                n, n_ref = np.linalg.norm(Pi.matrix, 2), \
                    np.linalg.norm(ref[0], 2)
                assert abs(Pi.log_scale + math.log(n) - ref_log[0]
                           - math.log(n_ref)) <= \
                    1e-12 * max(1.0, abs(ref_log[0]))
                assert np.max(np.abs(Pi.matrix / n - ref[0] / n_ref)) <= 1e-12
    singular = const_cocycle([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ValidationError):
        coc.finite_product_inv(singular, 0.1, 3, 5)


def test_singular_model_ids_rotation_identity(golden):
    # c vanishes on the torus, so |c| has no analytic Fourier projection;
    # the exact real-torus step still gives N(E) = 1 - 2 rho(E)
    model = ehm.ehm_model((0.3, 0.5, 0.3), golden)
    grid = np.linspace(-model.sup_bound() - 0.5, model.sup_bound() + 0.5, 30)
    curve = ops.ids(model, grid, N=400, n_phases=2, seed=1)
    rho = coc.rotation_sweep(model, grid, n_iter=20_000)
    assert np.max(np.abs(curve.N_of_E - (1 - 2 * rho))) <= 1e-2


def test_cocycles_never_call_modulus_symbol(ehm_112, monkeypatch):
    # in the strip |c| continues as sqrt(c c~); the Fourier projection is
    # a test oracle only
    def refuse(*args, **kwargs):
        raise AssertionError("modulus_symbol called")

    monkeypatch.setattr(sym, "modulus_symbol", refuse)
    assert not hasattr(coc, "modulus_symbol")
    co = coc.Cocycle(ehm_112, 0.31, kind="normalized")
    coc.lyapunov(co, n_iter=1000, n_phases=2, seed=0)
    coc.rotation_number(co, n_iter=1000)
    coc.lyapunov_strip(co, [0.0, 0.01, 0.02], n_iter=1000, n_phases=2, seed=0)


def test_singular_model_strip_vanishes_on_torus(golden):
    # c has a root on the circle, so |c| has no continuation off the torus
    model = ehm.ehm_model((0.3, 0.5, 0.3), golden)
    co = coc.Cocycle(model, 0.31, kind="normalized", epsilon=0.01)
    with pytest.raises(VanishesOnTorus):
        coc.lyapunov(co, n_iter=1000, n_phases=2)


def test_rotation_number_rejects_complex_phase(ehm_112):
    co = coc.Cocycle(ehm_112, 0.3, kind="normalized", epsilon=0.01)
    with pytest.raises(ValidationError):
        coc.rotation_number(co, n_iter=1000)


def test_lyapunov_rejects_no_phases(ehm_112):
    co = coc.Cocycle(ehm_112, 0.3, kind="normalized")
    with pytest.raises(ValidationError):
        coc.lyapunov(co, n_iter=1000, n_phases=0)


def test_rotation_sweep_rejects_no_steps(ehm_112):
    with pytest.raises(ValidationError):
        coc.rotation_sweep(ehm_112, np.array([0.3]), n_iter=0)


@pytest.mark.parametrize("call", [
    lambda m, co: coc.rotation_sweep(m, np.array([0.3]), 100, theta0=np.nan),
    lambda m, co: coc.rotation_sweep(m, np.array([0.3]), 100, theta0=np.inf),
    lambda m, co: coc.rotation_sweep(m, np.array([0.3]), n_iter=100.0),
    lambda m, co: coc.rotation_number(co, n_iter=100, theta0=np.nan),
    lambda m, co: coc.rotation_number(co, n_iter=100.0),
    lambda m, co: coc.lyapunov(co, 100.0),
    lambda m, co: coc.lyapunov(co, 100, n_phases=2.0),
    lambda m, co: coc.finite_product(co, np.nan, 0, 5),
    lambda m, co: coc.finite_product(co, 0.2, 0, 5.0),
    lambda m, co: coc.finite_product_inv(co, -np.inf, -5, -1),
    lambda m, co: coc.finite_product_inv(co, 0.2, -5.0, -1),
    lambda m, co: coc.Cocycle(m, 0.3, epsilon=np.nan),
    lambda m, co: coc.Cocycle(m, 0.3, epsilon=-np.inf),
    lambda m, co: coc.Cocycle(m, np.nan),
    lambda m, co: coc.Cocycle(m, np.inf, kind="transfer"),
    lambda m, co: coc.Cocycle(m, complex(0.3, np.nan)),
    lambda m, co: coc.lyapunov_strip(co, [0.01, np.nan], 100, 2),
])
def test_non_finite_phase_and_non_integer_count_rejected(ehm_112, call):
    with pytest.raises(ValidationError):
        call(ehm_112, coc.Cocycle(ehm_112, 0.3, kind="normalized"))


def test_rotation_number_accepts_real_complex_energy(ehm_112):
    # Cocycle.energy is typed complex; a zero imaginary part is a real energy
    rho = coc.rotation_number(coc.Cocycle(ehm_112, 0.3 + 0j), n_iter=1000)
    assert rho == coc.rotation_number(coc.Cocycle(ehm_112, 0.3), n_iter=1000)
    with pytest.raises(ValidationError):
        coc.rotation_number(coc.Cocycle(ehm_112, 0.3 + 0.1j), n_iter=1000)


@pytest.mark.parametrize("energies", [np.zeros((1, 2)), np.array([np.nan]),
                                      np.array([0.3, np.inf]),
                                      np.array([0.3 + 1e-3j])])
def test_rotation_sweep_rejects_bad_energies(ehm_112, energies):
    with pytest.raises(ValidationError):
        coc.rotation_sweep(ehm_112, energies, n_iter=100)


# -- the segment sweep against the per-step loop ------------------------------

def _rotation_sweep_loop(model, energies, n_iter, theta0=0.0):
    """One Python iteration per orbit step: the reference for the segment
    sweep of `rotation_sweep`."""
    E = np.asarray(energies, dtype=float)
    nE = len(E)
    w0 = np.ones(nE)
    w1 = np.zeros(nE)
    total = np.zeros(nE)
    comp = np.zeros(nE)
    done = 0
    while done < n_iter:
        n = min(4096, n_iter - done)
        a, b, v, s = coc._normalized_step(
            model, coc.orbit_phases(model.alpha, theta0, done, n))
        for k in range(n):
            u0 = ((E - v[k]) * w0 - b[k] * w1) / s[k]
            u1 = (a[k] / s[k]) * w0
            cross = w0 * u1 - w1 * u0
            dot = w0 * u0 + w1 * u1
            inc = np.arctan2(cross, dot) / (2 * math.pi)
            inc = np.where(inc <= -0.25, inc + 1.0, inc)
            y = inc - comp
            t = total + y
            comp = (t - total) - y
            total = t
            norm = np.hypot(u0, u1)
            w0, w1 = u0 / norm, u1 / norm
        done += n
    rho = np.mod(total / n_iter, 1.0)
    return np.minimum(rho, 1.0 - rho)


@pytest.mark.parametrize("freq", ["golden", "sqrt2"])
@pytest.mark.parametrize("lam", [(0.0, 0.5, 0.0), (0.1, 0.5, 0.2),
                                 ehm.sigma((0.1, 0.5, 0.2)), (0.3, 0.5, 0.3),
                                 (2.0, 0.5, 1.0)])
def test_rotation_sweep_matches_step_loop(freq, lam):
    model = ehm.ehm_model(lam, dio.expand(freq, 40))
    sup = model.sup_bound()
    # the middles of the three widest gaps of a small truncation, and a
    # grid out to 2 beyond the spectral radius bound on both sides
    spec = np.sort(ops.spectrum_proxy(model, N=120, n_theta=2))
    widest = np.argsort(np.diff(spec))[-3:]
    # v(theta0) exactly, so that the first step's first entry is 0, and
    # +-1e150, which overflow a segment product rescaled at a fixed interval
    v0 = float(coc._orbit_step(model, np.array([0.3]), 0, 1)[2][0, 0])
    energies = np.concatenate([(spec[widest] + spec[widest + 1]) / 2,
                               np.linspace(-sup - 2, sup + 2, 17),
                               [v0, 1e150, -1e150]])
    m = coc._SEGMENT
    chunk = coc._CELLS // max(len(energies), m) * m
    for n_iter in (1, 2, m - 1, m + 1, 1000, 2 * chunk + m // 2):
        rho = coc.rotation_sweep(model, energies, n_iter, theta0=0.3)
        ref = _rotation_sweep_loop(model, energies, n_iter, theta0=0.3)
        assert np.max(np.abs(rho - ref)) <= 1e-12, n_iter
    # one energy: `rotation_number` cuts the chunk into more segments
    chunk = coc._CELLS // m * m
    for E in (energies[0], v0, 1e150):
        co = coc.Cocycle(model, E, kind="normalized")
        for n_iter in (1, m + 1, chunk + m // 2):
            rho = coc.rotation_number(co, n_iter, theta0=0.3)
            ref = _rotation_sweep_loop(model, [E], n_iter, theta0=0.3)[0]
            assert abs(rho - ref) <= 1e-12, (E, n_iter)


def test_segment_sweep_start_on_second_axis(ehm_112):
    # an incoming vector with w0 = 0, whatever the signs of w1 and of its
    # zero, gains the angle of a vector a hair off the axis
    E = np.array([-1.3, 0.3, 2.9])
    step = [x[0].reshape(-1, 16).T for x in
            coc._orbit_step(ehm_112, np.array([0.2]), 0, 64)[:3]]

    def turns(w0, w1):
        w = (np.full(len(E), w0), np.full(len(E), w1))
        return np.sum(coc._segment_sweep(E, step, w)[1], axis=0)

    ref = turns(1e-300, 1.0)
    for w0 in (0.0, -0.0):
        for w1 in (1.0, -1.0):
            assert np.max(np.abs(turns(w0, w1) - ref)) <= 1e-12, (w0, w1)


def test_rotation_sweep_signed_zero_energy(golden):
    # with v = 0 at every point, E = -0.0 makes E - v = -0.0: the first
    # ratio must still count as +0, as for E = +0.0
    model = coc.JacobiModel(ehm.ehm_model((0.1, 0.5, 0.2), golden).c,
                            sym.constant(0.0), golden)
    for n_iter in (1, 2, 1000):
        ref = _rotation_sweep_loop(model, [0.0], n_iter)[0]
        for E in (0.0, -0.0):
            rho = coc.rotation_sweep(model, np.array([E]), n_iter)[0]
            assert abs(rho - ref) <= 1e-12, (E, n_iter)


def test_rotation_sweep_memory_does_not_grow_with_steps(ehm_112):
    # 4 chunks against 31: a buffer sized by n_iter shows as a 10x peak
    energies = np.linspace(-3.0, 3.0, 40)
    peaks = []
    for n_iter in (50_000, 500_000):
        tracemalloc.start()
        coc.rotation_sweep(ehm_112, energies, n_iter)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks
