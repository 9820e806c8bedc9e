import math

import numpy as np
import pytest

from speclab import cocycles as coc
from speclab import diophantine as dio
from speclab import ehm
from speclab import reducibility as red
from speclab import symbols as sym
from speclab.errors import (
    BranchObstruction,
    IllConditioned,
    MeanNotZero,
    SmallDivisorBlowup,
    ValidationError,
)
from conftest import random_sl2


def const_cocycle(mat):
    ent = tuple(tuple(sym.constant(complex(mat[i][j])) for j in range(2))
                for i in range(2))
    return coc.Cocycle(None, 0.0, kind="custom", entries=ent)


def rot(phi):
    c, s = math.cos(2 * math.pi * phi), math.sin(2 * math.pi * phi)
    return np.array([[c, -s], [s, c]])


def test_cohomology_single_mode(golden):
    af = golden.value
    rhs = sym.from_dict({1: 1.0})
    sol = red.solve_cohomology(rhs, golden, k_out=4)
    expect = 1.0 / (np.exp(2j * np.pi * af) - 1.0)
    assert sol.g.coeff(1) == pytest.approx(expect, abs=1e-15)
    assert sol.g.coeff(0) == 0
    assert sol.residual_sup < 1e-13


def test_cohomology_mean_not_zero(golden):
    with pytest.raises(MeanNotZero):
        red.solve_cohomology(sym.from_dict({0: 0.1, 1: 1.0}), golden, 4)


def test_cohomology_small_divisor_blowup():
    # at k = q_3 the rational proxy makes the divisor float-noise sized
    cf = dio.synth_alpha(3.0, 3)
    q3 = cf.q[2]
    rhs = sym.from_dict({q3: 50.0, -q3: 50.0})
    with pytest.raises(SmallDivisorBlowup):
        red.solve_cohomology(rhs, cf, k_out=q3 + 1)


def test_cohomology_dual_symbol_pipeline(golden):
    d = ehm.ehm_model(ehm.sigma((0.1, 0.5, 0.2)), golden).c
    rhs = red.phase_rhs(d, 48)
    sol = red.solve_cohomology(rhs, golden, 48)
    assert sol.residual_sup < 1e-8
    grid = np.arange(8192) / 8192
    af = golden.value
    f = sym.TorusSymbol(sol.g.coeffs / 2)
    lhs = np.exp(f.eval((grid + af) % 1.0) - f.eval(grid))
    dv = d.eval(grid)
    assert np.max(np.abs(lhs - dv / np.abs(dv))) < 1e-8
    # doubling the mode cutoff may not degrade the residual
    sol2 = red.solve_cohomology(red.phase_rhs(d, 96), golden, 96)
    assert sol2.residual_sup <= 1.1 * sol.residual_sup + 1e-14


def test_mc_conjugation_trivial_and_ehm(golden, ehm_112):
    const = ehm.ehm_model((0.0, 0.7, 0.0), golden)
    assert red.mc_conjugation_check(const, 0.1) < 1e-14
    assert red.mc_conjugation_check(ehm_112, 0.3) < 1e-10


def test_mc_conjugation_branch_obstruction(golden):
    c = sym.from_dict({1: 1.0}, half_phase=True, alpha=golden.value)
    model = coc.JacobiModel(c, sym.cosine_potential(2.0), golden)
    with pytest.raises(BranchObstruction):
        red.mc_conjugation_check(model, 0.2)
    red.unimodular_phase(model, 512, lift="2T")   # double cover allowed


@pytest.fixture(scope="module")
def subcritical(golden):
    """The normalized cocycle of the dual of (0.1, 0.5, 0.2) at a
    subcritical energy, and its rotation number."""
    mh = ehm.ehm_model(ehm.sigma((0.1, 0.5, 0.2)), golden)
    co = coc.Cocycle(mh, -4.388399155513155, kind="normalized")
    return co, coc.rotation_number(co, n_iter=400_000)


def grid_fit(co, rho, K_B, grid, regularization, af):
    """The grid-row least-squares system, 2 grid rows of B(. + alpha) A -
    R B, and its gauged, L2-normalized smallest right singular vector: the
    oracle of the Fourier-row fit. Returns (z, singular values)."""
    xs = np.arange(grid) / grid
    A = co.matrices(xs).real
    ks = np.arange(-K_B, K_B + 1)
    nb = len(ks)
    phase = np.exp(2j * np.pi * rho)
    basis = np.exp(2j * np.pi * np.outer(xs, ks))
    basis_shift = np.exp(2j * np.pi * np.outer(xs + af, ks))
    M = np.zeros((2 * grid, 2 * nb), dtype=complex)
    for l in range(2):
        for j in range(2):
            block = basis_shift * A[:, j, l][:, None]
            if j == l:
                block = block - phase * basis
            M[l * grid:(l + 1) * grid, j * nb:(j + 1) * nb] = block
    if regularization > 0:
        M = np.vstack([M, np.diag(regularization *
                                  np.abs(np.concatenate([ks, ks])))])
    _, svals, Vh = np.linalg.svd(M, full_matrices=False)
    z = Vh[-1].conj().reshape(2, nb)
    pivot = z[0, K_B] if abs(z[0, K_B]) >= 1e-12 else z[1, K_B]
    z = z * (abs(pivot) / pivot)
    return z / np.sqrt(np.sum(np.abs(z) ** 2)), svals


def fit_and_system(monkeypatch, *args, **kw):
    """fit_conjugacy, with the shape and singular values of the system
    that it passed to the SVD."""
    svd, seen = np.linalg.svd, []

    def spy(a, *p, **k):
        out = svd(a, *p, **k)
        if not seen:
            seen.append((a.shape, out[1]))
        return out

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", spy)
        cand = red.fit_conjugacy(*args, **kw)
    return cand, *seen[0]


@pytest.mark.parametrize("K_B, grid, regularization", [
    (48, 1024, 0.0),       # the benchmark's fit
    (64, 2048, 0.0),       # criterion 7's fit
    (32, 128, 0.0),        # a coarse grid
    (48, 128, 0.0),        # 2 (K_B + W) + 1 >= grid: every row kept
    (48, 1024, 1e-3),
])
def test_fourier_fit_matches_grid_oracle(monkeypatch, golden, subcritical,
                                         K_B, grid, regularization):
    co, rho = subcritical
    cand, shape, svals = fit_and_system(monkeypatch, co, rho, K_B, grid,
                                        regularization)
    z, ref = grid_fit(co, rho, K_B, grid, regularization, golden.value)
    assert np.max(np.abs(cand.z_coeffs - z)) < 1e-10
    # every singular value within 1e-13 of the largest: an SVD is exact to
    # about 1e-15 of it, so on sigma_min = 6e-7 a relative bound of 1e-9
    # would test rounding (both systems' sigma_min differ by 7e-9 of it)
    assert np.max(np.abs(svals - ref)) <= 1e-13 * ref[0]
    xs = np.arange(grid) / grid
    oracle = red.ConjugacyCandidate(z, rho, K_B, 0.0, 0, 0.0, False,
                                    golden.value)
    assert cand.degree == red.degree(oracle.matrices(xs))
    if (K_B, grid, regularization) == (48, 1024, 0.0):
        assert shape[0] < 2 * grid


@pytest.mark.parametrize("constructed", [False, True],
                         ids=["rotation", "constructed"])
def test_fourier_fit_matches_grid_oracle_custom(monkeypatch, golden,
                                                constructed):
    phi = 0.173
    A = rot(phi)
    if constructed:
        C = random_sl2(np.random.default_rng(5))
        A = C @ A @ np.linalg.inv(C)
    co = const_cocycle(A)
    cand, shape, svals = fit_and_system(monkeypatch, co, phi, 4, 256,
                                        alpha=golden.value)
    z, ref = grid_fit(co, phi, 4, 256, 0.0, golden.value)
    assert np.max(np.abs(cand.z_coeffs - z)) < 1e-10
    assert np.max(np.abs(svals - ref)) <= 1e-13 * ref[0]
    oracle = red.ConjugacyCandidate(z, phi, 4, 0.0, 0, 0.0, False,
                                    golden.value)
    assert cand.degree == red.degree(oracle.matrices(np.arange(256) / 256))
    assert shape == (2 * 9, 2 * 9)      # a constant A has W = 0


@pytest.mark.parametrize("K_B, grid", [(-1, 128), (32, 16), (32, 64)])
def test_fit_refuses_grid_that_aliases(subcritical, K_B, grid):
    co, rho = subcritical
    with pytest.raises(ValidationError):
        red.fit_conjugacy(co, rho, K_B, grid)


@pytest.mark.parametrize("K_B", [0, 1, 48, 130])
def test_columns_match_exponential_basis(K_B):
    rng = np.random.default_rng(K_B)
    shape = (2, 2 * K_B + 1)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cand = red.ConjugacyCandidate(z, 0.1, K_B, 0.0, 0, 0.0, False, 0.6)
    th = np.concatenate([rng.random(500), np.arange(64) / 64])
    basis = np.exp(2j * np.pi * np.outer(np.arange(-K_B, K_B + 1), th))
    err = np.max(np.abs(cand.columns(th) - z @ basis), axis=1)
    assert np.all(err <= 1e-13 * np.sum(np.abs(z), axis=1)), err


def test_fit_constant_rotation(golden):
    phi = 0.173
    cand = red.fit_conjugacy(const_cocycle(rot(phi)), phi, K_B=4, grid=256,
                             alpha=golden.value)
    assert cand.residual < 1e-12
    assert cand.degree == 0
    # identity up to a constant rotation: B itself is orthogonal
    B = cand.matrices(np.array([0.0]))[0]
    B /= math.sqrt(abs(np.linalg.det(B)))
    assert np.max(np.abs(B @ B.T - np.eye(2))) < 1e-10


def test_fit_recovers_constructed_conjugacy(golden):
    rng = np.random.default_rng(5)
    phi = 0.173
    C = random_sl2(rng)
    A = C @ rot(phi) @ np.linalg.inv(C)
    cand = red.fit_conjugacy(const_cocycle(A), phi, K_B=4, grid=256,
                             alpha=golden.value)
    assert cand.residual < 1e-10
    B = cand.matrices(np.array([0.0]))[0]
    BC = B @ C
    BC /= math.sqrt(abs(np.linalg.det(BC)))
    assert np.max(np.abs(BC @ BC.T - np.eye(2))) < 1e-8


def test_fit_residual_translation_invariance(golden, ehm_112):
    lam_hat = ehm.sigma((0.1, 0.5, 0.2))
    mh = ehm.ehm_model(lam_hat, golden)
    co = coc.Cocycle(mh, -4.3884, kind="normalized")
    rho = coc.rotation_number(co, n_iter=400_000)
    cand = red.fit_conjugacy(co, rho, K_B=32, grid=1024)

    class Shifted(coc.Cocycle):
        def matrices(self, thetas):
            return super().matrices(np.asarray(thetas) + 0.2371)

    co2 = Shifted(mh, -4.3884, kind="normalized")
    cand2 = red.fit_conjugacy(co2, rho, K_B=32, grid=1024)
    assert cand2.residual <= cand.residual + 1e-9 or \
        abs(cand2.residual - cand.residual) <= 1e-6


def test_fit_reflection_symmetry(golden):
    # rho -> -rho with the cocycle conjugated by the reflection gives the
    # same (zero) residual: J R_phi J = R_{-phi}
    phi = 0.211
    J = np.diag([1.0, -1.0])
    a = red.fit_conjugacy(const_cocycle(rot(phi)), phi, 4, grid=256,
                          alpha=golden.value)
    c = red.fit_conjugacy(const_cocycle(J @ rot(phi) @ J), -phi % 1.0, 4,
                          grid=256, alpha=golden.value)
    assert a.residual < 1e-12
    assert c.residual < 1e-12


def test_fit_ill_conditioned_on_resonance(golden):
    # rho target resonant with alpha/2 shifts: constant identity cocycle has
    # every rotation R_psi commuting, degenerate at rho = 0
    co = const_cocycle(np.eye(2))
    with pytest.raises(IllConditioned):
        red.fit_conjugacy(co, 0.0, K_B=2, grid=128, alpha=golden.value)


def test_degree_of_rotation_lifts(golden):
    xs = np.arange(512) / 512
    for n in (-2, -1, 0, 1, 2):
        mats = np.stack([rot(n * t / 2.0) for t in xs])
        assert red.degree(mats) == n


def test_degree_product_rule(golden):
    rng = np.random.default_rng(13)
    xs = np.arange(512) / 512
    for _ in range(5):
        n1, n2 = rng.integers(-2, 3, size=2)
        C1, C2 = random_sl2(rng), random_sl2(rng)
        m1 = np.stack([C1 @ rot(n1 * t / 2.0) for t in xs])
        m2 = np.stack([rot(n2 * t / 2.0) @ C2 for t in xs])
        assert red.degree(np.matmul(m1, m2)) == \
            red.degree(m1) + red.degree(m2)


def test_dual_eigenvector_plane_wave(golden):
    c1 = sym.from_dict({0: 1.0}, half_phase=True, alpha=golden.value)
    v0 = sym.from_dict({-1: 0.0, 1: 0.0})
    free = coc.JacobiModel(c1, v0, golden)
    rho = 0.21
    E = 2 * math.cos(2 * math.pi * rho)
    co = coc.Cocycle(free, E, kind="normalized")
    cand = red.fit_conjugacy(co, rho, K_B=4, grid=256)
    for row in (1, 2):
        u, resid = red.dual_eigenvector_from_conjugacy(cand, co, which_row=row)
        assert resid < 1e-10
        assert abs(u[len(u) // 2]) == pytest.approx(1.0, abs=1e-10)


def test_dual_eigenvector_rejects_poor_candidate(golden, ehm_112):
    co = coc.Cocycle(ehm_112, 0.3, kind="normalized")
    bad = red.ConjugacyCandidate(np.zeros((2, 9), dtype=complex), 0.2, 4,
                                 0.5, 0, 0.0, False, golden.value)
    with pytest.raises(ValidationError):
        red.dual_eigenvector_from_conjugacy(bad, co)


def test_subcritical_dual_fit_smoke(subcritical):
    co, rho = subcritical
    cand = red.fit_conjugacy(co, rho, K_B=32, grid=1024)
    assert cand.residual < 1e-3
    u, resid = red.dual_eigenvector_from_conjugacy(cand, co)
    assert resid <= 10 * max(cand.residual, 1e-12) + 1e-6


def test_dual_eigenvector_residual_scales_with_fit(subcritical):
    # perturbing a near-exact conjugacy degrades the eigen-equation
    # residual roughly linearly (within a factor 20 band)
    co, rho = subcritical
    cand = red.fit_conjugacy(co, rho, K_B=32, grid=1024)
    rng = np.random.default_rng(9)
    noise = rng.normal(size=cand.z_coeffs.shape) + \
        1j * rng.normal(size=cand.z_coeffs.shape)
    noise /= np.sqrt(np.sum(np.abs(noise) ** 2))
    ratios = []
    for delta in (1e-6, 1e-5, 1e-4):
        z = cand.z_coeffs + delta * noise
        z = z / np.sqrt(np.sum(np.abs(z) ** 2))
        pert = red.ConjugacyCandidate(z, cand.rho_target, cand.K_B, 0.0, 0,
                                      0.0, False, cand.alpha)
        xs = np.arange(1024) / 1024
        B = pert.matrices(xs)
        B_next = pert.matrices((xs + cand.alpha) % 1.0)
        A = co.matrices(xs).real
        phi = 2 * math.pi * cand.rho_target
        R = np.array([[math.cos(phi), -math.sin(phi)],
                      [math.sin(phi), math.cos(phi)]])
        resid = float(np.max(np.linalg.norm(
            np.matmul(B_next, A) - np.matmul(R[None], B), axis=(1, 2))))
        pert = red.ConjugacyCandidate(z, cand.rho_target, cand.K_B, resid,
                                      0, 0.0, False, cand.alpha)
        _, eig_resid = red.dual_eigenvector_from_conjugacy(pert, co)
        ratios.append(eig_resid / resid)
    assert max(ratios) / min(ratios) <= 20


def test_candidate_json(golden):
    cand = red.fit_conjugacy(const_cocycle(rot(0.1)), 0.1, K_B=2, grid=128,
                             alpha=golden.value)
    blob = cand.to_json()
    assert set(blob) == {"rho_target", "K_B", "residual", "degree",
                         "det_floor", "B_coeffs"}
    assert len(blob["B_coeffs"]) == 5
