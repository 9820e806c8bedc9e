import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from speclab import cocycles as coc
from speclab import duality as dua
from speclab import ehm
from speclab import operators as ops
from speclab import symbols as sym
from speclab.errors import (InsufficientDepth, PeakNearBoundary,
                            ValidationError)


def free_model(golden):
    return coc.JacobiModel(ehm.hopping_symbol((0, 1.0, 0), golden.value),
                           sym.constant(0.0), golden)


def test_build_free_3x3(golden):
    op = ops.build(free_model(golden), 0.2, 1)
    assert np.allclose(op.dense(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_build_amo_entries(golden, amo_half):
    model = ehm.amo_model(1.0, golden)
    op = ops.build(model, 0.3, 4)
    d = op.dense()
    sites = np.arange(-4, 5)
    for i, n in enumerate(sites):
        expect = 2 * math.cos(2 * math.pi * ((0.3 + n * golden.value) % 1))
        assert d[i, i] == pytest.approx(expect, abs=1e-9)
        if i + 1 < len(sites):
            assert d[i, i + 1] == pytest.approx(1.0)


def test_build_ehm_offdiagonal_is_hopping(golden, ehm_112):
    op = ops.build(ehm_112, 0.3, 5)
    d = op.dense()
    for i, n in enumerate(range(-5, 5)):
        th = (0.3 + n * golden.value) % 1.0
        assert d[i, i + 1] == pytest.approx(complex(ehm_112.c.eval(th)), abs=1e-9)
    assert np.max(np.abs(d - d.conj().T)) == 0.0


def test_eigensolve_free_laplacian_closed_form(golden):
    op = ops.build(free_model(golden), 0.0, 10)
    sd = ops.eigensolve(op)
    n = op.size
    expect = np.sort(2 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
    assert np.max(np.abs(sd.eigenvalues - expect)) < 1e-10


def test_eigensolve_single_site(golden):
    model = coc.JacobiModel(ehm.hopping_symbol((0, 1.0, 0), golden.value),
                            sym.cosine_potential(2.0), golden)
    op = ops.build(model, 0.0, 0)
    sd = ops.eigensolve(op)
    assert sd.eigenvalues[0] == pytest.approx(2.0)


def _gauge(op):
    """g with H = G T G^* for a tridiagonal window: g_0 = 1 and
    g_(m+1) = g_m conj(h_m)/|h_m|, with factor 1 where h_m = 0."""
    h = op.band[0, 1:]
    unit = np.where(h == 0, 1.0, np.conj(h) / np.where(h == 0, 1.0, np.abs(h)))
    return np.concatenate(([1.0], np.cumprod(unit)))


def test_eigensolve_residual_contract(golden, ehm_112):
    op = ops.build(ehm_112, 0.11, 500)
    sd = ops.eigensolve(op, want_vectors=True)
    dense = op.dense()
    hnorm = op.norm_bound()
    vecs = _gauge(op)[:, None] * sd.eigenvectors    # vectors of H
    res = np.linalg.norm(dense @ vecs - vecs * sd.eigenvalues, axis=0)
    assert float(np.max(res)) < 1e-8 * hnorm
    norms = np.linalg.norm(vecs, axis=0)
    assert np.max(np.abs(norms - 1)) < 1e-10
    assert len(sd.eigenvalues) == 2 * 500 + 1
    assert np.all(np.diff(sd.eigenvalues) >= 0)


def _edge_mass(vecs):
    edge = max(1, round(0.025 * vecs.shape[0]))
    prob = np.abs(vecs) ** 2
    return prob[:edge].sum(axis=0) + prob[-edge:].sum(axis=0)


def test_tridiagonal_route_matches_banded_oracle(golden, ehm_112):
    amo = ehm.amo_model(2.0, golden)
    models = {"ehm": ehm_112, "amo": amo,
              "ehm dual": dua.dualize(ehm_112), "amo dual": dua.dualize(amo)}
    for name, model in models.items():
        op = ops.build(model, 0.23, 150)
        assert op.bandwidth == 1, name
        w, v = scipy.linalg.eig_banded(op.band, lower=False)
        sd = ops.eigensolve(op, want_vectors=True)
        tol = 1e-12 * op.norm_bound()
        assert np.max(np.abs(sd.eigenvalues - w)) < tol, name
        assert np.max(np.abs(ops.eigensolve(op).eigenvalues - w)) < tol, name
        assert np.max(np.abs(sd.boundary_mass - _edge_mass(v))) < tol, name
        assert sd.eigenvectors.dtype == np.float64, name


def test_zero_hopping_keeps_residual_contract():
    rng = np.random.default_rng(4)
    N = 20
    M = 2 * N + 1
    for dtype in (float, complex):
        band = np.zeros((2, M), dtype=dtype)
        band[1] = rng.normal(size=M)
        band[0, 1:] = rng.normal(size=M - 1)
        if dtype is complex:
            band[0, 1:] = band[0, 1:] * np.exp(2j * np.pi * rng.random(M - 1))
        band[0, 12] = 0.0                     # H[11, 12] = 0 splits the chain
        op = ops.TruncatedOperator(N, band)
        sd = ops.eigensolve(op, want_vectors=True)
        assert sd.eigenvectors.dtype == np.float64
        vecs = _gauge(op)[:, None] * sd.eigenvectors
        res = np.linalg.norm(op.dense() @ vecs - vecs * sd.eigenvalues, axis=0)
        assert float(np.max(res)) < 1e-8 * op.norm_bound()
        assert np.max(np.abs(np.linalg.norm(vecs, axis=0) - 1)) < 1e-10
        assert np.all(np.diff(sd.eigenvalues) >= 0)


def test_bandwidth_two_dual_matches_dense(golden):
    # an order-2 potential makes the dual family pentadiagonal
    pot = sym.from_dict({-2: 0.4, -1: 1.0, 1: 1.0, 2: 0.4})
    model = coc.JacobiModel(ehm.hopping_symbol((0.1, 0.5, 0.2), golden.value),
                            pot, golden)
    dual = dua.dualize(model)
    assert dual.bandwidth == 2
    for N in (0, 1, 2, 3, 40):
        op = ops.build(dual, 0.31, N)
        w, v = np.linalg.eigh(op.dense())
        tol = 1e-12 * op.norm_bound()
        sd = ops.eigensolve(op, want_vectors=True)
        assert np.max(np.abs(sd.eigenvalues - w)) < tol
        assert np.max(np.abs(ops.eigensolve(op).eigenvalues - w)) < tol
        res = np.linalg.norm(op.dense() @ sd.eigenvectors -
                             sd.eigenvectors * sd.eigenvalues, axis=0)
        assert float(np.max(res)) < 1e-8 * op.norm_bound()
        assert np.max(np.abs(sd.boundary_mass - _edge_mass(v))) < 1e-10
        # both spectrum-only routes (`eigvals_banded` for the shift one;
        # at N = 40 the window is extended and takes it)
        for only in (ops._shifted_mass(op), ops._spectrum(op)):
            assert np.max(np.abs(only.eigenvalues - w)) < tol
            assert np.max(np.abs(only.boundary_mass - _edge_mass(v))) < 1e-4
            assert np.array_equal(ops.interior_indices(only),
                                  ops.interior_indices(sd))
    assert not np.array_equal(only.boundary_mass, sd.boundary_mass)


def test_covariance_of_windows(golden, ehm_112):
    # interior Rayleigh quotients of shifted windows agree
    N = 60
    a = ops.build(ehm_112, 0.3, N)
    b = ops.build(ehm_112, (0.3 + golden.value) % 1.0, N)
    da, db = a.dense(), b.dense()
    # entry covariance: H(theta+alpha)[m, m'] = H(theta)[m+1, m'+1]
    assert np.max(np.abs(db[:-1, :-1] - da[1:, 1:])) < 1e-9
    sd = ops.eigensolve(a, want_vectors=True)
    g = _gauge(a)
    for idx in ops.interior_indices(sd):
        u = g * sd.eigenvectors[:, idx]
        if np.sum(np.abs(u[:2]) ** 2) + np.sum(np.abs(u[-2:]) ** 2) > 1e-12:
            continue
        v = np.zeros_like(u)
        v[:-1] = u[1:]     # shift one site toward the window start
        rq = np.vdot(v, db @ v).real / np.vdot(v, v).real
        assert abs(rq - sd.eigenvalues[idx]) < 1e-6 * a.norm_bound()


def test_ids_limits_and_monotonicity(golden, amo_half):
    hi = amo_half.sup_bound() + 1.0
    E = np.linspace(-hi, hi, 40)
    curve = ops.ids(amo_half, E, N=300, n_phases=4, seed=1)
    assert curve.N_of_E[0] == 0.0
    assert curve.N_of_E[-1] == 1.0
    assert np.all(np.diff(curve.N_of_E) >= 0)
    assert np.all((curve.N_of_E >= 0) & (curve.N_of_E <= 1))


def test_ids_free_laplacian_arcsine(golden):
    model = free_model(golden)
    E = np.linspace(-1.9, 1.9, 21)
    curve = ops.ids(model, E, N=2000, n_phases=1, seed=0)
    expect = 1 - np.arccos(E / 2) / math.pi
    assert float(np.max(np.abs(curve.N_of_E - expect))) < 1e-2


def test_decay_rate_synthetic_exponential(golden):
    N = 120
    n = np.arange(-N, N + 1)
    u = np.exp(-0.7 * np.abs(n))
    u = u / np.linalg.norm(u)
    sd = ops.SpectralData(np.array([0.0]), u[:, None], N, np.array([0.0]))
    rate, r2 = ops.decay_rate(sd, 0)
    assert rate == pytest.approx(0.7, abs=1e-6)
    assert r2 > 0.999


def _loop_decay_rate(sd, index):
    """The site-by-site decay fit, kept as an oracle."""
    if sd.eigenvectors is None:
        raise ValidationError("eigenvectors not computed")
    u = np.abs(sd.eigenvectors[:, index])
    M = len(u)
    peak = int(np.argmax(u))
    if min(peak, M - 1 - peak) < sd.N / 2:
        raise PeakNearBoundary(f"peak at site index {peak} of {M}")
    floor = max(1e-300, 1e-13 * float(u[peak]))
    d_max = min(peak, M - 1 - peak)
    profile = np.empty(d_max + 1)
    for d in range(d_max + 1):
        profile[d] = max(u[peak - d], u[peak + d])
    above = np.nonzero(profile > floor)[0]
    d_stop = int(above[-1]) if len(above) else 0
    lo_d, hi_d = int(math.ceil(0.2 * d_stop)), int(math.floor(0.8 * d_stop))
    if hi_d - lo_d < 3:
        raise ValidationError("decay range too short for a fit")
    xs, ys = [], []
    for d in range(lo_d, hi_d + 1):
        for n in (peak - d, peak + d):
            if u[n] > floor:
                xs.append(d)
                ys.append(math.log(u[n]))
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, _), res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else float(
        np.sum((y - A @ np.linalg.lstsq(A, y, rcond=None)[0]) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(-slope), float(r2)


def test_decay_rate_matches_loop_oracle(golden, ehm_112):
    fits = 0
    for model in (ehm_112, dua.dualize(ehm.amo_model(2.0, golden))):
        sd = ops.eigensolve(ops.build(model, 0.37, 300), want_vectors=True)
        for idx in range(len(sd.eigenvalues)):
            try:
                expect = _loop_decay_rate(sd, idx)
            except ValidationError as exc:
                with pytest.raises(type(exc)):
                    ops.decay_rate(sd, idx)
                continue
            rate, r2 = ops.decay_rate(sd, idx)
            assert rate == pytest.approx(expect[0], abs=1e-12)
            assert r2 == pytest.approx(expect[1], abs=1e-12)
            fits += 1
    assert fits > 500


def _state_decay_rate(sd, index):
    """The per-state fit, one state at a time, kept as the oracle of the
    window pass `decay_fits`."""
    if sd.eigenvectors is None:
        raise ValidationError("eigenvectors not computed")
    u = np.abs(sd.eigenvectors[:, index])
    M = len(u)
    peak = int(np.argmax(u))
    d_max = min(peak, M - 1 - peak)
    if d_max < sd.N / 2:
        raise PeakNearBoundary(f"peak at site index {peak} of {M}")
    floor = max(1e-300, 1e-13 * float(u[peak]))
    # column 0 holds u[peak - d], column 1 holds u[peak + d], for d = 0..d_max
    pairs = np.column_stack([u[peak::-1][:d_max + 1], u[peak:peak + d_max + 1]])
    above = np.nonzero(pairs.max(axis=1) > floor)[0]
    d_stop = int(above[-1]) if len(above) else 0
    lo_d, hi_d = int(math.ceil(0.2 * d_stop)), int(math.floor(0.8 * d_stop))
    window = pairs[lo_d:hi_d + 1]
    keep = window > floor
    x = np.broadcast_to(np.arange(lo_d, hi_d + 1.0)[:, None], window.shape)[keep]
    if hi_d - lo_d < 3 or len(x) == 0 or x[0] == x[-1]:
        raise ValidationError("decay range too short for a fit")
    y = np.log(window[keep])
    x = x - x.mean()
    y = y - y.mean()
    sxx, sxy, syy = x @ x, x @ y, y @ y
    r2 = sxy * sxy / (sxx * syy) if syy > 0 else 0.0
    return float(-sxy / sxx), float(r2)


def _windows(golden, ehm_112):
    """Windows of the oracle tests: AMO (at 0.01 most states decay below
    the floor within a few sites, too few for a fit), two EHM couplings
    (the second singular) and a dual window, at three sizes."""
    models = (ehm.amo_model(0.5, golden), ehm.amo_model(0.01, golden), ehm_112,
              ehm.ehm_model((0.3, 0.5, 0.3), golden), dua.dualize(ehm_112))
    for model in models:
        for N in (150, 300, 700):
            yield ops.eigensolve(ops.build(model, 0.37, N), want_vectors=True)


def test_decay_fits_match_state_oracle(golden, ehm_112):
    kinds, worst = set(), 0.0
    for sd in _windows(golden, ehm_112):
        states = np.arange(len(sd.eigenvalues))
        fits = ops.decay_fits(sd, states)
        rates, r2s, near_edge, too_short = fits
        for idx in states:
            try:
                expect = _state_decay_rate(sd, idx)
            except ValidationError as exc:
                assert near_edge[idx] == isinstance(exc, PeakNearBoundary)
                assert too_short[idx] != near_edge[idx]
                assert np.isnan(rates[idx]) and np.isnan(r2s[idx])
                with pytest.raises(type(exc)) as got:
                    ops.decay_rate(sd, idx)
                assert type(got.value) is type(exc)
                assert str(got.value) == str(exc)
                kinds.add(type(exc))
                continue
            assert not near_edge[idx] and not too_short[idx]
            worst = max(worst, abs(rates[idx] - expect[0]),
                        abs(r2s[idx] - expect[1]))
            kinds.add(None)
        # one state alone: bit for bit the same as in its chunk
        for idx in states[::97]:
            for one, all_ in zip(ops.decay_fits(sd, [idx]), fits):
                assert np.array_equal(one, all_[idx:idx + 1], equal_nan=True)
    assert kinds == {None, PeakNearBoundary, ValidationError}
    assert worst <= 1e-12


def test_iprs_match_scalar_formula(golden, ehm_112):
    for sd in _windows(golden, ehm_112):
        states = np.arange(len(sd.eigenvalues))[::-1]
        got = ops.iprs(sd, states)
        u = np.abs(sd.eigenvectors[:, states]) ** 2
        ref = np.array([np.sum(c * c) / np.sum(c) ** 2 for c in u.T])
        assert np.max(np.abs(got - ref) / ref) <= 1e-14
        assert ops.ipr(sd, 5) == got[states == 5][0]
    assert len(ops.iprs(sd, [])) == 0


def test_window_passes_are_chunked(ehm_112, monkeypatch):
    # a chunk of one state gives the same numbers as the full chunk
    sd = ops.eigensolve(ops.build(ehm_112, 0.42, 120), want_vectors=True)
    keep = ops.interior_indices(sd)
    wide = ops.iprs(sd, keep), ops.middle_decay_fits(sd, keep)
    monkeypatch.setattr(ops, "_CHUNK_CELLS", 1)
    assert np.array_equal(ops.iprs(sd, keep), wide[0])
    assert ops.middle_decay_fits(sd, keep) == wide[1]


def test_decay_rate_single_distance_is_too_short(golden):
    # inside the fit window only the pair at distance 10 is above the floor
    N = 40
    u = np.zeros(2 * N + 1)
    u[N] = 1.0
    u[N - 10] = u[N + 10] = 0.5
    u[N + 30] = 0.1
    sd = ops.SpectralData(np.array([0.0]), u[:, None], N, np.array([0.0]))
    with pytest.raises(ValidationError):
        ops.decay_rate(sd, 0)


def test_decay_rate_peak_near_boundary(golden):
    N = 50
    u = np.zeros(2 * N + 1)
    u[3] = 1.0
    sd = ops.SpectralData(np.array([0.0]), u[:, None], N, np.array([1.0]))
    with pytest.raises(PeakNearBoundary):
        ops.decay_rate(sd, 0)


def test_decay_rate_rejects_extended_state(golden):
    # mid-band free state: oscillating profile, the log-linear fit fails
    op = ops.build(free_model(golden), 0.0, 200)
    sd = ops.eigensolve(op, want_vectors=True)
    idx = len(sd.eigenvalues) // 2 + 3
    try:
        rate, r2 = ops.decay_rate(sd, idx)
    except PeakNearBoundary:
        idx += 1
        rate, r2 = ops.decay_rate(sd, idx)
    assert r2 < 0.5


def test_ipr_delta_and_uniform():
    N = 20
    delta = np.zeros(2 * N + 1)
    delta[N] = 1.0
    uni = np.full(2 * N + 1, 1.0 / math.sqrt(2 * N + 1))
    sd = ops.SpectralData(np.zeros(2), np.stack([delta, uni], axis=1), N,
                          np.zeros(2))
    assert ops.ipr(sd, 0) == pytest.approx(1.0)
    assert ops.ipr(sd, 1) == pytest.approx(1.0 / (2 * N + 1))


def test_gordon_cayley_hamilton_random():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        tr = np.trace(m)
        det = np.linalg.det(m)
        r1 = np.linalg.norm(m @ m - tr * m + det * np.eye(2), 2)
        assert r1 < 1e-12 * max(1.0, np.linalg.norm(m, 2) ** 2)
        r2 = np.linalg.norm(m - tr * np.eye(2) + det * np.linalg.inv(m), 2)
        assert r2 < 1e-10 * max(1.0, np.linalg.norm(m, 2))


def test_gordon_report_fields(golden, ehm_112):
    E = 0.31
    rep = ops.gordon_test(ehm_112, 0.137, E, golden, level=8)
    assert rep.q == golden.q[7]
    assert rep.cayley_residual < 1e-12
    # det of the transfer product equals the hopping-ratio formula
    assert rep.det_abs == pytest.approx(rep.det_direct, rel=1e-8)
    lo = min(np.abs(ehm_112.c.on_grid(512)))
    hi = max(np.abs(ehm_112.c.on_grid(512)))
    assert lo / hi <= rep.det_abs <= hi / lo
    assert rep.product_bound is None     # nonsingular hopping
    assert len(rep.norms) == 8


def test_gordon_memory_does_not_grow_with_q(golden, ehm_112):
    # q = 121393 at level 25: an array of the orbit's length takes about
    # 1 MB a real and 2 MB a complex value
    assert golden.q[24] == 121393
    tracemalloc.start()
    try:
        ops.gordon_test(ehm_112, 0.137, 0.3, golden, level=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_gordon_insufficient_depth(golden, ehm_112):
    with pytest.raises(InsufficientDepth):
        ops.gordon_test(ehm_112, 0.1, 0.3, golden, level=golden.depth)


def test_gordon_singular_model_reports_product_bound(golden):
    model = ehm.ehm_model((0.5, 0.5, 0.5), golden)
    rep = ops.gordon_test(model, 0.1234, 0.3, golden, level=6)
    assert rep.product_bound is not None
    assert "log_lhs" in rep.product_bound and "log_rhs" in rep.product_bound


def test_spectrum_tools():
    a = [0.0, 1.0, 2.0]
    b = [0.05, 1.0, 2.5]
    assert ops.hausdorff_distance(a, b) == pytest.approx(0.5)
    assert ops.kolmogorov_distance([1, 2, 3, 4], [1, 2, 3, 4]) == 0.0
    assert ops.kolmogorov_distance([0, 0, 0, 0], [1, 1, 1, 1]) == 1.0


def test_spectrum_samples_inside_hull(golden, ehm_112):
    E = ops.spectrum_samples(ehm_112, 3, N=200, n_theta=4)
    hull = ehm_112.sup_bound()
    assert np.all(np.abs(E) <= hull)
    assert len(E) == 3


@pytest.mark.parametrize("lam,count,N", [((0.3, 0.5, 0.3), 1, 600),
                                         ((0.1, 0.5, 0.2), 5, 1000)])
def test_spectrum_samples_are_proxy_eigenvalues(golden, lam, count, N):
    # an interpolated quantile can land inside a spectral gap
    model = ehm.ehm_model(lam, golden)
    E = ops.spectrum_samples(model, count, N=N, n_theta=4)
    assert len(E) == count
    assert np.all(np.isin(E, ops.spectrum_proxy(model, N, n_theta=4)))


@pytest.mark.parametrize("dual", [False, True])
def test_phase_pool_matches_direct_calls(ehm_112, dual):
    model = dua.dualize(ehm_112) if dual else ehm_112
    thetas = np.array([0.7, 0.05, 0.41])
    for vectors in (True, False):
        got = list(ops.phase_pool(model, 80, thetas, vectors=vectors))
        assert [theta for theta, _, _ in got] == thetas.tolist()
        for theta, sd, keep in got:
            op = ops.build(model, theta, 80)
            ref = ops.eigensolve(op, want_vectors=True)
            # the vector filter is the oracle of both routes' keep sets
            assert np.array_equal(keep, ops.interior_indices(ref))
            expect = ref if vectors else ops._spectrum(op)
            assert np.array_equal(sd.eigenvalues, expect.eigenvalues)
            assert (sd.eigenvectors is None) != vectors
    # pooled_spectrum is the pool without vectors
    pooled = np.sort(np.concatenate([sd.eigenvalues[k] for _, sd, k in got]))
    assert np.array_equal(ops.pooled_spectrum(model, 80, thetas), pooled)


def test_phase_pool_drops_each_window_before_the_next(ehm_112, monkeypatch):
    solve = ops.eigensolve

    def checked(op, want_vectors=False):
        assert all(ref() is None for ref in seen), "previous window alive"
        return solve(op, want_vectors)

    monkeypatch.setattr(ops, "eigensolve", checked)
    for vectors in (True, False):
        seen = []
        for _, sd, _ in ops.phase_pool(ehm_112, 40, [0.1, 0.2, 0.3],
                                       vectors=vectors):
            seen.append(weakref.ref(sd))
            sd = None
        assert len(seen) == 3


def test_spectrum_only_window_refuses_vector_reads(ehm_112):
    (_, sd, keep), = ops.phase_pool(ehm_112, 40, [0.3], vectors=False)
    for read in (ops.iprs, ops.decay_fits, ops.middle_decay_fits):
        with pytest.raises(ValidationError) as exc:
            read(sd, keep)
        assert exc.value.exit_code == 2
    bare = ops.SpectralData(sd.eigenvalues, None, sd.N, None)
    with pytest.raises(ValidationError, match="boundary mass"):
        ops.interior_indices(bare)


def _pooled_windows(golden, thetas, widths, models):
    for N in widths:
        for model in models:
            for theta in thetas:
                yield ops.build(model, float(theta), N)


def _route_windows(golden, which):
    """The windows that a criterion or a workload pools, at its phases."""
    lam = (0.1, 0.5, 0.2)
    model = ehm.ehm_model(lam, golden)
    amo = ehm.amo_model(0.5, golden)
    triple = (model, ehm.ehm_model(ehm.sigma(lam), golden), dua.dualize(model))
    rng = np.random.default_rng
    if which == "tiny":
        # N <= 3: the probe is the window; at N = 0 both edge regions are
        # the one site
        return _pooled_windows(golden, [0.3, 0.8], range(4), triple + (amo,))
    if which == "spectral-seed-7":
        # perfbench's `spectral` workload at seed 7: `ids` of AMO and EHM
        # at N = 400 and `duality_checks` at N = 400 (half width 200)
        ids = _pooled_windows(golden, rng(1241873585).random(2), [400],
                              (amo, model))
        pairs = _pooled_windows(golden, rng(1665772335).random(2),
                                [400, 200], triple)
        return list(ids) + list(pairs)
    if which == "c2":
        return _pooled_windows(golden, rng(5).random(6), [2000], (amo, model))
    # c3's pools at its half width (its full width N = 2000 is not here: its
    # 24 extended windows cost about a minute with vectors)
    return _pooled_windows(golden, rng(2).random(12), [1000], triple)


@pytest.mark.parametrize("which", ["tiny", "spectral-seed-7", "c2", "c3-half"])
def test_spectrum_routes_match_vector_filter(golden, which):
    routes = set()
    for op in _route_windows(golden, which):
        ref = ops.eigensolve(op, want_vectors=True)
        keep = ops.interior_indices(ref)
        tol = 1e-12 * op.norm_bound()
        picked = ops._spectrum(op)
        with_vectors = np.array_equal(picked.boundary_mass, ref.boundary_mass)
        routes.add(with_vectors)
        # where the window took its vectors, the shift route is checked
        # too; it may decline a window (None): see the next test
        shifted = ops._shifted_mass(op) if with_vectors else None
        for sd in filter(None, (picked, shifted)):
            assert sd.eigenvectors is None
            assert np.max(np.abs(sd.eigenvalues - ref.eigenvalues)) < tol
            assert np.max(np.abs(sd.boundary_mass - ref.boundary_mass)) < 1e-4
            assert np.array_equal(ops.interior_indices(sd), keep)
    # the tiny windows are their own probes; the others take both routes
    # except c2, whose windows are all localized
    assert routes == ({True} if which in ("tiny", "c2") else {True, False})


def test_shift_route_declines_mixed_clusters(golden):
    # singular critical EHM: most gaps are below 1e3 shifts, and at
    # theta = 0.1 two states 1.8e-9 apart swap their shifted masses
    # across the threshold (mass error 6e-2)
    model = ehm.ehm_model((0.5, 0.5, 0.5), golden)
    op = ops.build(model, 0.1, 400)
    assert ops._shifted_mass(op) is None
    ref = ops.eigensolve(op, want_vectors=True)
    sd = ops._spectrum(op)
    assert np.array_equal(sd.eigenvalues, ref.eigenvalues)
    assert np.array_equal(ops.interior_indices(sd), ops.interior_indices(ref))


def test_middle_decay_fits_matches_state_loop(ehm_112):
    sd = ops.eigensolve(ops.build(ehm_112, 0.42, 300), want_vectors=True)
    keep = ops.interior_indices(sd)
    lo, hi = np.percentile(sd.eigenvalues, [25, 75])
    rates, r2s, rejected = [], [], 0
    for idx in keep:
        if not lo <= sd.eigenvalues[idx] <= hi:
            continue
        try:
            rate, r2 = ops.decay_rate(sd, idx)
        except ValidationError:
            rejected += 1
            continue
        rates.append(rate)
        r2s.append(r2)
    assert rates and rejected
    assert ops.middle_decay_fits(sd, keep) == (rates, r2s, rejected)
