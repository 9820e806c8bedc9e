"""Finite Dirichlet truncations, eigensolving, spectra, IDS, and
localization diagnostics (decay fits, participation ratios, three-vector
escape test)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .cocycles import (
    Cocycle,
    JacobiModel,
    finite_product,
    finite_product_inv,
    orbit_phases,
)
from .diophantine import ContinuedFraction, delta_c
from .errors import (
    ConvergenceFailure,
    InsufficientDepth,
    PeakNearBoundary,
    ThetaInSingularOrbit,
    ValidationError,
)
from .symbols import zeros_on_torus

_EDGE_FRACTION = 0.025          # per side; outer 5% of sites in total
_EDGE_EXCESS = 3.0              # boundary filter, in uniform edge shares
_PRODUCT_BOUND_EPS = 0.05       # slack eps in the singular-phase lower bound


def _edge_sites(M: int) -> int:
    """Sites per side of the edge region of a size-M window."""
    return max(1, round(_EDGE_FRACTION * M))


@dataclass(frozen=True)
class TruncatedOperator:
    N: int                       # window is [-N, N]
    band: np.ndarray             # scipy upper band storage, (bw+1, 2N+1)

    def __post_init__(self):
        b = np.asarray(self.band)
        b.flags.writeable = False
        object.__setattr__(self, "band", b)

    @property
    def size(self) -> int:
        return self.band.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] - 1

    def dense(self) -> np.ndarray:
        M = self.size
        u = self.bandwidth
        out = np.zeros((M, M), dtype=self.band.dtype)
        for mp in range(u + 1):
            vals = self.band[u - mp, mp:]
            idx = np.arange(M - mp)
            out[idx, idx + mp] = vals
            if mp:
                out[idx + mp, idx] = np.conj(vals)
        return out

    def norm_bound(self) -> float:
        """Row-sum bound for ||H||."""
        u = self.bandwidth
        total = np.max(np.abs(self.band[u]))
        for mp in range(1, u + 1):
            total += 2 * np.max(np.abs(self.band[u - mp, mp:]), initial=0.0)
        return float(total)


def build(model, theta: float, N: int) -> TruncatedOperator:
    """Hermitian band truncation of the operator at phase theta on [-N, N]."""
    if N < 0:
        raise ValidationError("N must be >= 0")
    sites = np.arange(-N, N + 1)
    bands = model.lattice_bands(float(theta), sites)
    bw = model.bandwidth
    M = 2 * N + 1
    dtype = complex if any(np.iscomplexobj(v) for v in bands.values()) else float
    ab = np.zeros((bw + 1, M), dtype=dtype)
    for mp in range(bw + 1):
        if mp not in bands:
            continue
        vals = np.asarray(bands[mp])
        ab[bw - mp, mp:] = vals[:M - mp]
    return TruncatedOperator(N, ab)


@dataclass(frozen=True)
class SpectralData:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    N: int
    boundary_mass: np.ndarray | None

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors", "boundary_mass"):
            a = getattr(self, name)
            if a is not None:
                a = np.asarray(a)
                a.flags.writeable = False
                object.__setattr__(self, name, a)


def eigensolve(op: TruncatedOperator, want_vectors: bool = False) -> SpectralData:
    """All eigenvalues (ascending), optionally with normalized vectors and
    the per-vector mass in the outer 5% of sites.

    A tridiagonal window H with hopping h_m is solved as the real symmetric
    matrix T with off-diagonal |h_m|, and T's vectors are returned: they are
    the vectors of H up to a diagonal unimodular gauge (H = G T G^*), and
    every consumer reads |u|. Wider bands go to the banded solver, whose
    vectors are H's own.
    """
    bw = min(op.bandwidth, op.size - 1)     # a window holds size-1 off-diagonals
    band = op.band[op.bandwidth - bw:]
    vecs = None
    try:
        if bw <= 1:
            d = band[bw].real
            a = np.abs(band[0, 1:] if bw else band[0, :0])
            if want_vectors:
                w, vecs = scipy.linalg.eigh_tridiagonal(d, a)
            else:
                w = scipy.linalg.eigh_tridiagonal(d, a, eigvals_only=True)
        elif want_vectors:
            w, vecs = scipy.linalg.eig_banded(band, lower=False)
        else:
            w = scipy.linalg.eigvals_banded(band, lower=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    mass = None
    if vecs is not None:
        edge = _edge_sites(op.size)
        mass = (np.abs(vecs[:edge]) ** 2).sum(axis=0) + \
            (np.abs(vecs[-edge:]) ** 2).sum(axis=0)
    return SpectralData(w, vecs, op.N, mass)


def interior_indices(sd: SpectralData) -> np.ndarray:
    """Indices of states without anomalous weight in the outer 5% of sites.

    The threshold is three times the uniform-state share of the edge
    region: extended states carry about the uniform share there while
    truncation-edge artifacts carry order one, so the factor separates the
    two without discarding delocalized spectra.
    """
    if sd.boundary_mass is None:
        raise ValidationError("need eigenvectors to filter boundary states")
    M = 2 * sd.N + 1
    mass_tol = _EDGE_EXCESS * (2.0 * _edge_sites(M) / M)
    return np.nonzero(sd.boundary_mass <= mass_tol)[0]


def phase_pool(model, N: int, thetas):
    """Yield (theta, SpectralData with vectors, interior indices) for the
    window [-N, N] at each phase of `thetas`, in order.

    The generator drops each window before it solves the next; a caller
    that also drops its own reference (`sd = None`) keeps one window of
    eigenvectors alive at a time.
    """
    for theta in np.asarray(thetas, dtype=float):
        sd = eigensolve(build(model, float(theta), N), want_vectors=True)
        yield float(theta), sd, interior_indices(sd)
        del sd


def pooled_spectrum(model, N: int, thetas) -> np.ndarray:
    """Sorted union of the interior eigenvalues of the windows at `thetas`."""
    pool = []
    for _, sd, keep in phase_pool(model, N, thetas):
        pool.append(sd.eigenvalues[keep])
        sd = None
    return np.sort(np.concatenate(pool))


# ---------------------------------------------------------------------------
# integrated density of states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdsCurve:
    grid: np.ndarray
    N_of_E: np.ndarray
    n_phases: int
    N: int

    def __post_init__(self):
        for name in ("grid", "N_of_E"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def rows(self):
        return list(zip(self.grid.tolist(), self.N_of_E.tolist()))


def ids(model, E_grid, N: int, n_phases: int = 8, seed: int = 0) -> IdsCurve:
    """Phase-averaged eigenvalue counting function on the energy grid.

    States that `interior_indices` flags as boundary-dominated are
    discarded from the count; the curve is nondecreasing with limits 0/1.
    """
    thetas = np.random.default_rng(seed).random(n_phases)
    E = np.asarray(E_grid, dtype=float)
    acc = np.zeros(len(E))
    for _, sd, keep in phase_pool(model, N, thetas):
        kept = np.sort(sd.eigenvalues[keep])
        sd = None
        acc += np.searchsorted(kept, E, side="left") / len(kept)
    return IdsCurve(E, acc / n_phases, n_phases, N)


def spectrum_proxy(model, N: int, n_theta: int = 64) -> np.ndarray:
    """Union over a uniform phase grid of interior-state eigenvalues."""
    return pooled_spectrum(model, N, np.arange(n_theta) / n_theta)


def spectrum_samples(model, count: int, N: int = 1000,
                     n_theta: int = 8) -> np.ndarray:
    """Energies operationally inside the spectrum: interior eigenvalues of
    size-(2N+1) truncations, picked at evenly spaced quantiles (each one an
    element of `spectrum_proxy`, never a point between two of them)."""
    proxy = spectrum_proxy(model, N, n_theta)
    qs = (np.arange(count) + 0.5) / count
    return np.quantile(proxy, qs, method="nearest")


def hausdorff_distance(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))

    def directed(x, y):
        idx = np.clip(np.searchsorted(y, x), 1, len(y) - 1)
        return float(np.max(np.minimum(np.abs(x - y[idx - 1]),
                                       np.abs(x - y[idx]))))

    return max(directed(a, b), directed(b, a))


def kolmogorov_distance(a, b) -> float:
    """sup_E |ECDF_a(E) - ECDF_b(E)| for two pooled samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


# ---------------------------------------------------------------------------
# localization diagnostics
# ---------------------------------------------------------------------------

def decay_rate(sd: SpectralData, index: int) -> tuple:
    """Least-squares exponential decay rate of |u_n| away from its peak.

    Fits ln|u_n| against the distance from the peak over the middle 60%
    of the usable decay range (above the eigensolver noise floor); returns
    (rate, r_squared). A range shorter than four distances, or with fewer
    than two distances above the floor, raises ValidationError.
    """
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


def ipr(sd: SpectralData, index: int) -> float:
    """Inverse participation ratio sum |u|^4 of the normalized vector."""
    if sd.eigenvectors is None:
        raise ValidationError("eigenvectors not computed")
    u = np.abs(sd.eigenvectors[:, index]) ** 2
    return float(np.sum(u * u) / np.sum(u) ** 2)


def middle_decay_fits(sd: SpectralData, keep) -> tuple:
    """`decay_rate` of each kept state whose energy lies between the
    window's 25th and 75th eigenvalue percentiles.

    Returns (rates, r2s, rejected): a fit refused with ValidationError
    (peak near the edge, range too short) is counted in `rejected`; any
    other exception propagates.
    """
    E = sd.eigenvalues[keep]
    lo, hi = np.percentile(sd.eigenvalues, [25, 75])
    rates, r2s, rejected = [], [], 0
    for idx in keep[(lo <= E) & (E <= hi)]:
        try:
            rate, r2 = decay_rate(sd, idx)
        except ValidationError:
            rejected += 1
            continue
        rates.append(rate)
        r2s.append(r2)
    return rates, r2s, rejected


# ---------------------------------------------------------------------------
# three-vector escape test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GordonReport:
    q: int
    log_q_next: float
    norms: tuple          # per candidate: (|(u_q,.)|, |(u_2q,.)|, |(u_-q,.)|)
    min_max_norm: float   # min over candidates of the max of the three
    passed: bool          # every candidate has max of three >= 1/4
    trace_abs: float
    trace_log_abs: float
    det_abs: float
    det_direct: float
    cayley_residual: float
    product_bound: dict | None   # singular-phase lower-bound check, if any


def gordon_test(model: JacobiModel, theta: float, E: float,
                cf: ContinuedFraction, level: int,
                phi_count: int = 8) -> GordonReport:
    """Escape criterion at the convergent denominator q = q_level.

    Candidate solutions are generated by the transfer recursion from unit
    seeds (u_0, u_-1) on a phi grid; for each we record the vectors at
    sites q, 2q and -q. A true decaying eigenfunction would keep all three
    small; the criterion holds when the max of the three norms is at least
    1/4 for every candidate.
    """
    if level < 1 or level >= cf.depth:
        raise InsufficientDepth(
            f"level {level} needs q_(level+1); expansion has {cf.depth}")
    q = cf.q[level - 1]
    log_q_next = math.log(cf.q[level])
    co = Cocycle(model, E, kind="transfer")

    Aq = finite_product(co, theta, 0, q - 1)
    A2q = finite_product(co, theta, q, 2 * q - 1)
    Bq_inv = finite_product_inv(co, theta, -q, -1)
    m = Aq.matrix
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    trace_log = Aq.log_scale + math.log(abs(tr)) if tr != 0 else -math.inf
    # |det A_q| telescopes; accumulate per-step determinant moduli because
    # the determinant of the grown product matrix is below rounding noise
    alpha = model.alpha
    orbit = orbit_phases(alpha, theta, -1, q + 1)
    cmod = np.abs(model.c.eval(orbit))
    det_abs = math.exp(float(np.sum(np.log(cmod[:q]) - np.log(cmod[1:]))))
    det_direct = float(cmod[0] / cmod[q])
    # Cayley-Hamilton residual on the rescaled representative (scale-free)
    ch = m @ m - tr * m + det * np.eye(2)
    ch_resid = float(np.linalg.norm(ch, 2) /
                     max(np.linalg.norm(m, 2) ** 2, 1e-300))

    seeds = []
    for i in range(phi_count):
        phi = math.pi * i / phi_count
        seeds.append((math.cos(phi), math.sin(phi)))

    def lognorm(sm: "object", vec) -> float:
        w, ls = sm.apply(vec)
        n = float(np.linalg.norm(w))
        return ls + math.log(n) if n > 0 else -math.inf

    norms = []
    for v0 in seeds:
        vq_raw, ls = Aq.apply(v0)
        ln_q = ls + math.log(np.linalg.norm(vq_raw))
        ln_2q = A2q.log_scale + ls + math.log(
            np.linalg.norm(A2q.matrix @ vq_raw))
        ln_mq = lognorm(Bq_inv, v0)
        norms.append(tuple(math.exp(min(x, 700.0)) for x in (ln_q, ln_2q, ln_mq)))
    min_max = min(max(t) for t in norms)
    passed = min_max >= 0.25

    product_bound = None
    phases = zeros_on_torus(model.c).torus_phases
    if phases:
        th_orbit = orbit_phases(alpha, theta, 0, q)
        z = np.exp(2j * np.pi * th_orbit)
        lhs = 0.0
        for tj in phases:
            lhs += float(np.sum(np.log(np.abs(z - np.exp(2j * np.pi * tj)))))
        try:
            delta = delta_c(cf, theta, list(phases), depth=cf.depth - 1)
        except ThetaInSingularOrbit:
            delta = None
        if delta is not None:
            rhs = (delta - _PRODUCT_BOUND_EPS) * q - log_q_next
            product_bound = {"log_lhs": lhs, "log_rhs": rhs,
                             "holds": lhs >= rhs, "delta_c": delta,
                             "eps": _PRODUCT_BOUND_EPS}

    return GordonReport(q, log_q_next, tuple(norms), float(min_max), passed,
                        float(math.exp(min(trace_log, 700.0))), trace_log,
                        det_abs, det_direct, ch_resid, product_bound)
