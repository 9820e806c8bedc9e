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
_PROBE_N = 32                   # half-width of the route probe window
_LOCALIZED = 1e-5               # probe median mass, in uniform edge shares,
                                # below which a window is solved with vectors
_SHIFT = 1e-9                   # edge shift of the eigenvalue route, relative
_CLUSTER = 1e3                  # gap, in shifts, below which states mix
_MASS_TOL = 1e-4                # accuracy of a mass from the shift
_PRODUCT_BOUND_EPS = 0.05       # slack eps in the singular-phase lower bound
_CHUNK_CELLS = 1 << 14          # cells per array in the window passes


def _edge_sites(M: int) -> int:
    """Sites per side of the edge region of a size-M window."""
    return max(1, round(_EDGE_FRACTION * M))


def _uniform_share(M: int) -> float:
    """The mass of a uniform state in the edge region of a size-M window."""
    return 2.0 * _edge_sites(M) / M


def _mass_tol(M: int) -> float:
    """The boundary filter's threshold: three uniform shares."""
    return _EDGE_EXCESS * _uniform_share(M)


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
        raise ValidationError("need a boundary mass to filter boundary states")
    return np.nonzero(sd.boundary_mass <= _mass_tol(2 * sd.N + 1))[0]


def _shifted_mass(op: TruncatedOperator) -> SpectralData | None:
    """Eigenvalues and boundary masses from two eigenvalue-only solves,
    or None where they cannot tell which states the filter keeps.

    Adding delta to the diagonal on the outer `_edge_sites` of each side
    moves eigenvalue i by delta <u_i, P u_i> to first order
    (Hellmann-Feynman), P the edge projector; P >= 0, so by Weyl the
    sorted spectra pair by index. A site in both edge regions gets
    2 delta, as the vector formula counts it twice.

    States closer than _CLUSTER delta mix under the shift: a run of them
    gets the eigenvalues of P on its span, which bound each state's mass
    from both sides (Schur-Horn) but do not say which state has which.
    A run whose masses fall on both sides of the threshold, or within
    _MASS_TOL of it, gives None.
    """
    w = eigensolve(op).eigenvalues
    delta = _SHIFT * max(1.0, abs(w[0]), abs(w[-1]))
    band = op.band.copy()
    edge = _edge_sites(op.size)
    band[-1, :edge] += delta
    band[-1, -edge:] += delta
    mass = (eigensolve(TruncatedOperator(op.N, band)).eigenvalues - w) / delta
    tol = _mass_tol(op.size)
    kept, unsure = mass <= tol, np.abs(mass - tol) <= _MASS_TOL
    mixed = (kept[1:] != kept[:-1]) | unsure[1:] | unsure[:-1]
    if np.any(mixed & (np.diff(w) < _CLUSTER * delta)):
        return None
    return SpectralData(w, None, op.N, mass)


def _spectrum(op: TruncatedOperator) -> SpectralData:
    """Eigenvalues and boundary masses of the window, without vectors,
    from the cheaper of two exact routes.

    The centre [-n, n], n = min(N, _PROBE_N), is solved with vectors
    first. Where its median boundary mass is below `_LOCALIZED` uniform
    shares the states are localized, divide and conquer deflates, and
    one solve with vectors is cheapest; otherwise two eigenvalue-only
    solves are (`_shifted_mass`), unless they cannot tell the keep set.
    For N <= _PROBE_N the probe is the window.
    """
    n = min(op.N, _PROBE_N)
    # the centre's couplings to the sites outside it land in the band's
    # padding, which no solver reads
    centre = TruncatedOperator(n, op.band[:, op.N - n:op.N + n + 1])
    sd = eigensolve(centre, want_vectors=True)
    if n < op.N:
        extended = np.median(sd.boundary_mass) >= \
            _LOCALIZED * _uniform_share(2 * n + 1)
        sd = _shifted_mass(op) if extended else None
        if sd is None:
            sd = eigensolve(op, want_vectors=True)
    return SpectralData(sd.eigenvalues, None, op.N, sd.boundary_mass)


def phase_pool(model, N: int, thetas, vectors: bool = True):
    """Yield (theta, SpectralData, interior indices) for the window
    [-N, N] at each phase of `thetas`, in order.

    With `vectors` the window comes with its eigenvectors; without, with
    its eigenvalues and boundary masses only (`_spectrum`), which is all
    a spectrum or a count reads. The generator drops each window before
    it solves the next; a caller that also drops its own reference
    (`sd = None`) keeps one window of eigenvectors alive at a time.
    """
    for theta in np.asarray(thetas, dtype=float):
        op = build(model, float(theta), N)
        sd = eigensolve(op, want_vectors=True) if vectors else _spectrum(op)
        yield float(theta), sd, interior_indices(sd)
        del sd


def pooled_spectrum(model, N: int, thetas) -> np.ndarray:
    """Sorted union of the interior eigenvalues of the windows at `thetas`."""
    pool = []
    for _, sd, keep in phase_pool(model, N, thetas, vectors=False):
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
    for _, sd, keep in phase_pool(model, N, thetas, vectors=False):
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

def _state_chunks(sd: SpectralData, indices) -> list:
    """The indices in chunks of at most _CHUNK_CELLS // M states, M the
    window size, so a pass over a chunk holds arrays of about
    _CHUNK_CELLS cells whatever the window."""
    if sd.eigenvectors is None:
        raise ValidationError("eigenvectors not computed")
    indices = np.asarray(indices, dtype=int)
    step = max(1, _CHUNK_CELLS // len(sd.eigenvectors))
    return [indices[i:i + step] for i in range(0, len(indices), step)]


def iprs(sd: SpectralData, indices) -> np.ndarray:
    """Inverse participation ratios sum |u|^4 / (sum |u|^2)^2 of the
    states `indices`, in one pass per chunk of states."""
    out = [np.zeros(0)]
    for chunk in _state_chunks(sd, indices):
        # one C-contiguous row per state: a row's sums do not depend on
        # the rows beside it
        u = np.abs(sd.eigenvectors[:, chunk].T, order="C") ** 2
        out.append(np.sum(u * u, axis=1) / np.sum(u, axis=1) ** 2)
    return np.concatenate(out)


def ipr(sd: SpectralData, index: int) -> float:
    """Inverse participation ratio of one state (`iprs`)."""
    return float(iprs(sd, [index])[0])


def decay_fits(sd: SpectralData, indices) -> tuple:
    """Least-squares exponential decay rates of |u_n| away from the peak
    of each state in `indices`, in one pass per chunk of states.

    Fits ln|u_n| against the distance from the peak over the middle 60%
    of the usable decay range (above the eigensolver noise floor).
    Returns (rates, r2s, near_edge, too_short), arrays over the states.
    A fit is refused where near_edge (the peak is closer than N/2 to the
    edge) or else where too_short (a range shorter than four distances,
    or with fewer than two distances above the floor); a refused state
    has rate and r2 nan.

    A state's profile sits on the distances 0..(M - 1)/2 from its peak
    on both sides, M the window size: the same cells in every chunk, so
    its fit is bit for bit the same whatever states it is fitted with.
    """
    out = [[np.zeros(0, dtype)] for dtype in (float, float, bool, bool)]
    chunks = _state_chunks(sd, indices)
    M = len(sd.eigenvectors)
    D = (M - 1) // 2                    # no peak is farther from both edges
    dist = np.arange(D + 1)
    offsets = np.concatenate([-dist, dist])
    x = np.abs(offsets).astype(float)                  # distance of a cell
    for chunk in chunks:
        P = len(chunk)
        # |u|, one C-contiguous row per state (a row's sums then do not
        # depend on the rows beside it) between D zeros on either side
        u = np.zeros((P, M + 2 * D))
        np.abs(sd.eigenvectors[:, chunk].T, out=u[:, D:D + M])
        peak = np.argmax(u[:, D:D + M], axis=1)
        d_max = np.minimum(peak, M - 1 - peak)
        floor = np.maximum(1e-300, 1e-13 * u[np.arange(P), D + peak])
        # row i holds u_i[peak - d] for d = 0..D, then u_i[peak + d]; a
        # cell past d_max holds 0, which is never above the floor
        prof = np.take(u, (np.arange(P) * (M + 2 * D) + D + peak)[:, None]
                       + offsets)
        u = None
        prof *= x <= d_max[:, None]
        above = prof > floor[:, None]
        reach = above[:, :D + 1] | above[:, D + 1:]
        d_stop = np.where(reach.any(axis=1),
                          D - np.argmax(reach[:, ::-1], axis=1), 0)
        lo_d, hi_d = np.ceil(0.2 * d_stop), np.floor(0.8 * d_stop)
        keep = above & (lo_d[:, None] <= x) & (x <= hi_d[:, None])
        n = keep.sum(axis=1)
        xs = np.broadcast_to(x, keep.shape)
        # all kept distances equal: their least and largest are the same
        one_d = np.max(xs, axis=1, where=keep, initial=-1) == \
            np.min(xs, axis=1, where=keep, initial=D + 1)
        y = np.log(prof, out=np.zeros_like(prof), where=keep)
        prof = None
        with np.errstate(invalid="ignore", divide="ignore"):
            # centred in place; integer distances make the mean of x exact
            dx = xs - (np.sum(xs, axis=1, where=keep) / n)[:, None]
            dx *= keep
            y -= (np.sum(y, axis=1) / n)[:, None]
            y *= keep
            sxx, sxy, syy = (np.einsum("ij,ij->i", dx, dx),
                             np.einsum("ij,ij->i", dx, y),
                             np.einsum("ij,ij->i", y, y))
            rate = -sxy / sxx
            r2 = np.where(syy > 0, sxy * sxy / (sxx * syy), 0.0)
        near_edge = d_max < sd.N / 2
        too_short = ~near_edge & ((hi_d - lo_d < 3) | (n == 0) | one_d)
        rate[near_edge | too_short] = r2[near_edge | too_short] = np.nan
        for acc, val in zip(out, (rate, r2, near_edge, too_short)):
            acc.append(val)
    return tuple(np.concatenate(acc) for acc in out)


def decay_rate(sd: SpectralData, index: int) -> tuple:
    """`decay_fits` of one state: (rate, r_squared). A refused fit raises
    PeakNearBoundary or ValidationError."""
    (rate,), (r2,), (near_edge,), (too_short,) = decay_fits(sd, [index])
    if near_edge:
        u = np.abs(sd.eigenvectors[:, index])
        raise PeakNearBoundary(f"peak at site index {int(np.argmax(u))} "
                               f"of {len(u)}")
    if too_short:
        raise ValidationError("decay range too short for a fit")
    return float(rate), float(r2)


def middle_decay_fits(sd: SpectralData, keep) -> tuple:
    """`decay_fits` of the kept states whose energy lies between the
    window's 25th and 75th eigenvalue percentiles.

    Returns (rates, r2s, rejected): the fitted states' rates and r2 as
    lists, and the count of refused fits.
    """
    E = sd.eigenvalues[keep]
    lo, hi = np.percentile(sd.eigenvalues, [25, 75])
    rates, r2s, near_edge, too_short = decay_fits(
        sd, keep[(lo <= E) & (E <= hi)])
    fitted = ~(near_edge | too_short)
    return (rates[fitted].tolist(), r2s[fitted].tolist(),
            int(np.sum(~fitted)))


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
    # |det A_q| telescopes: sum per-step determinant moduli, as that of the
    # grown product is below rounding noise. One pass of blocks reads |c| at
    # the points -1..q-1 and the distances to the singular phases at 0..q-1
    alpha = model.alpha
    phases = zeros_on_torus(model.c).torus_phases
    det_log = lhs = 0.0
    for a in range(0, q, _CHUNK_CELLS):
        n = min(_CHUNK_CELLS, q - a)
        cmod = np.abs(model.c.eval(orbit_phases(alpha, theta, a - 1, n + 1)))
        det_log += float(np.sum(np.log(cmod[:-1]) - np.log(cmod[1:])))
        c_first = cmod[0] if a == 0 else c_first
        if phases:
            z = np.exp(2j * np.pi * orbit_phases(alpha, theta, a, n))
        for tj in phases:
            lhs += float(np.sum(np.log(np.abs(z - np.exp(2j * np.pi * tj)))))
    det_abs = math.exp(det_log)
    det_direct = float(c_first / cmod[-1])
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
    if phases:
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
