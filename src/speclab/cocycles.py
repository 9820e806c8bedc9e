"""Transfer-matrix and normalized cocycles over an irrational rotation.

Products are evaluated in blocks: each block of matrices is built with
vectorized symbol evaluation and reduced by pairwise multiplication with
per-level rescaling, so growth rates up to several nats per step never
overflow. Orbit phases are re-anchored once per block with exact rational
arithmetic, which keeps the drift from the orbit of the proxy p/q below
~1e-12 out to 1e8 steps. Against alpha the proxy itself is off by
k |alpha - p/q|, about 1.6e-9 at k = 1e8 for golden depth 40. That error
stays in the numerical orbit: the singular-orbit decision
(`diophantine.check_theta`) works on alpha's exact enclosure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .diophantine import ContinuedFraction
from .errors import OutsideStrip, SingularHopping, ValidationError
from .symbols import TorusSymbol, modulus_symbol

_BLOCK = 256
_HOPPING_TOL = 1e-12
# rotation sweep: steps per segment, and the cap on both the steps of a
# chunk (segments x _SEGMENT) and the cells of a pass (segments x energies)
_SEGMENT = 64
_CELLS = 1 << 14


@dataclass(frozen=True)
class JacobiModel:
    """Hopping symbol c (half-phase, real coefficients), potential v
    (self-adjoint), and the rotation frequency."""

    c: TorusSymbol
    v: TorusSymbol
    alpha: ContinuedFraction

    def __post_init__(self):
        if not self.c.half_phase:
            raise ValidationError("hopping symbol must use the half-phase basis")
        if not self.c.is_real_fourier(1e-10):
            raise ValidationError("hopping coefficients must be real")
        if not self.v.is_self_adjoint(1e-10):
            raise ValidationError("potential must be self-adjoint")
        if self.alpha.depth < 3:
            raise ValidationError("frequency needs at least 3 certified quotients")

    @property
    def c_tilde(self) -> TorusSymbol:
        return self.c.conj_reversal()

    @property
    def bandwidth(self) -> int:
        return 1

    def lattice_bands(self, theta: float, sites: np.ndarray) -> dict:
        """Band m' -> entries H[m, m+m'] for the tridiagonal operator."""
        phases = orbit_phases(self.alpha, theta, int(sites[0]), len(sites))
        return {0: self.v.eval(phases).real,    # self-adjoint => real on T
                1: self.c.eval(phases[:-1])}

    def sup_bound(self) -> float:
        """Upper bound for the spectral radius of the operator family."""
        return float(np.sum(np.abs(self.v.coeffs)) +
                     2 * np.sum(np.abs(self.c.coeffs)))


def _integer(name: str, n) -> int:
    """n as an int; floats such as 1e5 are refused, not truncated."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {n!r}") from None


def _finite_phase(theta) -> None:
    if not math.isfinite(theta):
        raise ValidationError(f"phase must be finite, got {theta!r}")


def orbit_phases(alpha: ContinuedFraction | Fraction, theta0, k0: int,
                 count: int) -> np.ndarray:
    """theta0 + k*alpha mod 1 for k = k0..k0+count-1, re-anchored exactly.

    theta0 may be a scalar or a vector of phases; the anchor for each block
    is computed with exact rational arithmetic so the double-precision
    drift from the proxy's orbit never exceeds the in-block accumulation;
    the proxy's own error is in the module docstring.
    """
    proxy = alpha.proxy if isinstance(alpha, ContinuedFraction) else alpha
    af = float(proxy)
    th = np.atleast_1d(np.asarray(theta0, dtype=float))
    out = np.empty((len(th), count))
    done = 0
    while done < count:
        n = min(_BLOCK, count - done)
        anchor = float(((k0 + done) * proxy) % 1)
        block = (th[:, None] + (anchor + np.arange(n) * af)) % 1.0
        out[:, done:done + n] = block
        done += n
    if np.isscalar(theta0):
        return out[0]
    return out


def _normalized_step(model: JacobiModel, th: np.ndarray,
                     mod_c: TorusSymbol | None = None) -> tuple:
    """(a, b, v, s) of the normalized step [[(E - v)/s, -b/s], [a/s, 0]]
    with a = |c|(th), b = |c|(th - alpha), s = sqrt(ab): exact and real on
    the real torus, from mod_c (|c| continued into the strip) off it."""
    af = model.alpha.value
    if mod_c is None:
        a, b = np.abs(model.c.eval(th)), np.abs(model.c.eval(th - af))
        v = model.v.eval(th).real          # self-adjoint => real on T
    else:
        a, b, v = mod_c.eval(th), mod_c.eval(th - af), model.v.eval(th)
    s = np.sqrt(a * b)
    if np.any(np.abs(s) < _HOPPING_TOL):
        raise SingularHopping("|c| < 1e-12 at a sampled phase")
    return a, b, v, s


@dataclass
class Cocycle:
    """A 2x2 cocycle over theta -> theta + alpha.

    kind: "transfer" for the Jacobi transfer matrix, "normalized" for the
    determinant-one form built from |c|, or "custom" with explicit symbol
    entries. epsilon complexifies the phase: theta -> theta + i*epsilon.
    """

    model: JacobiModel | None
    energy: complex
    kind: str = "normalized"
    epsilon: float = 0.0
    entries: tuple | None = None        # 2x2 nest of TorusSymbols for custom
    _mod_c: TorusSymbol | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        if self.kind not in ("transfer", "normalized", "custom"):
            raise ValidationError(f"unknown cocycle kind {self.kind!r}")
        if self.kind == "custom":
            if self.entries is None:
                raise ValidationError("custom cocycle needs entry symbols")
            return
        if self.model is None:
            raise ValidationError("model required")

    def _modulus(self) -> TorusSymbol:
        """Analytic continuation of |c| into the strip, built on first use."""
        if self._mod_c is None:
            self._mod_c = modulus_symbol(self.model.c,
                                         4 * self.model.c.order + 64)
        return self._mod_c

    def _check_strip(self, eps: float) -> None:
        syms = ([s for row in self.entries for s in row]
                if self.kind == "custom" else [self.model.c, self.model.v])
        if eps and self.kind == "normalized":
            syms.append(self._modulus())
        for s in syms:
            if abs(eps) > s.strip:
                raise OutsideStrip(
                    f"epsilon {eps} outside certified strip {s.strip:.5g}")

    def matrices(self, thetas) -> np.ndarray:
        """Stack of cocycle matrices at the given (possibly complex) phases;
        real for the normalized kind on the real torus."""
        th = np.asarray(thetas, dtype=complex if self.epsilon else float)
        if self.epsilon:
            th = th + 1j * self.epsilon
        if self.kind == "custom":
            out = np.empty(th.shape + (2, 2), dtype=complex)
            for i in range(2):
                for j in range(2):
                    out[..., i, j] = self.entries[i][j].eval(th)
            return out
        if self.kind == "normalized":
            a, b, v, s = _normalized_step(
                self.model, th, self._modulus() if self.epsilon else None)
            top, low = ((self.energy - v) / s, -b / s), a / s
        else:
            c = self.model.c.eval(th)
            if np.any(np.abs(c) < _HOPPING_TOL):
                raise SingularHopping("|c| < 1e-12 at a sampled phase")
            ct = self.model.c_tilde.eval(th - self.model.alpha.value)
            top, low = ((self.energy - self.model.v.eval(th)) / c, -ct / c), 1.0
        out = np.zeros(th.shape + (2, 2), dtype=np.result_type(*top))
        out[..., 0, 0], out[..., 0, 1] = top
        out[..., 1, 0] = low
        return out

    def matrix_at(self, theta: float) -> np.ndarray:
        """Single cocycle matrix, shape (2, 2)."""
        return self.matrices(np.array([theta]))[0]


@dataclass(frozen=True)
class CocycleEstimate:
    value: float
    n_iter: int
    n_phases: int
    stderr: float
    method: str
    seed: int | None = None

    def to_json(self) -> dict:
        return {"value": self.value, "stderr": self.stderr,
                "n_iter": self.n_iter, "n_phases": self.n_phases,
                "method": self.method, "seed": self.seed}


@dataclass(frozen=True)
class ScaledMatrix:
    """matrix * exp(log_scale), kept factored to avoid overflow."""
    matrix: np.ndarray
    log_scale: float

    @property
    def log_norm(self) -> float:
        return self.log_scale + math.log(np.linalg.norm(self.matrix, 2))

    def apply(self, vec) -> tuple:
        """(matrix @ vec, log_scale) without collapsing the factor."""
        return self.matrix @ np.asarray(vec, dtype=complex), self.log_scale


def _tree_product(mats: np.ndarray) -> tuple:
    """Ordered product mats[:, -1] @ ... @ mats[:, 0] with rescaling.

    mats has shape (P, B, 2, 2). Returns (product (P,2,2), logs (P,)).
    """
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


def _product_logs(co: Cocycle, thetas: np.ndarray, n_iter: int) -> np.ndarray:
    """log ||A_n(theta_i)|| for each phase, via rescaled block products."""
    P = len(thetas)
    run = np.broadcast_to(np.eye(2, dtype=complex), (P, 2, 2)).copy()
    logs = np.zeros(P)
    alpha = co.model.alpha if co.model is not None else Fraction(0)
    done = 0
    while done < n_iter:
        n = min(_BLOCK, n_iter - done)
        mats = co.matrices(orbit_phases(alpha, thetas, done, n))
        block, blog = _tree_product(mats)
        run = np.matmul(block, run)
        scale = np.max(np.abs(run), axis=(1, 2))
        run /= scale[:, None, None]
        logs += blog + np.log(scale)
        done += n
    return logs + np.log(np.linalg.norm(run, ord=2, axis=(1, 2)))


def lyapunov(co: Cocycle, n_iter: int, n_phases: int = 8,
             seed: int = 0) -> CocycleEstimate:
    """Monte-Carlo estimate of the top Lyapunov exponent in nats.

    Averages (1/n) log ||A_n(theta_i)|| over n_phases random phases with
    per-level norm rescaling; deterministic given the seed.
    """
    n_iter, n_phases = _integer("n_iter", n_iter), _integer("n_phases", n_phases)
    if n_iter < 1 or n_phases < 1:
        raise ValidationError("n_iter and n_phases must be positive")
    rng = np.random.default_rng(seed)
    thetas = rng.random(n_phases)
    co._check_strip(co.epsilon)
    vals = _product_logs(co, thetas, n_iter) / n_iter
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_phases)) \
        if n_phases > 1 else 0.0
    return CocycleEstimate(float(np.mean(vals)), n_iter, n_phases, stderr,
                           f"rescaled-product:{co.kind}", seed)


def lyapunov_strip(co: Cocycle, eps_list, n_iter: int, n_phases: int = 8,
                   seed: int = 0) -> list:
    """One Lyapunov run per phase-complexification epsilon."""
    co_eps = replace(co)        # one copy, so one |c| projection for the strip
    out = []
    for eps in eps_list:
        co_eps.epsilon = float(eps)
        out.append(lyapunov(co_eps, n_iter, n_phases, seed))
    return out


def _segment_matrices(co: Cocycle, theta: float, a: int, b: int) -> np.ndarray:
    alpha = co.model.alpha if co.model is not None else Fraction(0)
    phases = orbit_phases(alpha, float(theta), a, b - a + 1)
    if co.kind == "transfer":
        cvals = co.model.c.eval(phases)
        bad = np.nonzero(np.abs(cvals) < _HOPPING_TOL)[0]
        if len(bad):
            raise SingularHopping(
                f"hopping vanishes at site {a + int(bad[0])}",
                site=a + int(bad[0]))
    return co.matrices(phases[None, :])


def finite_product(co: Cocycle, theta: float, a: int, b: int) -> ScaledMatrix:
    """Ordered product A(theta + b alpha) ... A(theta + a alpha).

    Empty range (b < a) gives the identity. Hopping zeros on the segment
    raise SingularHopping with the offending site.
    """
    a, b = _integer("a", a), _integer("b", b)
    _finite_phase(theta)
    if b < a:
        return ScaledMatrix(np.eye(2, dtype=complex), 0.0)
    mats = _segment_matrices(co, theta, a, b)
    prod, logs = _tree_product(mats)
    return ScaledMatrix(prod[0], float(logs[0]))


def finite_product_inv(co: Cocycle, theta: float, a: int, b: int) -> ScaledMatrix:
    """[A(theta + b alpha) ... A(theta + a alpha)]^{-1} via per-step inverses.

    Inverting the grown product is hopeless once its determinant
    underflows; each step's inverse is well conditioned, so the rescaled
    product of inverses in reversed order is the stable route.
    """
    a, b = _integer("a", a), _integer("b", b)
    _finite_phase(theta)
    if b < a:
        return ScaledMatrix(np.eye(2, dtype=complex), 0.0)
    mats = _segment_matrices(co, theta, a, b)
    invs = np.linalg.inv(mats[0])[::-1]
    prod, logs = _tree_product(invs[None, :])
    return ScaledMatrix(prod[0], float(logs[0]))


# ---------------------------------------------------------------------------
# fibered rotation number
# ---------------------------------------------------------------------------

def rotation_number(co: Cocycle, n_iter: int = 200_000,
                    theta0: float = 0.0) -> float:
    """Fibered rotation number in [0, 1/2] of a normalized cocycle."""
    if co.kind != "normalized" or co.epsilon:
        raise ValidationError(
            "rotation number needs the normalized cocycle on the real torus")
    return float(rotation_sweep(co.model, np.array([co.energy]),
                                n_iter, theta0)[0])


def rotation_sweep(model: JacobiModel, energies: np.ndarray,
                   n_iter: int = 200_000, theta0: float = 0.0) -> np.ndarray:
    """Rotation numbers for a whole energy grid in one orbit sweep.

    Tracks the projective angle of a marked vector, starting at e1; each
    step's increment in turns is taken on the branch continuous through the
    quarter-turn rotation, folded into (-1/4, 3/4], and the Birkhoff
    average of the increments is the rotation number.

    The orbit is built chunk by chunk, and each chunk is cut into S
    segments of m steps, swept in three passes vectorised over
    (segments x energies):

    1. propagate the two basis columns through every segment at once,
       rescaled each step by the largest entry: the segment products;
    2. stitch the products in order, which gives each segment its true
       incoming unit vector; the last one carries over to the next chunk;
    3. replay the per-step increments from those vectors, with compensated
       summation inside each segment, then add the segment sums exactly
       (`math.fsum`).

    A chunk costs about 2m + S Python iterations instead of S m, and the
    memory is O(chunk + S x energies) for any n_iter.
    """
    n_iter = _integer("n_iter", n_iter)
    _finite_phase(theta0)
    if n_iter < 1:
        raise ValidationError("n_iter must be positive")
    E = np.asarray(energies)
    if np.iscomplexobj(E):
        if np.any(E.imag):
            raise ValidationError("energies must be real")
        E = E.real
    if E.ndim != 1 or not np.issubdtype(E.dtype, np.number) \
            or not np.all(np.isfinite(E)):
        raise ValidationError("energies must be a 1-D array of finite reals")
    E = E.astype(float)
    segments = max(1, _CELLS // max(len(E), _SEGMENT))
    w = (np.ones(len(E)), np.zeros(len(E)))
    total = [0.0] * len(E)
    done = 0
    while done < n_iter:
        n = min(segments * _SEGMENT, n_iter - done)
        step = _normalized_step(
            model, orbit_phases(model.alpha, theta0, done, n))
        body = n - n % _SEGMENT         # a short tail only in the last chunk
        for lo, hi in ((0, body), (body, n)):
            if hi > lo:
                m = min(_SEGMENT, hi - lo)
                w, sums = _segment_sweep(
                    E, [x[lo:hi].reshape(-1, m).T for x in step], w)
                total = [math.fsum([t, *col])
                         for t, col in zip(total, sums.T.tolist())]
        done += n
    rho = np.mod(np.array(total) / n_iter, 1.0)
    return np.minimum(rho, 1.0 - rho)


def _segment_sweep(E: np.ndarray, step: list, w: tuple) -> tuple:
    """The three passes of `rotation_sweep` over S segments of m steps.

    step holds a, b, v, s of the normalized step as (m, S) arrays, column
    j the steps of segment j; w is the unit vector entering segment 0.
    Returns the unit vector leaving the last segment and the (2S, nE)
    terms whose exact sum is the chunk's angle total per energy.
    """
    a, b, v, s = step
    m, S = v.shape
    Ek = E[None, :]
    # pass 1: segment products; c0[i] and c1[i] are the first and second
    # entries of the image of e_(i+1)
    c0 = np.zeros((2, S, len(E)))
    c1 = np.zeros((2, S, len(E)))
    c0[0] = c1[1] = 1.0
    for k in range(m):
        vk, bk, sk = v[k, :, None], b[k, :, None], s[k, :, None]
        c0, c1 = ((Ek - vk) * c0 - bk * c1) / sk, (a[k, :, None] / sk) * c0
        scale = np.maximum(np.abs(c0).max(axis=0), np.abs(c1).max(axis=0))
        c0 /= scale
        c1 /= scale
    # pass 2: stitch, giving each segment its incoming unit vector
    w0, w1 = np.empty((S, len(E))), np.empty((S, len(E)))
    u0, u1 = w
    for j in range(S):
        w0[j], w1[j] = u0, u1
        u0, u1 = (c0[0, j] * w0[j] + c0[1, j] * w1[j],
                  c1[0, j] * w0[j] + c1[1, j] * w1[j])
        norm = np.hypot(u0, u1)
        u0, u1 = u0 / norm, u1 / norm
    # pass 3: per-step increments from the stitched vectors
    total = np.zeros((S, len(E)))
    comp = np.zeros((S, len(E)))
    for k in range(m):
        vk, bk, sk = v[k, :, None], b[k, :, None], s[k, :, None]
        x0 = ((Ek - vk) * w0 - bk * w1) / sk
        x1 = (a[k, :, None] / sk) * w0
        # angle increment in turns; the branch continuous through the
        # quarter-turn rotation keeps increments in (-1/4, 3/4]
        inc = np.arctan2(w0 * x1 - w1 * x0, w0 * x0 + w1 * x1) / (2 * math.pi)
        inc = np.where(inc <= -0.25, inc + 1.0, inc)
        y = inc - comp
        t = total + y
        comp = (t - total) - y
        total = t
        norm = np.hypot(x0, x1)
        w0, w1 = x0 / norm, x1 / norm
    return (u0, u1), np.concatenate([total, -comp])
