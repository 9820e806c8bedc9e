"""Transfer-matrix and normalized cocycles over an irrational rotation.

Products are evaluated in blocks: each block of matrices is built with
one complex exponential per orbit point and reduced by pairwise
multiplication on the four entry arrays with per-level rescaling, so
growth rates up to several nats per step never overflow. Orbit phases are
re-anchored every 256 steps with exact rational arithmetic, which keeps
the drift from the orbit of the proxy p/q below ~1e-12 out to 1e8
steps. Against alpha the proxy itself is off by k |alpha - p/q|, about
1.6e-9 at k = 1e8 for golden depth 40. That error stays in the
numerical orbit: the singular-orbit decision
(`diophantine.check_theta`) works on alpha's exact enclosure.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .diophantine import ContinuedFraction
from .errors import OutsideStrip, SingularHopping, ValidationError
from .symbols import TWO_PI, TorusSymbol, modulus_strip

_BLOCK = 4096               # steps per block product
_ANCHOR = 256               # steps between exact orbit re-anchors
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
        with np.errstate(over="ignore"):
            if not math.isfinite(self.sup_bound()):
                raise ValidationError("model coefficients need a finite sum")

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

    theta0 may be a scalar or a vector of phases; the anchor of every
    _ANCHOR steps is computed with exact rational arithmetic so the
    double-precision drift from the proxy's orbit never exceeds the
    accumulation over _ANCHOR steps; the proxy's own error is in the
    module docstring.
    """
    proxy = alpha.proxy if isinstance(alpha, ContinuedFraction) else alpha
    p, q = proxy.numerator, proxy.denominator
    k0, af = int(k0), float(proxy)
    th = np.atleast_1d(np.asarray(theta0, dtype=float))
    # int / int is correctly rounded, as float(Fraction) is
    anchors = np.array([(k0 + d) * p % q / q
                        for d in range(0, count, _ANCHOR)])
    steps = (anchors[:, None] + np.arange(_ANCHOR) * af).ravel()[:count]
    out = (th[:, None] + steps) % 1.0
    if np.isscalar(theta0):
        return out[0]
    return out


def _exp_points(model: JacobiModel, th: np.ndarray) -> tuple:
    """z = e^{2 pi i th} and zb = e^{2 pi i (th - alpha)}: one exponential
    per phase, and a scalar product for the shift."""
    z = np.exp(2j * np.pi * th)
    return z, z * cmath.exp(-1j * TWO_PI * model.alpha.value)


def _normalized_step(model: JacobiModel, th: np.ndarray) -> tuple:
    """(a, b, v, s) of the normalized step [[(E - v)/s, -b/s], [a/s, 0]]
    with a = |c|(th), b = |c|(th - alpha), s = sqrt(ab), from one
    exponential per phase. On the real torus a and b are the exact moduli
    and all four are real; off it a and b are sqrt(c c~), the analytic
    continuation of |c| (c~ the conjugate reversal)."""
    z, zb = _exp_points(model, th)
    if np.iscomplexobj(th):
        ct = model.c_tilde
        cc = [model.c.at(w) * ct.at(w) for w in (z, zb)]
        # the principal root, refused where |arg(c c~)| > 3 pi / 4
        if any(np.any(w.real < -np.abs(w.imag)) for w in cc):
            raise OutsideStrip("arg(c c~) passes 3 pi / 4: the principal "
                               "root may leave the continuation of |c|")
        a, b = np.sqrt(cc[0]), np.sqrt(cc[1])
        v = model.v.at(z)
    else:
        a, b = np.abs(model.c.at(z)), np.abs(model.c.at(zb))
        v = model.v.at(z).real              # self-adjoint => real on T
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

    def __post_init__(self):
        if self.kind not in ("transfer", "normalized", "custom"):
            raise ValidationError(f"unknown cocycle kind {self.kind!r}")
        if not (cmath.isfinite(self.energy) and math.isfinite(self.epsilon)):
            raise ValidationError(f"energy {self.energy!r} and epsilon "
                                  f"{self.epsilon!r} must be finite")
        if self.kind == "custom":
            if self.entries is None:
                raise ValidationError("custom cocycle needs entry symbols")
            return
        if self.model is None:
            raise ValidationError("model required")

    def _check_strip(self, eps: float) -> None:
        syms = ([s for row in self.entries for s in row]
                if self.kind == "custom" else [self.model.c, self.model.v])
        strips = [s.strip for s in syms]
        if eps and self.kind == "normalized":
            strips.append(modulus_strip(self.model.c))
        for strip in strips:
            if abs(eps) > strip:
                raise OutsideStrip(
                    f"epsilon {eps} outside certified strip {strip:.5g}")

    def matrices(self, thetas) -> np.ndarray:
        """Stack of cocycle matrices at the given (possibly complex) phases;
        real for the normalized kind on the real torus."""
        th = np.asarray(thetas, dtype=complex if self.epsilon else float)
        if self.epsilon:
            th = th + 1j * self.epsilon
        if self.kind == "custom":
            m = [s.eval(th) for row in self.entries for s in row]
        elif self.kind == "normalized":
            a, b, v, s = _normalized_step(self.model, th)
            m = [(self.energy - v) / s, -b / s, a / s, 0.0]
        else:
            z, zb = _exp_points(self.model, th)
            c = self.model.c.at(z)
            if np.any(np.abs(c) < _HOPPING_TOL):
                raise SingularHopping("|c| < 1e-12 at a sampled phase")
            ct = self.model.c_tilde.at(zb)
            m = [(self.energy - self.model.v.at(z)) / c, -ct / c, 1.0, 0.0]
        return np.stack(np.broadcast_arrays(*m), -1).reshape(th.shape + (2, 2))


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

    def apply(self, vec) -> tuple:
        """(matrix @ vec, log_scale) without collapsing the factor."""
        return self.matrix @ np.asarray(vec, dtype=complex), self.log_scale


# A 2x2 matrix stack is carried as its four entry arrays (m00, m01, m10,
# m11); np.stack(m, -1).reshape(..., 2, 2) turns them into matrices.

def _entries(mats: np.ndarray) -> tuple:
    """Entry views of a (..., 2, 2) stack."""
    return mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]


def _rescaled_mul(x: tuple, y: tuple) -> tuple:
    """x @ y over its largest entry modulus, and that scale (1 where the
    product is 0)."""
    a, b, c, d = x
    e, f, g, h = y
    m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    scale = np.maximum(np.maximum(abs(m[0]), abs(m[1])),
                       np.maximum(abs(m[2]), abs(m[3])))
    scale = np.where(scale > 0, scale, 1.0)
    return tuple(x / scale for x in m), scale


def _tree_product(m: tuple) -> tuple:
    """Ordered product M[:, -1] ... M[:, 0] of the matrices with (P, B)
    entry arrays m, multiplied pairwise level by level, each pair product
    rescaled by its largest entry modulus.

    Returns the product's (P,) entries and the (P,) log of the scale taken
    out.
    """
    logs = np.zeros(m[0].shape[0])
    while m[0].shape[1] > 1:
        even = m[0].shape[1] // 2 * 2
        pairs, scale = _rescaled_mul([x[:, 1:even:2] for x in m],
                                     [x[:, 0:even:2] for x in m])
        logs += np.sum(np.log(scale), axis=1)
        if even < m[0].shape[1]:
            pairs = [np.concatenate([p, x[:, -1:]], axis=1)
                     for p, x in zip(pairs, m)]
        m = pairs
    return tuple(x[:, 0] for x in m), logs


def _product_logs(co: Cocycle, thetas: np.ndarray, n_iter: int) -> np.ndarray:
    """log ||A_n(theta_i)|| for each phase, via rescaled block products."""
    P = len(thetas)
    run = (np.ones(P), np.zeros(P), np.zeros(P), np.ones(P))
    logs = np.zeros(P)
    alpha = co.model.alpha if co.model is not None else Fraction(0)
    done = 0
    while done < n_iter:
        n = min(_BLOCK, n_iter - done)
        mats = co.matrices(orbit_phases(alpha, thetas, done, n))
        block, blog = _tree_product(_entries(mats))
        run, scale = _rescaled_mul(block, run)
        logs += blog + np.log(scale)
        done += n
    run = np.stack(run, -1).reshape(P, 2, 2)
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
    return [lyapunov(replace(co, epsilon=float(eps)), n_iter, n_phases, seed)
            for eps in eps_list]


def _segment_product(co: Cocycle, theta: float, a: int, b: int,
                     steps) -> ScaledMatrix:
    """Rescaled ordered product of steps(A) over the sites a..b, where
    steps maps the (1, b - a + 1, 2, 2) stack of cocycle matrices."""
    a, b = _integer("a", a), _integer("b", b)
    _finite_phase(theta)
    if b < a:
        return ScaledMatrix(np.eye(2, dtype=complex), 0.0)
    alpha = co.model.alpha if co.model is not None else Fraction(0)
    phases = orbit_phases(alpha, float(theta), a, b - a + 1)
    if co.kind == "transfer":
        cvals = co.model.c.eval(phases)
        bad = np.nonzero(np.abs(cvals) < _HOPPING_TOL)[0]
        if len(bad):
            raise SingularHopping(
                f"hopping vanishes at site {a + int(bad[0])}",
                site=a + int(bad[0]))
    prod, logs = _tree_product(_entries(steps(co.matrices(phases[None, :]))))
    return ScaledMatrix(np.stack(prod, -1).reshape(2, 2), float(logs[0]))


def finite_product(co: Cocycle, theta: float, a: int, b: int) -> ScaledMatrix:
    """Ordered product A(theta + b alpha) ... A(theta + a alpha).

    Empty range (b < a) gives the identity. Hopping zeros on the segment
    raise SingularHopping with the offending site.
    """
    return _segment_product(co, theta, a, b, lambda mats: mats)


def finite_product_inv(co: Cocycle, theta: float, a: int, b: int) -> ScaledMatrix:
    """[A(theta + b alpha) ... A(theta + a alpha)]^{-1} via per-step inverses.

    Inverting the grown product is hopeless once its determinant
    underflows; each step's inverse is well conditioned, so the rescaled
    product of inverses in reversed order is the stable route.
    """
    return _segment_product(co, theta, a, b,
                            lambda mats: np.linalg.inv(mats)[:, ::-1])


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
