"""Transfer-matrix and normalized cocycles over an irrational rotation.

Products read the cocycle along orbits in blocks. The points
z_k = e^{2 pi i theta_k} of a block cost one complex exponential per
256-step anchor (`_ANCHOR`), times a cached table of e^{2 pi i (j p mod q)/q}
built in integers from the proxy p/q, so the orbit is the proxy's exact
orbit up to rounding (~1e-15) at every k. Every symbol is read there as
z^-K P(z) (`TorusSymbol.at`). |c| is evaluated once per point: b = |c|(theta
- alpha) is a of the point before, and the transfer kind's c~ is read
shifted by one the same way. A grid that is not an orbit
(`Cocycle.matrices`) runs the same step kernel with the point before
taken as z e^{-2 pi i alpha}. Each block is reduced by pairwise
multiplication on the four entry arrays. The read bounds the row-sum
norm of every step and of its inverse by G, from the hopping moduli, so
a product of floor(ln 1e300 / ln G) steps stays within 1e+-300; the
levels below that span are not rescaled, and every level above it is
(the custom kind has no bound and rescales at every level). Against alpha
the proxy itself is off by k |alpha - p/q|, about 1.6e-9 at k = 1e8 for
golden depth 40. That error stays in the numerical orbit: the
singular-orbit decision (`diophantine.check_theta`) works on alpha's
exact enclosure.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .diophantine import ContinuedFraction
from .errors import (ContractViolation, OutsideStrip, SingularHopping,
                     ValidationError)
from .symbols import TWO_PI, TorusSymbol, modulus_strip

_BLOCK = 4096               # steps per block product
_ANCHOR = 256               # steps between exact orbit re-anchors
_HOPPING_TOL = 1e-12
# rotation sweep: steps per segment, and the cap on both the steps of a
# chunk (segments x _SEGMENT) and the cells of a pass (segments x energies)
_SEGMENT = 64
_CELLS = 1 << 14
# log of the range 1e+-300 that the segment products are kept in
_LOG_RANGE = math.log(1e300)


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


@functools.lru_cache(maxsize=16)
def _offsets(p: int, q: int) -> tuple:
    """(j p mod q) / q for j < _ANCHOR, each correctly rounded, and
    e^{2 pi i} of them: the exact orbit of the proxy p/q between anchors."""
    frac = np.array([j * p % q / q for j in range(_ANCHOR)])
    table = np.exp(2j * np.pi * frac)
    frac.flags.writeable = table.flags.writeable = False
    return frac, table


def _anchored(alpha: ContinuedFraction | Fraction, k0: int,
              count: int) -> tuple:
    """The anchors (k p mod q) / q for k = k0, k0 + _ANCHOR, ... below
    k0 + count, and the offset tables of the proxy p/q."""
    proxy = alpha.proxy if isinstance(alpha, ContinuedFraction) else alpha
    p, q = proxy.numerator, proxy.denominator
    # int / int is correctly rounded, as float(Fraction) is
    anchors = np.array([k * p % q / q
                        for k in range(k0, k0 + count, _ANCHOR)])
    return (anchors, *_offsets(p, q))


def orbit_phases(alpha: ContinuedFraction | Fraction, theta0, k0: int,
                 count: int) -> np.ndarray:
    """theta0 + k*alpha mod 1 for k = k0..k0+count-1, re-anchored exactly.

    theta0 may be a scalar or a vector of phases. Every phase is an exact
    anchor (k0 + d) p/q mod 1, d a multiple of _ANCHOR, plus an exact
    offset j p/q mod 1, both correctly rounded, reduced mod 1 once: the
    drift from the proxy's orbit stays at rounding level, ~1e-15, at
    every k; the proxy's own error is in the module docstring.
    """
    anchors, frac, _ = _anchored(alpha, int(k0), count)
    th = np.atleast_1d(np.asarray(theta0, dtype=float))
    steps = (anchors[:, None] + frac).ravel()[:count]
    out = (th[:, None] + steps) % 1.0
    if np.isscalar(theta0):
        return out[0]
    return out


def _orbit_points(alpha: ContinuedFraction | Fraction, thetas: np.ndarray,
                  k0: int, count: int, eps: float = 0.0) -> tuple:
    """(z, 1/z) with z = e^{2 pi i (theta_i + k alpha + i eps)} for
    k = k0..k0+count-1, each (P, count): one exponential per phase and
    anchor, times the cached offset table."""
    anchors, _, table = _anchored(alpha, k0, count)
    za = np.exp(2j * np.pi * ((thetas[:, None] + anchors) % 1.0))
    if eps:
        za *= math.exp(-TWO_PI * eps)
    z = (za[:, :, None] * table).reshape(len(thetas), -1)[:, :count]
    zinv = np.conj(z)                   # 1/z = conj(z) / e^{-4 pi eps}
    if eps:
        zinv *= math.exp(2 * TWO_PI * eps)
    return z, zinv


def _grid_points(model: JacobiModel, th: np.ndarray) -> tuple:
    """(z, 1/z) at the pairs (th - alpha, th) along a new last axis: a
    grid read as orbits of length 2, b from th - alpha."""
    z = np.exp(2j * np.pi * th)
    z = np.stack([z * cmath.exp(-1j * TWO_PI * model.alpha.value), z], -1)
    return z, 1 / z


def _check_hopping(x: np.ndarray, k0: int | None = None) -> tuple:
    """SingularHopping where |x| < 1e-12; the first such site (column
    k0 + j of an orbit read) when k0 is given. Returns (min |x|, max |x|)."""
    mod = np.abs(x)
    lo, hi = float(np.min(mod)), float(np.max(mod))
    if not lo < _HOPPING_TOL:
        return lo, hi
    if k0 is None:
        raise SingularHopping("|c| < 1e-12 at a sampled phase")
    bad = mod < _HOPPING_TOL
    site = k0 + int(np.argmax(bad.reshape(-1, bad.shape[-1]).any(axis=0)))
    raise SingularHopping(f"hopping vanishes at site {site}", site=site)


def _rescale_every(growth: float) -> int:
    """The most steps whose raw product keeps its largest entry within
    1e+-300, when G = growth bounds the row-sum norm of every step and of
    its inverse: the largest entry of a product P of n steps is at most
    ||P|| <= G^n and at least ||P|| / 2 >= 1 / (2 ||P^-1||) >= G^-n / 2,
    and G^every <= 1e300. At least 1; 1 for an infinite or undefined
    bound; a bound below 2 counts as 2 (every = 996)."""
    if not growth < math.inf:
        return 1
    return max(1, int(_LOG_RANGE / math.log(max(growth, 2.0))))


def _principal_sqrt(w: np.ndarray) -> np.ndarray:
    """The principal square root where Re w >= -|Im w|, from real roots:
    np.sqrt of a complex array costs about four times as much."""
    t = np.sqrt(0.5 * (np.abs(w) + w.real))
    out = np.zeros_like(w)
    out.real = t
    np.divide(w.imag, 2 * t, out=out.imag, where=t > 0)
    return out


def _step_kernel(model: JacobiModel, z: np.ndarray, zinv: np.ndarray,
                 torus: bool) -> tuple:
    """(a, b, v, s, (lo, hi)) of the normalized step
    [[(E - v)/s, -b/s], [a/s, 0]] at the points z[..., 1:], with a = |c|
    there, b = |c| at the point before (z[..., :-1]), s = sqrt(ab), and
    lo, hi the least and largest modulus of |c| over all the points: |c|
    is evaluated once per point and b is a shifted by one.

    On the real torus (torus=True) a and b are exact moduli and all four
    are real; |c| = |P(z)| drops the unimodular factor z^-K. Off it a and
    b are sqrt(c c~), the analytic continuation of |c| (c~ the conjugate
    reversal).
    """
    c = model.c
    v = model.v.at(z[..., 1:], zinv[..., 1:])
    if torus:
        mod = np.abs(c.horner(z))
        v = v.real                      # self-adjoint => real on T
    else:
        cc = c.at(z, zinv) * model.c_tilde.at(z, zinv)
        # the principal root, refused where |arg(c c~)| > 3 pi / 4
        if np.any(cc.real < -np.abs(cc.imag)):
            raise OutsideStrip("arg(c c~) passes 3 pi / 4: the principal "
                               "root may leave the continuation of |c|")
        mod = _principal_sqrt(cc)
    # |c| >= 1e-12 at every point, so s >= 1e-12 too; a test on s alone
    # would pass a zero of c next to a large |c|
    hop = _check_hopping(mod)
    a, b = mod[..., 1:], mod[..., :-1]
    s = np.sqrt(a * b) if torus else _principal_sqrt(a * b)
    return a, b, v, s, hop


def _normalized_step(model: JacobiModel, th: np.ndarray) -> tuple:
    """`_step_kernel` at the phases th, possibly complex, b from
    th - alpha: the grid read."""
    z, zinv = _grid_points(model, th)
    return tuple(x[..., 0] for x in
                 _step_kernel(model, z, zinv, not np.iscomplexobj(th))[:4])


def _orbit_step(model: JacobiModel, thetas: np.ndarray, k0: int, count: int,
                eps: float = 0.0) -> tuple:
    """`_step_kernel` along the orbits theta_i + k alpha + i eps,
    k = k0..k0+count-1, each (P, count): the orbit read, from the points
    k0 - 1 onwards."""
    z, zinv = _orbit_points(model.alpha, thetas, k0 - 1, count + 1, eps)
    return _step_kernel(model, z, zinv, not eps)


def _normalized_entries(energy: complex, a, b, v, s) -> tuple:
    """The four entries of [[(E - v)/s, -b/s], [a/s, 0]]."""
    r = 1.0 / s
    return (energy - v) * r, -b * r, a * r, np.broadcast_to(0.0, np.shape(s))


def _transfer_entries(model: JacobiModel, energy: complex, z: np.ndarray,
                      zinv: np.ndarray, k0: int | None = None,
                      inverse: bool = False) -> tuple:
    """Entries of the transfer step [[(E - v)/c, -c~/c], [1, 0]] at the
    points z[..., 1:], with c~ at the point before: on an orbit c~ is
    read shifted by one. A zero of c names its site when k0 is given;
    with inverse=True so does a zero of c~, which makes the step
    singular. Returns the entries and the bound G of `orbit_entries`."""
    c = model.c.at(z[..., 1:], zinv[..., 1:])
    c_lo, c_hi = _check_hopping(c, k0)
    ct = model.c_tilde.at(z[..., :-1], zinv[..., :-1])
    if inverse:
        ct_lo, ct_hi = _check_hopping(ct, k0 - 1)
    else:
        mod = np.abs(ct)
        ct_lo, ct_hi = float(np.min(mod)), float(np.max(mod))
    v = model.v.at(z[..., 1:], zinv[..., 1:])
    r = 1.0 / c
    # the rows of the step, (|E - v| + |c~|)/|c| and 1, and of its inverse
    # [[0, 1], [-c/c~, (E - v)/c~]], 1 and (|c| + |E - v|)/|c~|
    growth = max(1.0, (abs(energy) + float(np.max(np.abs(v)))
                       + max(c_hi, ct_hi)) / min(c_lo, ct_lo))
    return ((energy - v) * r, -ct * r, np.broadcast_to(1.0, c.shape),
            np.broadcast_to(0.0, c.shape)), growth


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
        real for the normalized kind on the real torus. The grid read: b
        and c~ come from theta - alpha."""
        th = np.asarray(thetas, dtype=complex if self.epsilon else float)
        if self.epsilon:
            th = th + 1j * self.epsilon
        if self.kind == "custom":
            m = [s.eval(th) for row in self.entries for s in row]
        elif self.kind == "normalized":
            m = _normalized_entries(self.energy,
                                    *_normalized_step(self.model, th))
        else:
            m = [x[..., 0] for x in _transfer_entries(
                self.model, self.energy, *_grid_points(self.model, th))[0]]
        return np.stack(np.broadcast_arrays(*m), -1).reshape(th.shape + (2, 2))

    def orbit_entries(self, thetas: np.ndarray, k0: int, count: int,
                      inverse: bool = False) -> tuple:
        """((m00, m01, m10, m11), G): the four entry arrays, each
        (P, count), of the cocycle along theta_i + k alpha,
        k = k0..k0+count-1, and a bound G >= 1 on the row-sum norm of every
        one of those steps and of its inverse: the orbit read of every
        product. inverse=True also refuses a step that is not invertible
        (the transfer kind's c~ at site k0 - 1). The custom kind reads
        `matrices` at `orbit_phases` and has no bound (G = inf)."""
        if self.kind == "custom":
            alpha = self.model.alpha if self.model is not None else Fraction(0)
            return _entries(self.matrices(
                orbit_phases(alpha, thetas, k0, count))), math.inf
        if self.kind == "normalized":
            a, b, v, s, (lo, hi) = _orbit_step(self.model, thetas, k0, count,
                                               self.epsilon)
            # |a|, |b| <= hi and |s| = sqrt(|ab|) >= lo bound the rows of
            # the step, (|E - v| + |b|)/|s| and |a|/|s|, and of its inverse
            # [[0, b/s], [-a/s, (E - v)/s]], |b|/|s| and (|a| + |E - v|)/|s|
            growth = (abs(self.energy) + float(np.max(np.abs(v))) + hi) / lo
            return _normalized_entries(self.energy, a, b, v, s), growth
        z, zinv = _orbit_points(self.model.alpha, thetas, k0 - 1, count + 1,
                                self.epsilon)
        return _transfer_entries(self.model, self.energy, z, zinv, k0,
                                 inverse)


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


def _mul(x: tuple, y: tuple) -> tuple:
    """x @ y on entry arrays."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _rescaled(m: tuple) -> tuple:
    """m over its largest entry modulus, and that scale (1 where m is 0)."""
    scale = np.maximum(np.maximum(abs(m[0]), abs(m[1])),
                       np.maximum(abs(m[2]), abs(m[3])))
    scale = np.where(scale > 0, scale, 1.0)
    return tuple(x / scale for x in m), scale


def _tree_product(m: tuple, growth: float = math.inf) -> tuple:
    """Ordered product M[:, -1] ... M[:, 0] of the matrices with (P, B)
    entry arrays m, multiplied pairwise level by level.

    With G = growth bounding the row-sum norm of every step and of its
    inverse, a product of every = `_rescale_every(G)` steps stays within
    1e+-300, so the factors of a level are divided by their largest entry
    modulus only where its products span more than `every` steps: the
    levels below multiply raw products of at most `every` steps, and from
    the first rescaled level on every factor has entries at most 1. No
    bound (G = inf) gives every = 1, which rescales every level, the
    single steps included.

    Returns the product's (P,) entries over their largest modulus and the
    (P,) log of the scale taken out.
    """
    every = _rescale_every(growth)
    logs = np.zeros(m[0].shape[0])
    span = 1                            # steps per factor, at most
    while m[0].shape[1] > 1:
        span *= 2
        if span > every:
            m, scale = _rescaled(m)
            logs += np.sum(np.log(scale), axis=1)
        even = m[0].shape[1] // 2 * 2
        pairs = _mul([x[:, 1:even:2] for x in m], [x[:, 0:even:2] for x in m])
        if even < m[0].shape[1]:
            pairs = [np.concatenate([p, x[:, -1:]], axis=1)
                     for p, x in zip(pairs, m)]
        m = pairs
    m, scale = _rescaled(tuple(x[:, 0] for x in m))
    return m, logs + np.log(scale)


def _product_logs(co: Cocycle, thetas: np.ndarray, n_iter: int) -> np.ndarray:
    """log ||A_n(theta_i)|| for each phase, via rescaled block products."""
    P = len(thetas)
    run = (np.ones(P), np.zeros(P), np.zeros(P), np.ones(P))
    logs = np.zeros(P)
    done = 0
    while done < n_iter:
        n = min(_BLOCK, n_iter - done)
        # no name holds the block's steps once its product is taken, so
        # they are freed before the next block is read
        block, blog = _tree_product(*co.orbit_entries(thetas, done, n))
        run, scale = _rescaled(_mul(block, run))
        logs += blog + np.log(scale)
        done += n
    run = np.stack(run, -1).reshape(P, 2, 2)
    bad = ~(np.isfinite(logs) & np.isfinite(run).all(axis=(1, 2))
            & run.any(axis=(1, 2)))     # a zero product: log-norm -inf
    if bad.any():
        raise ContractViolation("the product's log-norm is not finite at "
                                f"theta = {thetas[np.argmax(bad)]:.17g}")
    return logs + np.log(np.linalg.norm(run, ord=2, axis=(1, 2)))


def lyapunov(co: Cocycle, n_iter: int, n_phases: int = 8,
             seed: int = 0) -> CocycleEstimate:
    """Monte-Carlo estimate of the top Lyapunov exponent in nats.

    Averages (1/n) log ||A_n(theta_i)|| over n_phases random phases with
    bound-scheduled rescaling of the block products (`_tree_product`);
    deterministic given the seed.
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


def _inverse_steps(m: tuple, a: int) -> tuple:
    """Entry arrays of the inverses [[t, -q], [-r, p]] / det of the (1, B)
    steps [[p, q], [r, t]] at the sites a, a + 1, ..., in reversed order.
    ValidationError names the first site whose determinant is 0."""
    p, q, r, t = np.broadcast_arrays(*m)
    det = p * t - q * r
    if np.any(det == 0):
        site = a + int(np.argmax(det[0] == 0))
        raise ValidationError(f"singular step at site {site}")
    inv = 1.0 / det
    return tuple(x[:, ::-1] for x in (t * inv, -q * inv, -r * inv, p * inv))


def _segment_product(co: Cocycle, theta: float, a: int, b: int,
                     inverse: bool) -> ScaledMatrix:
    """Rescaled ordered product of the steps over the sites a..b, or of
    their inverses in reversed order."""
    a, b = _integer("a", a), _integer("b", b)
    _finite_phase(theta)
    if b < a:
        return ScaledMatrix(np.eye(2, dtype=complex), 0.0)
    m, growth = co.orbit_entries(np.array([float(theta)]), a, b - a + 1,
                                 inverse)
    if inverse:
        m = _inverse_steps(m, a)
    prod, logs = _tree_product(m, growth)
    return ScaledMatrix(np.stack(prod, -1).reshape(2, 2), float(logs[0]))


def finite_product(co: Cocycle, theta: float, a: int, b: int) -> ScaledMatrix:
    """Ordered product A(theta + b alpha) ... A(theta + a alpha).

    Empty range (b < a) gives the identity. Hopping zeros on the segment
    raise SingularHopping with the offending site.
    """
    return _segment_product(co, theta, a, b, inverse=False)


def finite_product_inv(co: Cocycle, theta: float, a: int, b: int) -> ScaledMatrix:
    """[A(theta + b alpha) ... A(theta + a alpha)]^{-1} via per-step inverses.

    Inverting the grown product is hopeless once its determinant
    underflows; each step's inverse is well conditioned, so the rescaled
    product of inverses in reversed order is the stable route. A step
    that is not invertible raises: SingularHopping with the site where c
    or (transfer kind) c~ vanishes, ValidationError for a custom step
    with determinant 0.
    """
    return _segment_product(co, theta, a, b, inverse=True)


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

    Tracks the lifted angle of a marked vector w, starting at e1, through
    the ratio r = w0/w1: a step maps it to ((E - v) - b/r)/a, and the
    Birkhoff average of the angle in turns is the rotation number. The
    step carries the first entry into the second by the positive factor
    a/s, so on the branch continuous through the quarter-turn rotation
    (increments in (-1/4, 3/4] turns) the angle gains a half-turn exactly
    when the first entry changes sign, that is where the new r is
    negative: the Sturm node count. atan(1/r) is the angle less that
    count of half-turns, so steps 1..n gain
    count/2 + (atan(1/r_n) - atan(1/r_0)) / 2 pi turns.

    The orbit is built chunk by chunk, and each chunk is cut into S
    segments of m steps, swept in three passes vectorised over
    (segments x energies):

    1. propagate the two basis columns through every segment at once,
       rescaled by the largest entry as often as a bound on the step
       entries demands: the segment products;
    2. stitch the products in order, which gives each segment its true
       incoming unit vector; the last one carries over to the next chunk;
    3. carry r through each segment from those vectors and count its
       negative values; the segment terms are added exactly (`math.fsum`).

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
    E = E.astype(float) + 0.0           # -0.0 -> +0.0, so r is never -0.0
    segments = max(1, _CELLS // max(len(E), _SEGMENT))
    w = (np.ones(len(E)), np.zeros(len(E)))
    total = [0.0] * len(E)
    done = 0
    while done < n_iter:
        n = min(segments * _SEGMENT, n_iter - done)
        step = [x[0] for x in
                _orbit_step(model, np.array([float(theta0)]), done, n)[:3]]
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

    step holds a, b, v of the normalized step as (m, S) arrays, column j
    the steps of segment j; w is the unit vector entering segment 0.
    Returns the unit vector leaving the last segment and the (2S, nE)
    terms whose exact sum is the chunk's angle total per energy.
    """
    a, b, v = step
    m, S = v.shape
    Ek = E[None, :]
    # pass 1: segment products; c0[i] and c1[i] are the first and second
    # entries of the image of e_(i+1). The steps are taken as
    # s M = [[E - v, -b], [a, 0]], which moves no direction. A step changes
    # the largest entry by a factor within [1/G, G], G = (|E - v| + a + b)
    # max(1, 1/ab) bounding the row sums of s M and of its inverse, so
    # rescaling once in `every` steps keeps every entry within 1e+-300.
    every = _rescale_every(float(np.max(
        (np.max(np.abs(E)) + np.abs(v) + a + b)
        * np.maximum(1.0, 1.0 / (a * b)))))
    c0 = np.zeros((2, S, len(E)))
    c1 = np.zeros((2, S, len(E)))
    c0[0] = c1[1] = 1.0
    for k in range(m):
        c0, c1 = (Ek - v[k, :, None]) * c0 - b[k, :, None] * c1, \
            a[k, :, None] * c0
        if (k + 1) % every == 0:
            scale = np.maximum(np.abs(c0).max(axis=0),
                               np.abs(c1).max(axis=0))
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
    # pass 3: the ratio r = w0/w1 through each segment, counting r < 0.
    # Signed zeros and infinities keep the count exact on the axes: an
    # incoming r = +-0 sits at atan(1/r) = +-pi/2 and steps to r = -+inf,
    # counted as the half-turn from +pi/2 and not from -pi/2. A step's r
    # is never -0, since E is not -0 and x - x = +0.
    with np.errstate(divide="ignore"):
        r = w0 / w1
        start = np.arctan(1.0 / r)
        count = np.zeros((S, len(E)))
        t = np.empty((S, len(E)))
        for k in range(m):
            np.divide(b[k, :, None], r, out=t)
            np.subtract(Ek - v[k, :, None], t, out=r)
            r /= a[k, :, None]
            count += r < 0
        end = np.arctan(1.0 / r)
    return (u0, u1), np.concatenate([0.5 * count, (end - start) / TWO_PI])
