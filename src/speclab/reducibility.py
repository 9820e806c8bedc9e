"""Cohomological equations, conjugation identities, and finite-order
conjugacy fitting for normalized cocycles.

The conjugacy fit works in complexified column coordinates z_j = B_1j +
i B_2j, where conjugation by a rotation acts as scalar phase
multiplication; the least-squares problem then has the rotation gauge as
the usual singular-vector phase instead of a degenerate pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import duality as dua
from . import operators as ops
from .cocycles import Cocycle, JacobiModel
from .diophantine import ContinuedFraction
from .errors import (
    BranchObstruction,
    IllConditioned,
    MeanNotZero,
    SingularOnGrid,
    SmallDivisorBlowup,
    ValidationError,
    VanishesOnTorus,
)
from .symbols import TorusSymbol, log_symbol

TWO_PI = 2.0 * math.pi
# relative size below which a Fourier mode of the sampled cocycle is
# rounding; the conjugacy fit drops the rows that only such modes fill
_MODE_FLOOR = 1e-13


# ---------------------------------------------------------------------------
# cohomological equation g(theta + alpha) - g(theta) = rhs(theta)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologySolution:
    g: TorusSymbol
    rhs: TorusSymbol
    residual_sup: float
    small_divisor_floor: float


def solve_cohomology(rhs: TorusSymbol, alpha: ContinuedFraction | float,
                     k_out: int, grid: int = 8192) -> CohomologySolution:
    """Fourier division g_k = rhs_k / (e^{2 pi i k alpha} - 1), g_0 = 0.

    The right-hand side must have (numerically) zero mean; modes whose
    divisor drives |g_k| past 1e12 abort the solve. The reported residual
    is the sup of |g(.+alpha) - g - rhs| on the grid; with a finite k_out
    it is the honest convergence figure, alongside the smallest divisor
    met.
    """
    af = alpha.value if isinstance(alpha, ContinuedFraction) else float(alpha)
    if abs(rhs.coeff(0)) >= 1e-8:
        raise MeanNotZero(f"rhs mean {rhs.coeff(0):.3e}")
    if rhs.half_phase:
        raise ValidationError("expand the rhs in the plain basis")
    K = min(k_out, rhs.order)
    coeffs = np.zeros(2 * k_out + 1, dtype=complex)
    floor = math.inf
    for k in range(1, K + 1):
        div = cmath.exp(2j * math.pi * k * af) - 1.0
        floor = min(floor, abs(div))
        for s in (k, -k):
            r = rhs.coeff(s)
            if r == 0:
                continue
            gk = r / (cmath.exp(2j * math.pi * s * af) - 1.0)
            if abs(gk) > 1e12:
                raise SmallDivisorBlowup(
                    f"|g_{s}| = {abs(gk):.3e} (divisor {abs(div):.3e})")
            coeffs[s + k_out] = gk
    g = TorusSymbol(coeffs)
    g_next = TorusSymbol(coeffs * np.exp(2j * np.pi * af * g.modes))
    resid = g_next.on_grid(grid) - g.on_grid(grid) - rhs.on_grid(grid)
    return CohomologySolution(g, rhs, float(np.max(np.abs(resid))), floor)


def phase_rhs(sym_s: TorusSymbol, k_out: int, grid: int = 8192) -> TorusSymbol:
    """log s - log(conj-reversal s): the cohomological right-hand side whose
    solution normalizes s to its modulus."""
    ls = log_symbol(sym_s, k_out, grid)
    # conj(s)(theta) on T has log equal to conj(log s) pointwise
    lst = ls.conj_reversal()
    coeffs = ls.coeffs - lst.coeffs
    return TorusSymbol(coeffs)


# ---------------------------------------------------------------------------
# hopping-phase conjugation identity
# ---------------------------------------------------------------------------

def unimodular_phase(model: JacobiModel, grid: int, lift: str = "T") -> np.ndarray:
    """Continuous branch of sqrt(c/conj c) = e^{i arg c} on the grid.

    Odd winding obstructs a single-valued branch on the torus; the caller
    must then request the double-cover lift ("2T").
    """
    xs = np.arange(grid) / grid
    vals = model.c.eval(xs)
    if float(np.min(np.abs(vals))) <= 1e-12:
        raise VanishesOnTorus("hopping vanishes on the grid")
    args = np.unwrap(np.angle(vals))
    total = args[-1] + np.angle(vals[0] / vals[-1]) - args[0]
    w = int(round(total / TWO_PI))
    if w % 2 and lift != "2T":
        raise BranchObstruction(
            f"winding {w} is odd; sqrt branch lives on the double cover")
    return np.exp(1j * args)


def mc_conjugation_check(model: JacobiModel, E: float, grid: int = 2048,
                         lift: str = "T") -> float:
    """sup-norm residual of the phase conjugation between the raw and
    modulus-normalized second-order forms,
    D_c(theta) = M(theta+alpha) D_|c|(theta) M(theta)^{-1},
    with M = diag(1, e^{i arg c(theta - alpha)})."""
    af = model.alpha.value
    xs = np.arange(grid) / grid
    unimodular_phase(model, grid, lift)   # nonvanishing + branch feasibility
    c = model.c.eval(xs)
    ct = model.c_tilde.eval((xs - af) % 1.0)
    vals_m = model.c.eval((xs - af) % 1.0)
    m_theta = vals_m / np.abs(vals_m)     # e^{i arg c(theta - alpha)}
    m_shift = c / np.abs(c)               # m(theta + alpha)
    # M is diagonal with M_00 = 1, so the E - v entry matches exactly and
    # only the two off-diagonal entries of the difference can be nonzero
    r01 = np.abs(vals_m) / m_theta - ct
    r10 = c - m_shift * np.abs(c)
    return float(np.max(np.hypot(np.abs(r01), np.abs(r10))))


# ---------------------------------------------------------------------------
# finite-order conjugacy fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyCandidate:
    z_coeffs: np.ndarray       # (2, 2K+1) complex column coordinates
    rho_target: float
    K_B: int
    residual: float            # sup over grid of ||B(.+a) A - R B||_F
    degree: int
    det_floor: float
    near_singular: bool
    alpha: float

    def __post_init__(self):
        z = np.asarray(self.z_coeffs, dtype=complex)
        z.flags.writeable = False
        object.__setattr__(self, "z_coeffs", z)

    def columns(self, thetas) -> np.ndarray:
        """Complexified columns z_j(theta), shape (2, len(thetas)): one
        exponential per point, z = e^{2 pi i theta}, and z^-K_B P_j(z)
        summed by `TorusSymbol.at`."""
        z = np.exp(2j * np.pi * np.asarray(thetas, dtype=float))
        zinv = np.conj(z)
        return np.stack([TorusSymbol(c).at(z, zinv) for c in self.z_coeffs])

    def matrices(self, thetas) -> np.ndarray:
        """Real matrices B(theta), shape (len(thetas), 2, 2)."""
        z = self.columns(thetas)
        out = np.empty((z.shape[1], 2, 2))
        out[:, 0, 0] = z[0].real
        out[:, 1, 0] = z[0].imag
        out[:, 0, 1] = z[1].real
        out[:, 1, 1] = z[1].imag
        return out

    def to_json(self) -> dict:
        ks = np.arange(-self.K_B, self.K_B + 1)
        return {
            "rho_target": self.rho_target, "K_B": self.K_B,
            "residual": self.residual, "degree": self.degree,
            "det_floor": self.det_floor,
            "B_coeffs": [[int(k),
                          [self.z_coeffs[0, i].real, self.z_coeffs[0, i].imag],
                          [self.z_coeffs[1, i].real, self.z_coeffs[1, i].imag]]
                         for i, k in enumerate(ks)],
        }


def degree(matrices: np.ndarray, min_sv: float = 1e-8) -> int:
    """Winding of the projective angle of the first column over the grid.

    matrices is a stack B(theta_g) on the uniform grid; the result counts
    half-turns, matching the homotopy class R_{(n/2) theta}.
    """
    svals = np.linalg.svd(matrices, compute_uv=False)
    if float(np.min(svals[:, -1])) <= min_sv:
        raise SingularOnGrid("matrix function nearly singular on the grid")
    col = matrices[:, :, 0]
    ang = np.arctan2(col[:, 1], col[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    # projective increments: fold modulo pi into (-pi/2, pi/2]
    d = np.mod(d + math.pi / 2, math.pi) - math.pi / 2
    total = float(np.sum(d))
    n = int(round(total / math.pi))
    if abs(total / math.pi - n) > 1e-6:
        raise SingularOnGrid(f"projective winding {total / math.pi:.4f} "
                             "is not near an integer")
    return n


def fit_conjugacy(co: Cocycle, rho_target: float, K_B: int,
                  grid: int = 1024, regularization: float = 0.0,
                  alpha: float | None = None) -> ConjugacyCandidate:
    """Least-squares conjugacy B(.+alpha) A(.) = R_rho B(.) with ||B||_L2=1.

    Solves the smallest-singular-vector problem in complexified column
    coordinates; the rotation gauge is fixed by making the constant
    Fourier coefficient of the first column real nonnegative. Raises
    IllConditioned when the two smallest singular values coincide to 1e-8
    (genuinely nonunique fit). Custom cocycles without a model must pass
    the frequency explicitly. The grid must have at least 2 K_B + 1
    points, else distinct modes of B alias on it (ValidationError).

    The system is the grid residual of each column of B(.+alpha) A - R B
    at the `grid` points, taken to Fourier space by the unitary DFT: with
    A^ = fft(A) / grid, row m of block (l, j) is
    sqrt(grid) (A^_jl(m - k) e^{2 pi i k alpha} - [j = l] e^{2 pi i rho}
    [m = k]) over the unknowns z_j(k), |k| <= K_B. A unitary change of
    rows leaves the singular values and right vectors as they are. Only
    the rows |m| <= K_B + W are kept, W the largest |n| with
    max_jl |A^_jl(n)| above `_MODE_FLOOR` max |A^|: every dropped row
    holds only modes of A at its rounding floor. When those rows would
    cover the grid, all of them are kept.
    """
    if K_B < 0 or grid < 2 * K_B + 1:
        raise ValidationError(f"need K_B >= 0 and grid >= 2 K_B + 1, got "
                              f"K_B = {K_B}, grid = {grid}")
    if co.kind != "normalized" and co.entries is None:
        raise ValidationError("fit needs a normalized or custom cocycle")
    if alpha is not None:
        af = float(alpha)
    elif co.model is not None:
        af = co.model.alpha.value
    else:
        raise ValidationError("custom cocycle fits need an explicit alpha")
    xs = np.arange(grid) / grid
    A = co.matrices(xs).real         # real SL(2, R) on the real torus
    A_hat = np.fft.fft(A, axis=0) / grid
    peak = np.max(np.abs(A_hat), axis=(1, 2))
    modes = np.fft.fftfreq(grid, 1.0 / grid)
    W = int(np.max(np.abs(modes[peak > _MODE_FLOOR * peak.max()]),
                   initial=0))
    ks = np.arange(-K_B, K_B + 1)
    nb = len(ks)
    half = K_B + W
    ms = np.arange(-half, half + 1) if 2 * half + 1 < grid else \
        np.arange(grid)
    lag = (ms[:, None] - ks[None, :]) % grid
    # rows (l, m), unknowns (j, k)
    M = A_hat[lag].transpose(3, 0, 2, 1) * np.exp(2j * np.pi * af * ks)
    for l in range(2):
        M[l, :, l] -= cmath.exp(2j * math.pi * rho_target) * (lag == 0)
    M = math.sqrt(grid) * M.reshape(2 * len(ms), 2 * nb)
    if regularization > 0:
        penal = regularization * np.abs(np.concatenate([ks, ks]))
        M = np.vstack([M, np.diag(penal)])
    _, svals, Vh = np.linalg.svd(M, full_matrices=False)
    if len(svals) > 1 and svals[-2] - svals[-1] < 1e-8:
        raise IllConditioned(
            f"smallest singular values {svals[-1]:.3e}, {svals[-2]:.3e}")
    vec = Vh[-1].conj()
    z = vec.reshape(2, nb)
    # gauge: constant coefficient of the first column real nonnegative
    pivot = z[0, K_B]
    if abs(pivot) < 1e-12:
        pivot = z[1, K_B]
    if abs(pivot) > 0:
        z = z * (abs(pivot) / pivot)
    z = z / math.sqrt(float(np.sum(np.abs(z) ** 2)))   # ||B||_L2 = 1

    cand = ConjugacyCandidate(z, rho_target, K_B, 0.0, 0, 0.0, False, af)
    B = cand.matrices(xs)
    B_next = cand.matrices((xs + af) % 1.0)
    R = np.array([[math.cos(TWO_PI * rho_target), -math.sin(TWO_PI * rho_target)],
                  [math.sin(TWO_PI * rho_target), math.cos(TWO_PI * rho_target)]])
    resid = np.matmul(B_next, A) - np.matmul(R[None], B)
    residual = float(np.max(np.linalg.norm(resid, axis=(1, 2))))
    dets = np.abs(np.linalg.det(B))
    det_floor = float(np.min(dets))
    near_singular = bool(residual < 1e-3 and det_floor < 1e-6)
    try:
        deg = degree(B)
    except SingularOnGrid:
        deg = 0
        near_singular = True
    return ConjugacyCandidate(z, rho_target, K_B, residual, deg, det_floor,
                              near_singular, af)


# ---------------------------------------------------------------------------
# dual eigenvector candidates from a conjugacy
# ---------------------------------------------------------------------------

_EIGENVECTOR_GRID = 2048
_P_SPLIT = np.array([[1.0, 1.0], [-1j, 1j]]) / math.sqrt(2.0)


def dual_eigenvector_from_conjugacy(cand: ConjugacyCandidate, co: Cocycle,
                                    which_row: int = 1) -> tuple:
    """Fourier coefficients of a combined-conjugacy entry as a dual
    eigenvector candidate, plus its eigen-equation residual.

    Builds D(theta) = M_s(theta) (B(theta)^{-1} P) e^{-g(theta)/2}
    / sqrt(|s|(theta - alpha)) on the grid, extracts first-row entry
    `which_row` (1 or 2), and returns ({u_k}, residual of the dual
    operator at phase +rho (entry 1) or -rho (entry 2) on a truncation).
    """
    if cand.residual >= 1e-3:
        raise ValidationError(
            f"conjugacy residual {cand.residual:.2e} too large (need < 1e-3)")
    if which_row not in (1, 2):
        raise ValidationError("which_row must be 1 or 2")
    model = co.model
    s = model.c
    af = model.alpha.value
    xs = np.arange(_EIGENVECTOR_GRID) / _EIGENVECTOR_GRID

    k_cohom = max(48, 2 * cand.K_B)
    rhs = phase_rhs(s, k_cohom, _EIGENVECTOR_GRID)
    sol = solve_cohomology(rhs, model.alpha, k_cohom, _EIGENVECTOR_GRID)
    g_vals = sol.g.on_grid(_EIGENVECTOR_GRID)

    # M_s(theta) = diag(1, e^{i arg s(theta - alpha)})
    sm = s.eval((xs - af) % 1.0)
    s_prev = np.abs(sm)
    M_diag = sm / s_prev

    B = cand.matrices(xs)
    Binv = np.linalg.inv(B)
    D = np.einsum("gij,jk->gik", Binv.astype(complex), _P_SPLIT)
    D[:, 1, :] *= M_diag[:, None]
    D *= (np.exp(-0.5 * g_vals) / np.sqrt(s_prev))[:, None, None]

    entry = D[:, 0, which_row - 1]
    trunc = cand.K_B + s.order + 24
    u = TorusSymbol.from_grid(entry, trunc).coeffs
    u = u / np.linalg.norm(u)

    dual = dua.dualize(model)
    x_phase = cand.rho_target if which_row == 1 else -cand.rho_target
    width = trunc + 8
    H = ops.build(dual, x_phase % 1.0, width).dense()
    uu = np.zeros(2 * width + 1, dtype=complex)
    uu[width - trunc:width + trunc + 1] = u
    E = co.energy
    resid = float(np.linalg.norm(H @ uu - E * uu))
    return u, resid
