"""Analytic functions on the torus as truncated Fourier series.

A symbol holds coefficients for |k| <= K in either the plain basis
e^{2 pi i k theta} or the half-phase basis e^{2 pi i k (theta + alpha/2)}
used for hopping functions. Winding numbers are certified two ways
(argument increments and root counting) and a mismatch is a hard error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    OutsideStrip,
    StripNotCertified,
    ValidationError,
    VanishesOnTorus,
    WindingMismatch,
)

TWO_PI = 2.0 * math.pi
_CIRCLE_TOL = 1e-8


@dataclass(frozen=True)
class TorusSymbol:
    coeffs: np.ndarray            # complex, index j holds mode k = j - K
    half_phase: bool = False
    alpha: float = 0.0
    strip: float = math.inf       # certified analyticity radius in theta units

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or len(c) % 2 == 0:
            raise ValidationError("coeffs must be an odd-length 1-d array")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return (len(self.coeffs) - 1) // 2

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.order, self.order + 1)

    def coeff(self, k: int) -> complex:
        if abs(k) > self.order:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.order])

    def eval(self, theta):
        """Truncated Fourier sum at theta, real or complex, scalar or
        array: one exponential per point, then `at`. The imaginary part
        must stay inside the certified strip.
        """
        th = np.asarray(theta)
        if np.iscomplexobj(th) and self.strip != math.inf:
            if np.any(np.abs(th.imag) > self.strip + 1e-15):
                raise OutsideStrip(
                    f"|Im theta| exceeds certified strip {self.strip:.6g}")
        z = np.exp(2j * np.pi * th)
        out = self.at(z, 1 / z)
        if np.isscalar(theta) or th.ndim == 0:
            return complex(out)
        return out

    def _z_coeffs(self) -> np.ndarray:
        """c_k e^{i pi alpha k}: the coefficient of z^k, z = e^{2 pi i
        theta}, with the half-phase factor folded in."""
        if self.half_phase:
            return self.coeffs * np.exp(1j * math.pi * self.alpha * self.modes)
        return self.coeffs

    def horner(self, z: np.ndarray) -> np.ndarray:
        """P(z) = sum_j d_j z^j, j = 0..2K, by Horner's rule, at
        precomputed points z = e^{2 pi i theta}, theta possibly complex:
        self(theta) = z^-K P(z). d_j = c_(j-K) e^{i pi alpha (j-K)}
        carries the half-phase factor, so one exponential per point
        serves every symbol."""
        d = self._z_coeffs()
        if len(d) == 1:
            return np.full(np.shape(z), d[0])
        out = d[-1] * z + d[-2]
        for c in d[-3::-1]:
            out *= z
            out += c
        return out

    def at(self, z: np.ndarray, zinv: np.ndarray) -> np.ndarray:
        """self(theta) = z^-K P(z) at precomputed points z and zinv = 1/z
        (conj(z) on the real torus): `horner`, then K multiplications by
        zinv in place."""
        out = self.horner(z)
        for _ in range(self.order):
            out *= zinv
        return out

    def on_grid(self, grid: int):
        """Values on the uniform real grid theta_g = g/grid: one inverse
        FFT of the coefficients with each mode folded modulo the grid,
        which is exact at the grid points for any order."""
        folded = np.zeros(grid, dtype=complex)
        np.add.at(folded, self.modes % grid, self._z_coeffs())
        return grid * np.fft.ifft(folded)

    @staticmethod
    def from_grid(values: np.ndarray, k_out: int) -> "TorusSymbol":
        """The plain symbol of modes |k| <= k_out of the function with the
        given values at theta_g = g/grid, the inverse of `on_grid`: mode k
        is the FFT of the values at index k mod grid, divided by grid."""
        spec = np.fft.fft(values) / len(values)
        return TorusSymbol(spec[np.arange(-k_out, k_out + 1) % len(values)])

    def conj_reversal(self) -> "TorusSymbol":
        """The symbol theta -> conj(self(theta)) on the real torus."""
        return TorusSymbol(np.conj(self.coeffs[::-1]), self.half_phase,
                           self.alpha, self.strip)

    def is_real_fourier(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.coeffs.imag)) <= tol)

    def is_self_adjoint(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.coeffs - np.conj(self.coeffs[::-1])))
                    <= tol)

    def to_json(self) -> dict:
        ks = self.modes
        return {
            "half_phase": self.half_phase,
            "alpha": self.alpha,
            "strip": None if self.strip == math.inf else self.strip,
            "coeffs": [[int(k), float(c.real), float(c.imag)]
                       for k, c in zip(ks, self.coeffs)],
        }


def from_dict(d: dict, half_phase: bool = False, alpha: float = 0.0,
              strip: float = math.inf) -> TorusSymbol:
    kmax = max((abs(k) for k in d), default=0)
    coeffs = np.zeros(2 * kmax + 1, dtype=complex)
    for k, v in d.items():
        coeffs[k + kmax] = v
    return TorusSymbol(coeffs, half_phase, alpha, strip)


def constant(value: complex) -> TorusSymbol:
    return TorusSymbol(np.array([value], dtype=complex))


def cosine_potential(amplitude: float = 2.0) -> TorusSymbol:
    """v(theta) = amplitude * cos(2 pi theta), self-adjoint plain symbol."""
    half = amplitude / 2.0
    return from_dict({-1: half, 1: half})


def certify_strip(sym: TorusSymbol, strip: float,
                  budget: float = 1e6) -> TorusSymbol:
    """Attach a declared strip after checking coefficient decay.

    Fits the envelope constant C = max_k |c_k| e^{2 pi strip |k|} and
    rejects declarations whose envelope blows past `budget` times the
    coefficient scale: such a strip is not supported by the decay.
    """
    mags = np.abs(sym.coeffs)
    scale = float(np.max(mags))
    if scale == 0.0:
        return TorusSymbol(sym.coeffs, sym.half_phase, sym.alpha, strip)
    ks = np.abs(sym.modes)
    # coefficients at the double-precision noise floor carry no decay
    # information; exempt them from the envelope fit
    live = mags > 1e-14 * scale
    envelope = mags[live] * np.exp(TWO_PI * strip * ks[live])
    if float(np.max(envelope)) > budget * scale:
        raise StripNotCertified(
            f"declared strip {strip:.4g} inconsistent with coefficient decay")
    return TorusSymbol(sym.coeffs, sym.half_phase, sym.alpha, strip)


# ---------------------------------------------------------------------------
# winding number, dually certified
# ---------------------------------------------------------------------------

def _trimmed_poly(sym: TorusSymbol):
    """Coefficients of the z-polynomial P with s = z^{k_min} P(z), P(0) != 0."""
    c = sym.coeffs
    nz = np.nonzero(np.abs(c) > 0.0)[0]
    if len(nz) == 0:
        raise VanishesOnTorus("zero symbol")
    j0, j1 = nz[0], nz[-1]
    return c[j0:j1 + 1], j0 - sym.order   # ascending powers, k_min


def winding(sym: TorusSymbol, grid: int = 4096) -> int:
    """Degree of theta -> sym(theta) around the origin.

    Computed by summed argument increments on the grid and certified
    against root counting of the associated z-polynomial; disagreement
    raises WindingMismatch.
    """
    if grid < 1024:
        raise ValidationError("grid must be at least 2^10")
    vals = sym.on_grid(grid)
    if float(np.min(np.abs(vals))) <= 1e-8:
        raise VanishesOnTorus("symbol modulus falls below 1e-8 on the grid")
    args = np.angle(np.roll(vals, -1) / vals)
    w_arg = float(np.sum(args)) / TWO_PI
    w_int = int(round(w_arg))
    if abs(w_arg - w_int) > 1e-6:
        raise WindingMismatch(f"argument sum {w_arg} is not near an integer")

    zr = zeros_on_torus(sym)
    if len(zr.on_circle) > 0:
        raise VanishesOnTorus("symbol has a root on the unit circle")
    w_roots = _trimmed_poly(sym)[1] + int(np.sum(np.abs(zr.roots) < 1.0))
    if w_int != w_roots:
        raise WindingMismatch(
            f"argument increments give {w_int}, root counting gives {w_roots}")
    return w_int


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolZeros:
    roots: np.ndarray             # in the z = e^{2 pi i (theta + offset)} plane
    on_circle: np.ndarray         # subset with ||z| - 1| <= tol
    torus_phases: tuple           # theta_j in [0,1) for on-circle roots
    residual: float = 0.0

    def __post_init__(self):
        for name in ("roots", "on_circle"):
            a = np.asarray(getattr(self, name), dtype=complex)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def zeros_on_torus(sym: TorusSymbol) -> SymbolZeros:
    """All roots of the associated z-polynomial; on-circle ones mapped back
    to torus phases. Degenerate leading coefficients are trimmed, reducing
    the degree."""
    poly, _ = _trimmed_poly(sym)
    if len(poly) == 1:
        return SymbolZeros(np.zeros(0, complex), np.zeros(0, complex), ())
    roots = np.roots(poly[::-1])
    roots = roots[np.argsort(np.abs(roots), kind="stable")]
    scale = float(np.max(np.abs(poly)))
    resid = 0.0
    for r in roots:
        val = abs(np.polyval(poly[::-1], r))
        resid = max(resid, val / (scale * max(1.0, abs(r)) ** (len(poly) - 1)))
    mask = np.abs(np.abs(roots) - 1.0) <= _CIRCLE_TOL
    offset = sym.alpha / 2.0 if sym.half_phase else 0.0
    phases = tuple(sorted(
        float((cmath.phase(z) / TWO_PI - offset) % 1.0) for z in roots[mask]))
    return SymbolZeros(roots, roots[mask], phases, resid)


def modulus_strip(sym: TorusSymbol) -> float:
    """Radius in Im theta to which |sym| continues analytically, as
    sqrt(sym sym~): 0.95 of the nearest |log |r|| / 2 pi over the roots r
    of the z-polynomial (sym~ vanishes at their reflections 1/conj(r))."""
    zr = zeros_on_torus(sym)
    if len(zr.on_circle) > 0:
        raise VanishesOnTorus("|symbol| has no analytic continuation: the "
                              "symbol vanishes on the torus")
    depth = np.min(np.abs(np.log(np.abs(zr.roots))), initial=math.inf)
    return 0.95 * float(depth) / TWO_PI


# ---------------------------------------------------------------------------
# modulus projection and twisting
# ---------------------------------------------------------------------------

def modulus_symbol(sym: TorusSymbol, k_out: int, grid: int = 4096,
                   strip: float | None = None) -> TorusSymbol:
    """Fourier projection of theta -> |sym(theta)| onto k_out plain modes.

    The result is the analytic continuation of the modulus, so it can be
    evaluated off the real torus. The symbol must not vanish on the torus.
    If strip is None a radius is certified from the distance of the
    z-plane roots to the unit circle.
    """
    if grid < 4 * k_out + 4:
        grid = int(2 ** math.ceil(math.log2(4 * k_out + 4)))
    radius = modulus_strip(sym)
    vals = np.abs(sym.on_grid(grid))
    if float(np.min(vals)) <= 1e-8:
        raise VanishesOnTorus("cannot project modulus of a vanishing symbol")
    coeffs = TorusSymbol.from_grid(vals, k_out).coeffs
    # modes at the double-precision noise floor get amplified by
    # e^{2 pi eps k} in off-axis evaluation; trim them and certify the
    # strip against the amplified tail of the last genuine mode
    mags = np.abs(coeffs)
    scale = float(np.max(mags))
    live = np.nonzero(mags > 1e-14 * scale)[0]
    k_eff = max(int(np.max(np.abs(live - k_out))), 0) if len(live) else 0
    if k_eff < k_out:
        coeffs = coeffs[k_out - k_eff:k_out + k_eff + 1]
    if strip is None:
        strip = radius
    if strip != math.inf and k_eff > 0:
        tail = float(np.abs(coeffs[0]) + np.abs(coeffs[-1]))
        if tail > 0:
            strip = min(strip,
                        math.log(1e-6 / tail) / (TWO_PI * k_eff))
    out = TorusSymbol(coeffs, False, 0.0, math.inf)
    return certify_strip(out, strip) if strip != math.inf else out


def twist(sym: TorusSymbol, k0: int) -> TorusSymbol:
    """Multiply by e^{-2 pi i k0 (theta + offset)}: an index shift.

    twist(s, winding(s)) has winding zero.
    """
    if k0 == 0:
        return sym
    K = sym.order
    new_K = K + abs(k0)
    coeffs = np.zeros(2 * new_K + 1, dtype=complex)
    for j, c in enumerate(sym.coeffs):
        k = j - K
        coeffs[k - k0 + new_K] = c
    return TorusSymbol(coeffs, sym.half_phase, sym.alpha, sym.strip)


def log_symbol(sym: TorusSymbol, k_out: int, grid: int = 8192) -> TorusSymbol:
    """Plain-basis Fourier expansion of a continuous branch of log(sym).

    Requires winding zero (checked) and no zeros on the torus; the branch
    is fixed by unwrapping the argument along the grid.
    """
    vals = sym.on_grid(grid)
    if float(np.min(np.abs(vals))) <= 1e-8:
        raise VanishesOnTorus("log of a vanishing symbol")
    args = np.unwrap(np.angle(vals))
    total = (args[-1] + np.angle(vals[0] / vals[-1])) - args[0]
    if abs(total) > 1e-6:
        raise ValidationError(
            f"winding {total / TWO_PI:.3f} != 0: no single-valued logarithm")
    return TorusSymbol.from_grid(np.log(np.abs(vals)) + 1j * args, k_out)
