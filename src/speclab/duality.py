"""Aubry duality: the long-range dual operator family, the lattice-torus
exchange transforms on grid fields, and spectra/IDS duality checks.

The dual lattice matrix element at (m, m - m') is d_{m'}(x + m alpha),
the unique Hermitian, lattice-covariant completion of the coefficient
family; for three-diagonal hopping it reproduces the coupling-scaled dual
model entrywise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .cocycles import JacobiModel, orbit_phases
from .diophantine import ContinuedFraction
from .errors import AliasingBudgetExceeded, ValidationError
from .symbols import TorusSymbol, from_dict


@dataclass(frozen=True)
class DualModel:
    """Dual family: coefficient symbols d_{m'} (plain basis, in x) indexed
    by the hopping offset m', plus the shared frequency."""

    d_symbols: dict
    alpha: ContinuedFraction
    bandwidth: int

    def d(self, mp: int) -> TorusSymbol:
        return self.d_symbols[mp]

    def lattice_bands(self, x: float, sites: np.ndarray) -> dict:
        """Band m' -> entries H[m, m+m'] = d_{-m'}(x + m alpha)."""
        phases = orbit_phases(self.alpha, x, int(sites[0]), len(sites))
        out = {}
        for mp in range(self.bandwidth + 1):
            if mp == 0:
                d0 = self.d_symbols.get(0)
                out[0] = d0.eval(phases).real if d0 is not None else \
                    np.zeros(len(sites))
            elif -mp in self.d_symbols:
                out[mp] = self.d_symbols[-mp].eval(phases[:len(sites) - mp])
        return out

    def sup_bound(self) -> float:
        return float(sum(np.sum(np.abs(s.coeffs)) for s in
                         self.d_symbols.values()))


def dualize(model: JacobiModel) -> DualModel:
    """Build the dual coefficient family from the hopping and potential.

    d_{m'}(x) = c_{m'} e^{2 pi i (x - m' a/2)} + v_{-m'}
              + c_{-m'} e^{-2 pi i (x - m' a/2)},
    stored as plain-basis symbols with the phase offsets folded into the
    coefficients.
    """
    af = model.alpha.value
    bw = max(model.c.order, model.v.order)
    syms = {}
    for mp in range(-bw, bw + 1):
        shift = np.exp(-1j * math.pi * mp * af)
        coeffs = {
            1: model.c.coeff(mp) * shift,
            0: model.v.coeff(-mp),
            -1: model.c.coeff(-mp) / shift,
        }
        if any(abs(c) > 0 for c in coeffs.values()):
            syms[mp] = from_dict(coeffs)
    bw_eff = max((abs(mp) for mp in syms), default=0)
    return DualModel(syms, model.alpha, bw_eff)


# ---------------------------------------------------------------------------
# grid fields and the exchange transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridField:
    """Samples psi(x_g, n) on a G-point x grid and lattice window [-N, N];
    values has shape (2N+1, G) with row r holding site n = r - N."""

    values: np.ndarray
    alpha: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2 or v.shape[0] % 2 == 0:
            raise ValidationError("values must be (2N+1, G)")
        if v.shape[1] & (v.shape[1] - 1):
            raise ValidationError("G must be a power of two")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def N(self) -> int:
        return (self.values.shape[0] - 1) // 2

    @property
    def G(self) -> int:
        return self.values.shape[1]

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) / self.G))


def _x_spectrum(field: GridField) -> np.ndarray:
    return np.fft.ifft(field.values, axis=1)   # coefficient of e^{2pi i nu x}


def _check_aliasing(field: GridField) -> None:
    spec = _x_spectrum(field)
    G, N = field.G, field.N
    freqs = np.fft.fftfreq(G, d=1.0 / G).astype(int)
    top = np.abs(freqs) >= math.ceil(0.45 * G)
    bad = float(np.sum(np.abs(spec[:, top]) ** 2))
    total = float(np.sum(np.abs(spec) ** 2))
    if total > 0 and bad > 1e-12 * total:
        raise AliasingBudgetExceeded(
            f"{bad / total:.2e} of the field energy sits in the top 10% "
            "of x-frequencies")
    if 2 * N + 1 > G:
        # lattice sites |n| >= G/2 collide in the frequency mapping
        sites = np.arange(-N, N + 1)
        clash = np.abs(sites) >= math.ceil(0.45 * G)
        bad_l = float(np.sum(np.abs(field.values[clash]) ** 2))
        if total > 0 and bad_l > 1e-12 * total:
            raise AliasingBudgetExceeded(
                "lattice support reaches sites that alias on the x grid")


def _exchange(field: GridField, sign: int) -> GridField:
    """Kernel of u_r (sign +1) and u_r_inv (sign -1): every exponential
    sum runs over e^{sign 2 pi i ...}."""
    _check_aliasing(field)
    N, G = field.N, field.G

    def expsum(a):                                   # sum_k a_k e^{sign..}
        return np.fft.ifft(a, axis=1) * G if sign > 0 else np.fft.fft(a, axis=1)

    spec = expsum(field.values) / G                 # (sites, freq bins)
    sites = np.arange(-N, N + 1)
    # phi[n_idx, p_idx]: x-frequency n of the field at old site p
    phi = spec[:, np.mod(sites, G)].T
    shear = np.exp(sign * 2j * np.pi * np.outer(sites, sites * field.alpha))
    synth = np.zeros((2 * N + 1, G), dtype=complex)
    synth[:, np.mod(sites, G)] = phi * shear         # synth coeffs in x
    return GridField(expsum(synth), field.alpha)


def u_r(field: GridField) -> GridField:
    """Duality transform psi(x, n) -> hat psi(n, x + alpha n).

    The x-Fourier index becomes the lattice site and the old site becomes
    an x-frequency with a shear factor; exact for fields band-limited to
    |frequency| <= N with N within the grid budget.
    """
    return _exchange(field, +1)


def u_r_inv(field: GridField) -> GridField:
    """Inverse duality transform (conjugated kernels)."""
    return _exchange(field, -1)


def u_k(field: GridField, k: int) -> GridField:
    """Fiberwise unitary: multiply by e^{2 pi i n k (n alpha / 2 + x)}."""
    if k == 0:
        return field
    N, G = field.N, field.G
    sites = np.arange(-N, N + 1)[:, None]
    xs = (np.arange(G) / G)[None, :]
    phase = np.exp(2j * np.pi * sites * k * (sites * field.alpha / 2.0 + xs))
    return GridField(field.values * phase, field.alpha)


def shift_field(field: GridField, l: int) -> GridField:
    """(S_l psi)(x, n) = psi(x + l alpha, n - l); spectral x-shift plus a
    lattice roll (field support must clear the window edge by |l|)."""
    N, G = field.N, field.G
    edge = np.sum(np.abs(field.values[:abs(l)])) + \
        np.sum(np.abs(field.values[-abs(l):])) if l else 0.0
    if l and edge > 1e-12 * np.sum(np.abs(field.values)):
        raise ValidationError("field support too close to the lattice edge")
    spec = _x_spectrum(field)            # bin nu holds the e^{-2pi i nu x} part
    freqs = np.fft.fftfreq(G, d=1.0 / G).astype(int)
    shifted = spec * np.exp(-2j * np.pi * freqs * l * field.alpha)[None, :]
    vals = np.fft.fft(shifted, axis=1)
    vals = np.roll(vals, l, axis=0)
    if l > 0:
        vals[:l] = 0.0
    elif l < 0:
        vals[l:] = 0.0
    return GridField(vals, field.alpha)


def random_band_limited(N: int, G: int, seed: int, x_band: int | None = None,
                        support: int | None = None, alpha: float = 0.0) -> GridField:
    """Random field with x-frequencies in [-x_band, x_band] and lattice
    support [-support, support], safely inside the exactness class."""
    rng = np.random.default_rng(seed)
    if x_band is None:
        x_band = min(N, int(0.35 * G))
    if support is None:
        support = min(N - 4, int(0.35 * G))
    coeffs = np.zeros((2 * N + 1, G), dtype=complex)
    sites = np.arange(-support, support + 1)
    for n in sites:
        row = np.zeros(G, dtype=complex)
        ks = np.arange(-x_band, x_band + 1)
        row[np.mod(ks, G)] = rng.normal(size=len(ks)) + 1j * rng.normal(size=len(ks))
        coeffs[n + N] = row
    vals = np.fft.fft(coeffs, axis=1)
    f = GridField(vals, alpha)
    return GridField(vals / f.norm(), alpha)


# ---------------------------------------------------------------------------
# operators on grid fields and duality checks
# ---------------------------------------------------------------------------

def apply_model(model, field: GridField) -> GridField:
    """Apply the operator fiberwise in x with Dirichlet window edges."""
    N, G = field.N, field.G
    sites = np.arange(-N, N + 1)
    xs = np.arange(G) / G
    phases = (xs[None, :] + (sites * model.alpha.value)[:, None]) % 1.0
    out = np.zeros_like(field.values)
    if isinstance(model, JacobiModel):
        cvals = model.c.eval(phases)
        ctvals = model.c_tilde.eval(phases)
        vvals = model.v.eval(phases).real
        out += vvals * field.values
        out[:-1] += cvals[:-1] * field.values[1:]
        out[1:] += ctvals[:-1] * field.values[:-1]
        return GridField(out, field.alpha)
    for mp, sym in model.d_symbols.items():
        dv = sym.eval(phases)
        if mp == 0:
            out += dv * field.values
        elif mp > 0:
            out[mp:] += dv[mp:] * field.values[:-mp]
        else:
            k = -mp
            out[:-k] += dv[:-k] * field.values[k:]
    return GridField(out, field.alpha)


def duality_residual(model: JacobiModel, field: GridField) -> float:
    """|| (U_R^{-1} H U_R - dual H) psi || / ||psi|| on the truncation."""
    dual = dualize(model)
    lhs = u_r_inv(apply_model(model, u_r(field)))
    rhs = apply_model(dual, field)
    return float(np.sqrt(np.sum(np.abs(lhs.values - rhs.values) ** 2) /
                         np.sum(np.abs(field.values) ** 2)))


@dataclass(frozen=True)
class DualityReport:
    hausdorff: float
    hausdorff_half_window: float
    kolmogorov: float
    kolmogorov_half_window: float
    N: int
    n_phases: int


def duality_checks(model: JacobiModel, scale: float, dual_reference,
                   N: int, n_phases: int = 16, seed: int = 0) -> DualityReport:
    """Spectral and IDS duality between a family and its dual.

    Compares the truncated spectrum of `model` against `scale` times the
    spectrum of `dual_reference` (Hausdorff), and the phase-averaged
    eigenvalue distribution of `model` against that of dualize(model)
    (Kolmogorov); both with a half-window stability repeat. All six
    pools use the same n_phases phases, drawn uniformly from `seed`.
    """
    dual = dualize(model)
    thetas = np.random.default_rng(seed).random(n_phases)
    out = {}
    for label, width in (("full", N), ("half", N // 2)):
        a, b, d = (ops.pooled_spectrum(m, width, thetas)
                   for m in (model, dual_reference, dual))
        out[label] = (ops.hausdorff_distance(a, scale * b),
                      ops.kolmogorov_distance(a, d))
    return DualityReport(out["full"][0], out["half"][0],
                         out["full"][1], out["half"][1], N, n_phases)
