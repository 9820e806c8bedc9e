import json
import math

import numpy as np
import pytest

from speclab import ehm
from speclab import symbols as sym
from speclab.errors import (
    OutsideStrip,
    StripNotCertified,
    ValidationError,
    VanishesOnTorus,
)

ALPHA = 0.6180339887498949


def ehm_hopping(lam, alpha=ALPHA):
    l1, l2, l3 = lam
    return sym.from_dict({-1: l1, 0: l2, 1: l3}, half_phase=True, alpha=alpha)


def test_eval_constant():
    s = sym.constant(1.0)
    assert s.eval(0.37) == pytest.approx(1.0)


def test_eval_ehm_at_z_equal_one():
    c = ehm_hopping((0.1, 0.5, 0.2))
    assert c.eval(-ALPHA / 2) == pytest.approx(0.8, abs=1e-14)


def test_eval_cosine_zero():
    v = sym.cosine_potential(2.0)
    assert v.eval(0.25) == pytest.approx(0.0, abs=1e-15)
    assert v.eval(0.0) == pytest.approx(2.0)


@pytest.mark.parametrize("order, grid, half_phase", [
    (1, 64, True), (7, 64, False), (40, 64, True), (200, 256, False),
    (3, 1, False), (48, 8192, False)])
def test_on_grid_matches_eval(order, grid, half_phase):
    # orders above grid/2 fold modes onto each other: exact at grid points
    rng = np.random.default_rng(order)
    c = rng.normal(size=2 * order + 1) + 1j * rng.normal(size=2 * order + 1)
    s = sym.TorusSymbol(c, half_phase, ALPHA)
    ref = s.eval(np.arange(grid) / grid)
    assert np.max(np.abs(s.on_grid(grid) - ref)) <= \
        1e-13 * np.sum(np.abs(c))


def test_eval_outside_strip():
    s = sym.certify_strip(sym.from_dict({0: 1.0, 1: 1e-8}), 0.1)
    with pytest.raises(OutsideStrip):
        s.eval(0.3 + 0.2j)


def _ascending_sum(s, theta):
    """Oracle for `eval`: the ascending-mode sum of z^k, z^-K first."""
    offset = s.alpha / 2 if s.half_phase else 0.0
    z = np.exp(2j * np.pi * (np.asarray(theta) + offset))
    out = np.zeros_like(z, dtype=complex)
    zk = z ** (-s.order)
    for c in s.coeffs:
        out = out + c * zk
        zk = zk * z
    return out


@pytest.mark.parametrize("half_phase", [False, True])
def test_eval_matches_ascending_sum(half_phase):
    # coefficients decay as e^{-4 pi strip |k|}, so the sum stays bounded
    # over the strip
    strip = 0.05
    rng = np.random.default_rng(5)
    real = rng.random(40)
    inside = rng.random(40) + 1j * strip * rng.uniform(-1, 1, 40)
    for order in range(201):
        ks = np.arange(-order, order + 1)
        c = (rng.normal(size=2 * order + 1)
             + 1j * rng.normal(size=2 * order + 1)) \
            * np.exp(-2 * sym.TWO_PI * strip * np.abs(ks))
        s = sym.TorusSymbol(c, half_phase, ALPHA, strip)
        tol = 1e-13 * np.sum(np.abs(c))
        for th in (real, inside, inside.reshape(4, 10)):
            got = s.eval(th)
            assert got.shape == th.shape
            assert np.max(np.abs(got - _ascending_sum(s, th))) <= tol
        for th in (0.37, 0.37 - 0.9j * strip, np.float64(0.81),
                   np.array(0.37), np.array(0.2 + 0.5j * strip)):
            got = s.eval(th)
            assert type(got) is complex
            assert abs(got - complex(_ascending_sum(s, th))) <= tol


@pytest.mark.parametrize("im, raises", [
    (0.1, False), (-0.1, False), (0.1 + 1e-15, False), (0.1 + 3e-15, True),
    (-0.1 - 3e-15, True), (0.2, True)])
def test_eval_refuses_exactly_outside_strip(im, raises):
    # the strip check is |Im theta| > strip + 1e-15, scalar or array
    s = sym.certify_strip(sym.from_dict({0: 1.0, 1: 1e-8}), 0.1)
    for th in (0.3 + 1j * im, np.array([0.3, 0.3 + 1j * im])):
        if raises:
            with pytest.raises(OutsideStrip):
                s.eval(th)
        else:
            s.eval(th)
    s.eval(np.array([0.3, 0.7]))        # real phases are not checked


@pytest.mark.parametrize("order", [0, 1, 3, 40])
def test_at_is_horner_times_zinv(order):
    rng = np.random.default_rng(order)
    c = rng.normal(size=2 * order + 1) + 1j * rng.normal(size=2 * order + 1)
    s = sym.TorusSymbol(c, True, ALPHA)
    th = rng.random(64) + 0.01j * rng.normal(size=64)
    z = np.exp(2j * np.pi * th)
    for zinv in (1 / z, np.conj(z)):
        ref = s.horner(z)
        for _ in range(order):
            ref *= zinv
        assert np.array_equal(s.at(z, zinv), ref)


def _projection_loop(values, k_out):
    """Oracle for `from_grid`: the mode-by-mode FFT projection."""
    grid = len(values)
    spec = np.fft.fft(values) / grid
    coeffs = np.zeros(2 * k_out + 1, dtype=complex)
    for k in range(-k_out, k_out + 1):
        coeffs[k + k_out] = spec[k % grid]
    return coeffs


@pytest.mark.parametrize("grid, k_out", [
    (4096, 68), (8192, 48), (2048, 113), (64, 40), (1, 3)])
def test_from_grid_equals_projection_loop(grid, k_out):
    # real values (|c|, as in modulus_symbol), complex values (log c, as
    # in log_symbol) and a conjugacy entry's, k_out past grid/2 included
    c = ehm_hopping((0.1, 0.5, 0.2))
    vals = c.on_grid(grid)
    rng = np.random.default_rng(grid)
    for v in (np.abs(vals), np.log(vals),
              rng.normal(size=grid) + 1j * rng.normal(size=grid)):
        got = sym.TorusSymbol.from_grid(v, k_out)
        assert not got.half_phase and got.strip == math.inf
        assert np.array_equal(got.coeffs, _projection_loop(v, k_out))


@pytest.mark.parametrize("order, grid", [(0, 1), (1, 4), (40, 128),
                                         (200, 512)])
def test_from_grid_inverts_on_grid(order, grid):
    rng = np.random.default_rng(order)
    c = rng.normal(size=2 * order + 1) + 1j * rng.normal(size=2 * order + 1)
    for half_phase in (False, True):
        s = sym.TorusSymbol(c, half_phase, ALPHA)
        back = sym.TorusSymbol.from_grid(s.on_grid(grid), order)
        assert np.max(np.abs(back.coeffs - s._z_coeffs())) <= \
            1e-13 * np.sum(np.abs(c))


def test_winding_trivial_cases():
    assert sym.winding(sym.constant(1.0)) == 0
    assert sym.winding(sym.from_dict({1: 1.0})) == 1
    assert sym.winding(sym.from_dict({-2: 3.0})) == -2


def test_winding_ehm_examples():
    # roots of 0.1 z^2 + 0.2 z + 0.6 are -1 +- 2.2360i, both outside the disk
    assert sym.winding(ehm_hopping((0.6, 0.2, 0.1))) == -1
    # roots -0.42265, -1.57735: one inside
    assert sym.winding(ehm_hopping((0.2, 0.6, 0.3))) == 0


def test_winding_vanishing_symbol_rejected():
    with pytest.raises(VanishesOnTorus):
        sym.winding(ehm_hopping((0.5, 0.5, 0.5)))


def test_winding_random_polynomials_certified():
    rng = np.random.default_rng(42)
    done = 0
    while done < 200:
        deg = rng.integers(1, 7)
        coeffs = rng.normal(size=2 * deg + 1) + 1j * rng.normal(size=2 * deg + 1)
        s = sym.TorusSymbol(coeffs)
        try:
            w = sym.winding(s)
        except VanishesOnTorus:
            continue
        # invariance under positive scaling, negation under reversal
        assert sym.winding(sym.TorusSymbol(s.coeffs * 3.7)) == w
        srev = sym.TorusSymbol(s.coeffs[::-1])
        assert sym.winding(srev) == -w
        done += 1


def _root_count(s):
    """Oracle for `winding`'s certificate: k_min plus the roots of the
    z-polynomial inside the unit disk, from its own `np.roots` call."""
    poly, k_min = sym._trimmed_poly(s)
    if len(poly) == 1:
        return k_min
    roots = np.roots(poly[::-1])
    if np.any(np.abs(np.abs(roots) - 1.0) <= 1e-8):
        raise VanishesOnTorus("root on the circle")
    return k_min + int(np.sum(np.abs(roots) < 1.0))


def _winding_cases():
    # the README atlas grid (l13 = 0.1:1.4:14, l2 = 0.1:2.0:20, l1 = l3):
    # hoppings and duals; then the random symbols of the tests above
    for l13 in np.linspace(0.1, 1.4, 14):
        for l2 in np.linspace(0.1, 2.0, 20):
            lam = (l13 / 2, l2, l13 / 2)
            yield ehm_hopping(lam)
            yield ehm_hopping(ehm.sigma(lam))
    yield from (ehm_hopping(lam) for lam in
                ((0.6, 0.2, 0.1), (0.2, 0.6, 0.3), (0.5, 0.5, 0.5)))
    yield from (sym.constant(1.0), sym.from_dict({1: 1.0}),
                sym.from_dict({-2: 3.0}))
    rng = np.random.default_rng(42)
    for _ in range(300):
        deg = rng.integers(1, 7)
        yield sym.TorusSymbol(rng.normal(size=2 * deg + 1)
                              + 1j * rng.normal(size=2 * deg + 1))


def test_winding_equals_root_count():
    counted = 0
    for s in _winding_cases():
        try:
            ref = _root_count(s)
        except VanishesOnTorus:
            with pytest.raises(VanishesOnTorus):
                sym.winding(s)
            continue
        try:
            assert sym.winding(s) == ref
            counted += 1
        except VanishesOnTorus:
            # only the grid modulus check refuses a symbol whose roots
            # are off the circle
            assert float(np.min(np.abs(s.on_grid(4096)))) <= 1e-8
    assert counted > 500


def test_winding_additivity():
    rng = np.random.default_rng(3)
    done = 0
    while done < 50:
        a = sym.TorusSymbol(rng.normal(size=5) + 1j * rng.normal(size=5))
        b = sym.TorusSymbol(rng.normal(size=7) + 1j * rng.normal(size=7))
        prod = np.convolve(a.coeffs, b.coeffs)
        s = sym.TorusSymbol(prod)
        try:
            wa, wb, wab = sym.winding(a), sym.winding(b), sym.winding(s)
        except VanishesOnTorus:
            continue
        assert wab == wa + wb
        done += 1


def test_zeros_two_on_circle():
    z = sym.zeros_on_torus(ehm_hopping((0.5, 0.5, 0.5)))
    assert len(z.roots) == 2
    assert len(z.on_circle) == 2
    expect = sorted(((1 / 3 - ALPHA / 2) % 1, (-1 / 3 - ALPHA / 2) % 1))
    assert z.torus_phases == pytest.approx(expect, abs=1e-10)


def test_zeros_single_on_circle():
    z = sym.zeros_on_torus(ehm_hopping((0.2, 0.5, 0.3)))
    assert len(z.on_circle) == 1
    assert z.torus_phases[0] == pytest.approx((0.5 - ALPHA / 2) % 1, abs=1e-10)


def test_zeros_none_on_circle():
    c = ehm_hopping((0.1, 0.5, 0.2))
    z = sym.zeros_on_torus(c)
    assert len(z.on_circle) == 0
    # quadratic-formula oracle for the root moduli of 0.2 z^2 + 0.5 z + 0.1
    disc = math.sqrt(0.25 - 4 * 0.2 * 0.1)
    expect = sorted(abs((-0.5 + s * disc) / 0.4) for s in (1, -1))
    assert sorted(np.abs(z.roots)) == pytest.approx(expect, rel=1e-10)


def test_zeros_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(20):
        coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
        s = sym.TorusSymbol(coeffs)
        z = sym.zeros_on_torus(s)
        poly = np.polynomial.polynomial.polyfromroots(z.roots) * s.coeffs[-1]
        assert np.max(np.abs(poly - s.coeffs)) <= 1e-8 * np.max(np.abs(s.coeffs))


def test_zeros_trims_degenerate_leading_coefficient():
    s = sym.from_dict({-1: 0.5, 0: 1.0, 1: 0.0})
    z = sym.zeros_on_torus(s)
    assert len(z.roots) == 1


def test_modulus_constant_and_unimodular():
    m = sym.modulus_symbol(sym.constant(-2.0), k_out=4)
    assert m.eval(0.3) == pytest.approx(2.0, abs=1e-12)
    m2 = sym.modulus_symbol(sym.from_dict({1: 1.0}), k_out=4)
    assert m2.eval(0.77) == pytest.approx(1.0, abs=1e-12)


def test_modulus_ehm_properties():
    c = ehm_hopping((0.1, 0.5, 0.2))
    m = sym.modulus_symbol(c, k_out=68)
    grid = np.arange(512) / 512
    vals = m.eval(grid)
    ref = np.abs(c.eval(grid))
    assert np.max(np.abs(vals - ref)) < 1e-10
    assert np.max(np.abs(vals.imag)) < 1e-12
    assert m.eval(-ALPHA / 2) == pytest.approx(0.8, abs=1e-10)
    assert float(np.min(vals.real)) >= float(np.min(ref)) - 1e-9
    # even around theta = -alpha/2
    t = np.arange(40) / 40
    left = m.eval((-ALPHA / 2 + t) % 1)
    right = m.eval((-ALPHA / 2 - t) % 1)
    assert np.max(np.abs(left - right)) < 1e-10


def test_modulus_vanishing_rejected():
    with pytest.raises(VanishesOnTorus):
        sym.modulus_symbol(ehm_hopping((0.5, 0.5, 0.5)), k_out=16)


def test_twist_identity_and_single_mode():
    c = ehm_hopping((0.6, 0.2, 0.1))
    assert sym.twist(c, 0) is c
    s = sym.from_dict({1: 1.0}, half_phase=True, alpha=ALPHA)
    t = sym.twist(s, 1)
    assert t.eval(0.4) == pytest.approx(1.0, abs=1e-14)


def test_twist_kills_winding():
    c = ehm_hopping((0.6, 0.2, 0.1))
    w = sym.winding(c)
    assert w == -1
    assert sym.winding(sym.twist(c, w)) == 0


def test_strip_certification_rejects_bad_declaration():
    s = sym.from_dict({k: math.exp(-0.5 * abs(k)) for k in range(-40, 41)})
    sym.certify_strip(s, 0.5 / (2 * math.pi) * 0.9)     # supported by decay
    with pytest.raises(StripNotCertified):
        sym.certify_strip(s, 2.0)


def test_conj_reversal_is_pointwise_conjugate():
    c = ehm_hopping((0.1, 0.5, 0.2))
    ct = c.conj_reversal()
    grid = np.arange(64) / 64
    assert np.max(np.abs(ct.eval(grid) - np.conj(c.eval(grid)))) < 1e-14


def test_log_symbol_roundtrip():
    c = ehm_hopping((0.1, 0.5, 0.2))
    ls = sym.log_symbol(c, k_out=48)
    grid = np.arange(256) / 256
    assert np.max(np.abs(np.exp(ls.eval(grid)) - c.eval(grid))) < 1e-10


def test_log_symbol_needs_zero_winding():
    with pytest.raises(ValidationError):
        sym.log_symbol(sym.from_dict({1: 1.0}), k_out=8)


def test_json_roundtrip():
    c = ehm_hopping((0.1, 0.5, 0.2))
    blob = json.loads(json.dumps(c.to_json()))
    assert [k for k, _, _ in blob["coeffs"]] == c.modes.tolist()
    assert np.allclose([re + 1j * im for _, re, im in blob["coeffs"]],
                       c.coeffs)
    assert blob["half_phase"] and blob["alpha"] == ALPHA
    assert blob["strip"] is None
