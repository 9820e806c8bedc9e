import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import cli
from speclab import diophantine as dio
from speclab.errors import (
    InsufficientDepth,
    Overflow,
    PrecisionExhausted,
    ThetaInSingularOrbit,
    ValidationError,
)


def test_golden_expansion():
    cf = dio.expand("golden", 8)
    assert cf.quotients == (1,) * 8
    assert cf.q[:7] == (1, 2, 3, 5, 8, 13, 21)
    assert cf.p[:7] == (1, 1, 2, 3, 5, 8, 13)


def test_sqrt2_expansion():
    cf = dio.expand("sqrt2", 5)
    assert cf.quotients == (2, 2, 2, 2, 2)


def test_rational_input_terminates():
    with pytest.raises(PrecisionExhausted):
        dio.expand("0.3", 10)
    # shallow requests still succeed: 0.3 = [0; 3, 3]
    cf = dio.expand("0.3", 2)
    assert cf.quotients == (3, 3)


def test_float_input_runs_out_of_precision():
    with pytest.raises(PrecisionExhausted):
        dio.expand(0.6180339887498949, 60)


def test_reconstruction_bound():
    cf = dio.expand("golden", 20)
    err = abs(cf.lo - Fraction(cf.p[-1], cf.q[-1]))
    assert err < Fraction(1, cf.q[-1] ** 2)


def _assert_approximation_sandwich(cf):
    # 1/(q_n + q_{n+1}) <= dist(q_n alpha, Z) <= 1/q_{n+1}, decided on the
    # exact enclosure (conservative side for the unknown true alpha)
    for n in range(cf.depth - 1):
        lo, hi = cf.norm_interval(cf.q[n])
        assert lo >= Fraction(1, cf.q[n] + cf.q[n + 1])
        assert hi <= Fraction(1, cf.q[n + 1])


def test_approximation_sandwich_named_constants():
    _assert_approximation_sandwich(dio.expand("golden", 18))
    _assert_approximation_sandwich(dio.expand("sqrt2", 14))


def test_best_approximation_small_levels():
    cf = dio.expand("golden", 18)
    pr = cf.proxy
    den = pr.denominator
    for n in range(cf.depth - 1):
        if cf.q[n + 1] > 10_000:
            break
        r = (cf.q[n] * pr.numerator) % den
        target = Fraction(min(r, den - r), den)
        for k in range(1, cf.q[n + 1]):
            r = (k * pr.numerator) % den
            assert Fraction(min(r, den - r), den) >= target


def test_quotients_without_enclosure_are_exact():
    cf = dio._from_quotients([1, 2, 3, 4], None, None, "quotients")
    assert cf.lo == cf.hi == Fraction(cf.p[-1], cf.q[-1]) == cf.proxy
    assert cli.parse_alpha("quotients:1,2,3,4") == cf


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=24))
def test_sandwich_for_random_quotients(quots):
    cf = dio._from_quotients(quots, Fraction(0), Fraction(0), "test")
    exact = Fraction(cf.p[-1], cf.q[-1])
    cf = dio.ContinuedFraction(cf.quotients, cf.p, cf.q, exact, exact, "test")
    # determinant identity of the convergent recurrence
    for n in range(1, cf.depth):
        assert cf.p[n] * cf.q[n - 1] - cf.p[n - 1] * cf.q[n] in (1, -1)
    den = cf.proxy.denominator
    for n in range(cf.depth - 2):   # last level relates to the finite tail
        r = (cf.q[n] * cf.proxy.numerator) % den
        d = Fraction(min(r, den - r), den)
        assert Fraction(1, cf.q[n] + cf.q[n + 1]) <= d <= Fraction(1, cf.q[n + 1])


def test_beta_golden_goes_to_zero():
    cf = dio.expand("golden", 30)
    est = dio.beta(cf, window=6)
    assert est.value < 1e-3
    assert est.value >= 0
    assert len(est.per_level) == cf.depth - 1
    # per-level values shrink like ln(q_{n+1})/q_n
    assert est.per_level[-1] == pytest.approx(
        math.log(cf.q[-1]) / cf.q[-2], rel=1e-12)


def test_beta_sqrt2_small():
    cf = dio.expand("sqrt2", 16)
    assert dio.beta(cf, window=4).value < 1e-3


def test_beta_insufficient_depth():
    cf = dio.expand("golden", 5)
    with pytest.raises(Exception):
        dio.beta(cf, window=8)


def test_synth_alpha_hits_target():
    for target, levels in ((1.0, 4), (3.0, 3), (1.5, 4)):
        cf = dio.synth_alpha(target, levels)
        assert cf.depth == levels
        for n in range(1, cf.depth - 1):
            r = math.log(cf.q[n + 1]) / cf.q[n]
            assert abs(r - target) <= 0.05 * target
        _assert_approximation_sandwich(cf)


def test_synth_alpha_feeds_beta_within_band():
    # trailing window excludes the seed levels, where the target is not
    # yet enforced
    for target, levels in ((1.0, 4), (1.5, 4)):
        cf = dio.synth_alpha(target, levels)
        est = dio.beta(cf, window=levels - 2)
        assert abs(est.value - target) <= 0.05 * target


def test_synth_alpha_rejects_zero_target():
    with pytest.raises(ValidationError):
        dio.synth_alpha(0.0, 4)


def test_synth_alpha_overflow():
    with pytest.raises(Overflow):
        dio.synth_alpha(3.0, 8)


def test_delta_c_empty_phases_matches_beta_bitwise():
    cf = dio.expand("golden", 15)
    b = dio.beta(cf).value
    d = dio.delta_c(cf, 0.2371, [], depth=cf.depth - 1)
    assert d == b


def test_delta_c_singular_orbit_rejected():
    cf = dio.expand("golden", 12)
    theta1 = 0.237
    theta = float((Fraction(theta1) + 3 * cf.lo) % 1)
    with pytest.raises(ThetaInSingularOrbit):
        dio.delta_c(cf, theta, [theta1], depth=8)


def test_delta_c_monte_carlo_matches_beta():
    import random

    rng = random.Random(7)
    cf = dio.expand("golden", 18)
    theta1 = 0.237
    hits = trials = 0
    for _ in range(100):
        theta = rng.random()
        try:
            v = dio.delta_c(cf, theta, [theta1], depth=17, window=5)
        except ThetaInSingularOrbit:
            continue
        trials += 1
        if abs(v) <= 0.05:
            hits += 1
    assert hits >= 0.95 * trials


def test_dc_membership_resonant_phase():
    cf = dio.expand("golden", 20)
    phi = float((3 * cf.proxy / 2) % 1)   # 2 phi = 3 alpha mod 1
    assert dio.dc_membership(cf, phi, tau=2.0, m_max=10) < 1e-9


def test_dc_membership_golden_quarter():
    cf = dio.expand("golden", 25)
    g = dio.dc_membership(cf, 0.25, tau=2.0, m_max=10_000)
    assert g > 1e-3


def test_dc_membership_single_term_formula():
    cf = dio.expand("sqrt2", 15)
    phi, tau = 0.137, 2.5
    a = cf.proxy
    d1 = abs(float((2 * Fraction(phi) - a) % 1 - Fraction(1, 2)) - 0.5)
    d2 = abs(float((2 * Fraction(phi) + a) % 1 - Fraction(1, 2)) - 0.5)
    expected = min(d1, d2) * 2**tau
    assert dio.dc_membership(cf, phi, tau, m_max=1) == pytest.approx(expected, rel=1e-9)


def test_json_roundtrip_fields():
    cf = dio.expand("golden", 9)
    blob = cf.to_json()
    assert blob["quotients"] == [1] * 9
    assert [int(x) for x in blob["q"]][:5] == [1, 2, 3, 5, 8]


# ---------------------------------------------------------------------------
# the scans against plain Fraction loops
# ---------------------------------------------------------------------------

def _frac_norm(x):
    """dist(x, Z) for an exact rational."""
    r = x % 1
    return min(r, 1 - r)


def _delta_c_levels_oracle(cf, theta, singular_phases, depth):
    """The Fraction loop of delta_c_levels, after its orbit check."""
    out = []
    for n in range(min(depth, cf.depth - 1)):
        qn = cf.q[n]
        val = math.log(cf.q[n + 1]) / qn
        for tj in singular_phases:
            d = _frac_norm(qn * (Fraction(theta) - Fraction(tj)) % 1)
            val += math.log(float(d)) / qn if d > 0 else -math.inf
        out.append(val)
    return out


@pytest.mark.parametrize("spec", ["golden", "sqrt2", "synth"])
def test_delta_c_levels_bit_equal_to_fraction_loop(spec):
    cf = dio.synth_alpha(1.0, 4) if spec == "synth" \
        else dio.expand(spec, 40)
    phases = [0.1234567, 0.75, 0.6180339887498949]
    tj = phases[0]
    thetas = [0.0, 0.5, 0.3141592653589793, 1 - 2.0 ** -40,
              # near, not on, the singular orbits: tiny dist(q_n x, Z)
              _on_orbit(cf, tj, 3, Fraction(1, 10 ** 9)),
              _on_orbit(cf, tj, -cf.q[1], Fraction(-1, 10 ** 11)),
              _on_orbit(cf, tj, 0, Fraction(3, 10 ** 12))]
    # the synthesized q_4 ~ e^403 is beyond the orbit scan's reach
    depths = (1, 2, 3) if spec == "synth" else (1, 2, 5, 39, 43)
    compared = 0
    for theta in thetas:
        for sing in ([tj], phases):
            for depth in depths:
                try:
                    got = dio.delta_c_levels(cf, theta, sing, depth)
                except ThetaInSingularOrbit:
                    continue
                assert got == _delta_c_levels_oracle(cf, theta, sing, depth)
                compared += 1
    assert compared >= 36

def _check_theta_oracle(cf, theta, singular_phases, k_range):
    """A Fraction loop against the proxy p/q: its message, or None. It
    agrees with check_theta where k_range |alpha - p/q| is far below 1e-12."""
    pr = cf.proxy
    th = Fraction(theta)
    for tj in singular_phases:
        d0 = th - Fraction(tj)
        for k in range(-k_range, k_range + 1):
            if _frac_norm(d0 - k * pr) < Fraction(1e-12):
                return f"theta within 1e-12 of phase {tj} + {k}*alpha"
    return None


def _check_theta_enclosure_oracle(cf, theta, singular_phases, k_range):
    """Every |k| <= k_range in turn, decided on alpha's enclosure."""
    tol = Fraction(1e-12)
    for tj in singular_phases:
        x = (Fraction(theta) - Fraction(tj)) % 1
        for k in range(-k_range, k_range + 1):
            lo, hi = cf.norm_interval(k, x)
            if hi < tol:
                raise ThetaInSingularOrbit(
                    f"theta within 1e-12 of phase {tj} + {k}*alpha")
            if lo < tol:
                raise PrecisionExhausted(
                    f"enclosure too wide to decide phase {tj} + {k}*alpha")


def _outcome(check, *args):
    try:
        check(*args)
    except (ThetaInSingularOrbit, PrecisionExhausted, InsufficientDepth) as exc:
        return type(exc).__name__, str(exc)
    return None


def _check_theta_message(cf, theta, singular_phases, k_range):
    try:
        dio.check_theta(cf, theta, singular_phases, k_range)
    except ThetaInSingularOrbit as exc:
        return str(exc)
    return None


def _dc_membership_oracle(cf, phi, tau, m_max):
    """The Fraction loop of dc_membership."""
    pr = cf.proxy
    two_phi = Fraction(phi) * 2
    best = math.inf
    for m in range(1, m_max + 1):
        w = float((1 + m)) ** tau
        for s in (m, -m):
            best = min(best, float(_frac_norm(two_phi - s * pr)) * w)
    return best


def _on_orbit(cf, tj, k, offset=Fraction(0)):
    """The float nearest to tj + k*proxy + offset, mod 1."""
    return float((Fraction(tj) + k * cf.proxy + offset) % 1)


def _on_true_orbit(cf, tj, k, offset=Fraction(0)):
    """The float nearest to tj + k*alpha + offset, mod 1 (alpha = cf.lo)."""
    return float((Fraction(tj) + k * cf.lo + offset) % 1)


# proxies with q below 2^63 (golden40, sqrt2), above it (sqrt2_50) and a
# 582-bit exact rational (synth)
SCAN_ALPHAS = {
    "golden40": lambda: dio.expand("golden", 40),
    "sqrt2": lambda: dio.expand("sqrt2", 40),
    "sqrt2_50": lambda: dio.expand("sqrt2", 50),
    "synth": lambda: dio.synth_alpha(1.0, 4),
}


@pytest.mark.parametrize("name, K", [("golden40", 2000), ("sqrt2", 300),
                                     ("sqrt2_50", 300), ("synth", 300)])
def test_check_theta_matches_fraction_loop(name, K):
    import random

    cf = SCAN_ALPHAS[name]()
    rng = random.Random(K)
    tj = rng.random()
    near = Fraction(1e-12) * Fraction(1, 1000)
    cases = [rng.random() for _ in range(3)]                  # off orbit
    cases += [_on_orbit(cf, tj, k) for k in (K, -K, K + 1, -K - 1, 17)]
    cases += [_on_orbit(cf, tj, k, sign * (Fraction(1e-12) + eps))
              for k in (-5, 11) for sign in (1, -1) for eps in (-near, near)]
    for theta in cases:
        want = _check_theta_oracle(cf, theta, [tj], K)
        assert _check_theta_message(cf, theta, [tj], K) == want, theta
    # the cases decide as planted; k = +-(K+1) is not asserted, because
    # synth's tiny ||q_3 alpha|| (q_3 = 403) brings it back into the scan
    assert _check_theta_oracle(cf, _on_orbit(cf, tj, -K), [tj], K) is not None
    assert _check_theta_oracle(cf, _on_orbit(
        cf, tj, 11, Fraction(1e-12) - near), [tj], K) is not None
    assert _check_theta_oracle(cf, _on_orbit(
        cf, tj, 11, Fraction(1e-12) + near), [tj], K) is None


def test_check_theta_two_phases_raise_in_scan_order():
    cf = dio.expand("golden", 40)
    t1 = 0.237
    t2 = _on_orbit(cf, t1, 7)
    theta = _on_orbit(cf, t1, 3)
    for phases in ([t1, t2], [t2, t1], [0.61, t2]):
        want = _check_theta_oracle(cf, theta, phases, 400)
        assert _check_theta_message(cf, theta, phases, 400) == want
    assert _check_theta_message(cf, theta, [t2, t1], 400).endswith(
        f"phase {t2} + -4*alpha")


def test_check_theta_liouville_first_hit_from_below():
    # ||q_3 alpha|| ~ e^-403 for synth_alpha(1.0, 4): a phase planted at
    # k = 100 is hit again at every k = 100 + j q_3 in the scan
    cf = dio.synth_alpha(1.0, 4)
    theta = _on_orbit(cf, 0.3, 100)
    msg = _check_theta_message(cf, theta, [0.3], 2000)
    assert msg == _check_theta_oracle(cf, theta, [0.3], 2000)
    assert msg.endswith(f"+ {100 - 5 * cf.q[2]}*alpha")


def test_check_theta_full_cap_planted_last():
    # the transition workload's scale: golden depth 40, planted at k = 1e5
    cf = dio.expand("golden", 40)
    theta = _on_true_orbit(cf, 0.137, 100_000)
    msg = _check_theta_message(cf, theta, [0.137], cf.q[-1])
    assert msg.endswith("+ 100000*alpha")


# the 0.0123456789 expansion (a_1 = 81) takes the 0/1 branch for K < 81;
# "wide" is golden to 1e-13, too coarse to decide most hits at |k| >= 10
WIDE = (Fraction(6180339887498, 10**13), Fraction(6180339887499, 10**13))
ENCLOSURE_ALPHAS = {
    **{name: SCAN_ALPHAS[name] for name in ("golden40", "sqrt2_50", "synth")},
    "fib": lambda: dio.expand("987/1597", 15),
    "a81": lambda: dio.expand("0.0123456789", 3),
    "wide": lambda: dio.expand(WIDE, 20),
}


@pytest.mark.parametrize("name", list(ENCLOSURE_ALPHAS))
def test_check_theta_matches_enclosure_loop(name):
    import random

    cf = ENCLOSURE_ALPHAS[name]()
    rng = random.Random(name)
    tj = rng.random()
    tol = Fraction(1e-12)
    edges = [s * tol * (1 + f) for s in (1, -1) for f in (Fraction(-1, 1000),
                                                         Fraction(1, 1000))]
    for K in (0, 1, 2, 7, 50):
        cases = [rng.random()]
        for k in {0, 1, -1, K, -K, K + 1, 17}:
            cases += [_on_true_orbit(cf, tj, k, off) for off in [0] + edges]
        for theta in cases:
            assert _outcome(dio.check_theta, cf, theta, [tj], K) == _outcome(
                _check_theta_enclosure_oracle, cf, theta, [tj], K), (K, theta)
    # two phases, in both orders
    t2 = _on_true_orbit(cf, tj, 7)
    theta = _on_true_orbit(cf, tj, 3)
    for phases in ([tj, t2], [t2, tj]):
        assert _outcome(dio.check_theta, cf, theta, phases, 50) == _outcome(
            _check_theta_enclosure_oracle, cf, theta, phases, 50)
    # large K: the edges of the range and one hit just inside tol
    for K in (300, 1600):
        cases = [_on_true_orbit(cf, tj, k) for k in (-K, K, K + 1)]
        cases.append(_on_true_orbit(cf, tj, 17, edges[0]))
        for theta in cases:
            assert _outcome(dio.check_theta, cf, theta, [tj], K) == _outcome(
                _check_theta_enclosure_oracle, cf, theta, [tj], K), (K, theta)


def test_check_theta_wide_enclosure_exhausts_precision():
    cf = ENCLOSURE_ALPHAS["wide"]()
    theta = _on_true_orbit(cf, 0.3, 40)
    want = ("PrecisionExhausted",
            "enclosure too wide to decide phase 0.3 + 40*alpha")
    assert _outcome(dio.check_theta, cf, theta, [0.3], 50) == want
    assert _outcome(_check_theta_enclosure_oracle, cf, theta, [0.3], 50) == want


def test_check_theta_true_orbit_beyond_old_cap():
    # at golden depth 40, delta_c asks for |k| <= q_39 ~ 1e8; the proxy orbit
    # drifts from alpha's by k |alpha - p/q| = 1.63e-12 at k = 1e5
    cf = dio.expand("golden", 40)
    K = cf.q[-2]
    for k in (100_000, 50_000_000, -K):
        theta = _on_true_orbit(cf, 0.3, k)
        assert _check_theta_message(cf, theta, [0.3], K).endswith(f"+ {k}*alpha")
    with pytest.raises(ThetaInSingularOrbit):
        dio.delta_c(cf, _on_true_orbit(cf, 0.3, 50_000_000), [0.3],
                    depth=cf.depth - 1)
    assert _check_theta_message(cf, _on_orbit(cf, 0.3, 100_000), [0.3], K) is None


def test_check_theta_shallow_expansion_insufficient_depth():
    cf = dio.expand("golden", 12)        # q_12 = 233, q_13 = 377 not stored
    dio.check_theta(cf, 0.42, [0.1], 233)
    with pytest.raises(InsufficientDepth):
        dio.check_theta(cf, 0.42, [0.1], 1600)


MEMBERSHIP_ALPHAS = {**SCAN_ALPHAS,
                     # a proxy denominator of 102 bits, above 2^63
                     "beta": lambda: cli.parse_alpha("beta:0.5:4")}


@pytest.mark.parametrize("name", list(MEMBERSHIP_ALPHAS))
def test_dc_membership_bit_equal_to_fraction_loop(name):
    import random

    cf = MEMBERSHIP_ALPHAS[name]()
    rng = random.Random(3)
    phis = [rng.random() for _ in range(4)] + [0.0, 0.25, -0.3, 1.7]
    phis += [float((k * cf.proxy / 2) % 1) for k in (1, 3, -8)]   # resonant
    for phi in phis:
        for tau in (1.5, 2.0, 8.0):
            assert dio.dc_membership(cf, phi, tau, 400) == \
                _dc_membership_oracle(cf, phi, tau, 400), (phi, tau)
    # the benchmark's and the CLI's scan depths, with 2 phi planted at
    # +-m alpha for m near m_max
    for m_max in (2000, 10_000):
        phis = [rng.random()] + [float((k * cf.proxy / 2) % 1)
                                 for k in (m_max - 1, -m_max)]
        for phi in phis:
            for tau in (2.0, 8.0):
                assert dio.dc_membership(cf, phi, tau, m_max) == \
                    _dc_membership_oracle(cf, phi, tau, m_max), \
                    (phi, tau, m_max)


@pytest.mark.parametrize("phi, tau, m_max", [
    (math.nan, 2.0, 10), (math.inf, 2.0, 10), (-math.inf, 2.0, 10),
    (0.3, math.nan, 10), (0.3, math.inf, 10),
    (0.3, 400.0, 10_000),          # (1 + m_max)^tau overflows
    (0.3, 2.0, 10.0), (0.3, 2.0, "10"), (0.3, 2.0, None)])
def test_dc_membership_rejects_bad_input(phi, tau, m_max):
    with pytest.raises(ValidationError):
        dio.dc_membership(dio.expand("golden", 20), phi, tau, m_max)
