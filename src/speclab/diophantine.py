"""Exact continued-fraction arithmetic and Diophantine exponents.

The frequency alpha is carried as an exact rational enclosure [lo, hi]
(width ~2^-700 for the built-in constants), so every statement about
``dist(q_n * alpha, Z)`` can be decided with big-integer arithmetic.
Floating point enters only when a quantity is reported, and in the
bounded screen of `dc_membership`, which picks the terms that are then
decided exactly.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import (
    ContractViolation,
    InsufficientDepth,
    Overflow,
    PrecisionExhausted,
    ThetaInSingularOrbit,
    ValidationError,
)

DEFAULT_BITS = 768

# big-int budget for synthesized frequencies: ln(q) may not exceed this
MAX_LOG_Q = 3.0e5

_SINGULAR_ORBIT_TOL = 1e-12


def _sqrt_interval(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of sqrt(n) with width 2^-bits."""
    scale = 1 << bits
    s = isqrt(n * scale * scale)
    return Fraction(s, scale), Fraction(s + 1, scale)


def _to_interval(alpha, bits: int = DEFAULT_BITS) -> tuple[Fraction, Fraction, str]:
    """Turn an alpha spec into an exact enclosure of its fractional part."""
    if isinstance(alpha, str):
        name = alpha.strip().lower()
        if name in ("golden", "phi"):
            lo, hi = _sqrt_interval(5, bits)
            return (lo - 1) / 2, (hi - 1) / 2, "golden"
        if name in ("sqrt2", "silver"):
            lo, hi = _sqrt_interval(2, bits)
            return lo - 1, hi - 1, "sqrt2"
        x = Fraction(name)  # decimal literal, taken as exact
        x -= math.floor(x)
        return x, x, f"rational:{name}"
    if isinstance(alpha, Fraction):
        x = alpha - math.floor(alpha)
        return x, x, "rational"
    if isinstance(alpha, float):
        x = Fraction(alpha)
        x -= math.floor(x)
        return x, x, "float"
    if isinstance(alpha, tuple) and len(alpha) == 2:
        lo, hi = Fraction(alpha[0]), Fraction(alpha[1])
        f = math.floor(lo)
        return lo - f, hi - f, "interval"
    raise ValidationError(f"cannot interpret alpha spec {alpha!r}")


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients a_1..a_M and exact convergents of an irrational in (0,1).

    lo/hi is a rational enclosure certifying every stored quotient: all
    reals in [lo, hi] share the expansion a_1..a_M.
    """

    quotients: tuple
    p: tuple
    q: tuple
    lo: Fraction
    hi: Fraction
    source: str = ""

    @property
    def depth(self) -> int:
        return len(self.quotients)

    @property
    def proxy(self) -> Fraction:
        """Deepest convergent, used as the exact stand-in for alpha."""
        if self.lo == self.hi:
            return self.lo
        return Fraction(self.p[-1], self.q[-1])

    @property
    def value(self) -> float:
        return float(self.lo + (self.hi - self.lo) / 2)

    def norm_interval(self, k: int, x=Fraction(0)) -> tuple[Fraction, Fraction]:
        """Exact enclosure of dist(k*alpha - x, Z)."""
        lo, hi = k * self.lo - x, k * self.hi - x
        if k < 0:
            lo, hi = hi, lo
        m = round(lo + (hi - lo) / 2)
        a, b = lo - m, hi - m
        # enclosure must not straddle a half-integer for a clean answer
        if b - a >= Fraction(1, 2):
            raise PrecisionExhausted(f"enclosure too wide for |k|={abs(k)}")
        va, vb = abs(a), abs(b)
        if a <= 0 <= b:
            return Fraction(0), max(va, vb)
        return min(va, vb), max(va, vb)

    def to_json(self) -> dict:
        return {
            "quotients": list(self.quotients),
            "p": [str(x) for x in self.p],
            "q": [str(x) for x in self.q],
            "value": self.value,
            "source": self.source,
        }


def _from_quotients(quotients, lo, hi, source) -> ContinuedFraction:
    p, q = [], []
    pm1, pm2 = 0, 1      # p_0, p_{-1}
    qm1, qm2 = 1, 0      # q_0, q_{-1}
    for a in quotients:
        pm1, pm2 = a * pm1 + pm2, pm1
        qm1, qm2 = a * qm1 + qm2, qm1
        p.append(pm1)
        q.append(qm1)
    return ContinuedFraction(tuple(quotients), tuple(p), tuple(q), lo, hi, source)


def expand(alpha, depth: int, bits: int = DEFAULT_BITS) -> ContinuedFraction:
    """Expand alpha to `depth` certified partial quotients.

    alpha may be a named constant ("golden", "sqrt2"), a decimal string,
    a float, a Fraction, or an exact (lo, hi) enclosure. Raises
    PrecisionExhausted when the enclosure cannot certify the next
    quotient, or when a rational input terminates early.
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    lo0, hi0, source = _to_interval(alpha, bits)
    lo, hi = lo0, hi0
    quotients = []
    for n in range(1, depth + 1):
        if lo <= 0:
            if hi <= 0 and lo == hi:
                raise PrecisionExhausted(
                    f"expansion terminated after {n - 1} quotients: input is "
                    "rational to working precision"
                )
            raise PrecisionExhausted(f"cannot certify quotient a_{n}")
        # x in (0,1): a = floor(1/x); 1/x is decreasing so bounds swap
        a_hi = math.floor(1 / lo)
        a_lo = math.floor(1 / hi) if hi < 1 else 0
        if a_lo != a_hi:
            raise PrecisionExhausted(f"cannot certify quotient a_{n}")
        a = a_lo
        quotients.append(a)
        lo, hi = 1 / hi - a, 1 / lo - a
    return _from_quotients(quotients, lo0, hi0, source)


# ---------------------------------------------------------------------------
# growth exponent of the denominators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaEstimate:
    value: float
    depth: int
    per_level: tuple   # ln(q_{n+1})/q_n for n = 1..depth-1

    def to_json(self) -> dict:
        return {"value": self.value, "depth": self.depth,
                "per_level": list(self.per_level)}


def _per_level(cf: ContinuedFraction) -> list:
    return [math.log(cf.q[n + 1]) / cf.q[n] for n in range(len(cf.q) - 1)]


def _trailing_max(levels: list, window: int | None) -> float:
    """max over the last `window` levels (finite limsup surrogate);
    window=None keeps every level after n=3 (all levels when fewer exist)."""
    if window is not None:
        return max(levels[-window:])
    return max(levels[3:] if len(levels) > 3 else levels)


def beta(cf: ContinuedFraction, window: int | None = None) -> BetaEstimate:
    """max of ln(q_{n+1})/q_n over a trailing window (see _trailing_max).

    The full per-level sequence is reported so non-convergence is visible.
    """
    levels = _per_level(cf)
    if window is not None and cf.depth < window + 2:
        raise InsufficientDepth(
            f"need at least {window + 2} convergents, have {cf.depth}")
    if not levels:
        raise InsufficientDepth("need at least 2 convergents")
    return BetaEstimate(_trailing_max(levels, window), cf.depth, tuple(levels))


def _exp_int(x: float) -> int:
    """Integer approximation of e^x for large x (relative error ~1e-10)."""
    if x < 700:
        return round(math.exp(x))
    m = int(x // math.log(2))
    r = x - m * math.log(2)
    mant = int(math.exp(r) * (1 << 53))
    return (mant << m) >> 53


def synth_alpha(target_beta: float, levels: int,
                q2: int | None = None) -> ContinuedFraction:
    """Synthesize quotients so ln(q_{n+1})/q_n tracks target_beta for n >= 2.

    Returns the exact rational p_M/q_M together with the quotient list;
    q_n grows doubly exponentially so only a handful of levels fit the
    big-integer budget. q2 overrides the second denominator (smallest
    admissible value: the integer rounding must stay inside the 5% band,
    which needs target_beta * q2 >= ln(10 / target_beta)); smaller q2
    keeps the later denominators iterable.
    """
    if target_beta <= 0:
        raise ValidationError("target_beta must be positive; use a "
                              "bounded-quotient frequency for beta = 0")
    if levels < 3:
        raise ValidationError("need at least 3 levels")
    if q2 is None:
        # default seed keeps the rounding error e^{-beta*q_2}/2 well below
        # 5% of target_beta
        need = max(4.5, math.log(10.0 / target_beta))
        a2 = max(2, math.ceil(need / target_beta))
    else:
        if q2 < 2:
            raise ValidationError("q2 must be at least 2")
        a2 = q2 - 1
    quotients = [1, a2]
    q_prev2, q_prev = 1, a2 + 1          # q_1, q_2
    for _ in range(2, levels):
        if q_prev > MAX_LOG_Q / target_beta:
            raise Overflow(
                f"ln(q_next) ~ {target_beta:.3g} * q with q ~ 2^"
                f"{q_prev.bit_length()} exceeds budget {MAX_LOG_Q:.0e}")
        x = target_beta * q_prev
        a = max(1, (_exp_int(x) - q_prev2) // q_prev)
        quotients.append(a)
        q_prev2, q_prev = q_prev, a * q_prev + q_prev2
    cf = _from_quotients(quotients, Fraction(0), Fraction(0), f"synth:{target_beta}")
    exact = Fraction(cf.p[-1], cf.q[-1])
    cf = ContinuedFraction(cf.quotients, cf.p, cf.q, exact, exact, cf.source)
    for n in range(1, len(cf.q) - 1):   # generated levels must hit the band
        r = math.log(cf.q[n + 1]) / cf.q[n]
        if not (0.95 * target_beta <= r <= 1.05 * target_beta):
            raise ContractViolation(
                f"synthesized level {n + 1} missed the 5% band: {r:.4f}")
    return cf


# ---------------------------------------------------------------------------
# phase-dependent exponent and Diophantine membership
# ---------------------------------------------------------------------------

def check_theta(cf: ContinuedFraction, theta: float, singular_phases,
                k_range: int) -> None:
    """Decide that theta is farther than 1e-12 from theta_j + k alpha + Z
    for every singular phase theta_j and |k| <= K = k_range.

    A hit forces k p = r (mod q), p/q the deepest convergent with q <= K
    (0/1 below q_1), for the few integers r within q tol + K |q alpha - p|
    of (theta - theta_j) q; those k are decided against alpha's enclosure,
    phase by phase and k upwards (see README)."""
    K = int(k_range)
    n = bisect_right(cf.q, K)
    p, q = (cf.p[n - 1], cf.q[n - 1]) if n else (0, 1)
    err = max(abs(q * cf.lo - p), abs(q * cf.hi - p))
    if K * err >= 1:
        raise InsufficientDepth(f"|k| <= {K} needs convergents beyond q_{cf.depth}")
    tol = Fraction(_SINGULAR_ORBIT_TOL)
    eta, p_inv = q * tol + K * err, pow(p, -1, q)
    for tj in singular_phases:
        x = (Fraction(theta) - Fraction(tj)) % 1
        rs = range(math.ceil(x * q - eta), math.floor(x * q + eta) + 1)
        k = -K - 1      # step to the least k' > k with k' p = r (mod q)
        while rs and (k := k + 1 + min((r * p_inv - k - 1) % q for r in rs)) <= K:
            lo, hi = cf.norm_interval(k, x)
            if hi < tol:
                raise ThetaInSingularOrbit(
                    f"theta within {_SINGULAR_ORBIT_TOL} of phase {tj} + {k}*alpha")
            if lo < tol:
                raise PrecisionExhausted(
                    f"enclosure too wide to decide phase {tj} + {k}*alpha")


def delta_c(cf: ContinuedFraction, theta: float, singular_phases,
            depth: int, window: int | None = None) -> float:
    """Phase-refined growth exponent: max over levels n <= depth of
    (sum_j ln dist(q_n (theta - theta_j), Z) + ln q_{n+1}) / q_n.

    Uses the same trailing-window rule as beta() (_trailing_max), applied
    to the levels up to `depth`, so with no singular phases and depth covering
    the full expansion the result equals beta bit-for-bit. Per-level
    values are accessible via delta_c_levels().
    """
    levels = delta_c_levels(cf, theta, singular_phases, depth)
    if window is not None and window > len(levels):
        raise InsufficientDepth(
            f"window {window} exceeds {len(levels)} computed levels")
    return _trailing_max(levels, window)


def delta_c_levels(cf: ContinuedFraction, theta: float, singular_phases,
                   depth: int) -> list:
    n_levels = min(depth, cf.depth - 1)
    if n_levels < 1:
        raise InsufficientDepth("need at least 2 convergents")
    if singular_phases:
        check_theta(cf, theta, singular_phases, cf.q[min(depth, cf.depth) - 1])
    # dist(q_n x, Z) = min(r, den - r) / den with r = q_n num mod den, for
    # x = num/den = theta - theta_j exactly; int / int is correctly
    # rounded, as float(Fraction) is
    ratios = [(Fraction(theta) - Fraction(tj)).as_integer_ratio()
              for tj in singular_phases]
    out = []
    for n in range(n_levels):
        qn = cf.q[n]
        val = math.log(cf.q[n + 1]) / qn
        for num, den in ratios:
            r = qn * num % den
            d = min(r, den - r)
            # theta excluded from the singular orbits, but q_n*(theta-theta_j)
            # can still be tiny; that is the phenomenon being measured
            val += math.log(d / den) / qn if d else -math.inf
        out.append(val)
    return out


def dc_membership(cf: ContinuedFraction, phi: float, tau: float,
                  m_max: int) -> float:
    """min over 0 < |m| <= m_max of dist(2 phi - m alpha, Z) * (1+|m|)^tau.

    A value near zero means the rotation number fails the Diophantine
    condition at this scan depth; the caller picks the interpretation.

    alpha is the proxy p/q. A float screen keeps the few m whose value
    can still be the least: with x = 2 phi mod 1 and p/q each correctly
    rounded, dist(x -+ m fl(p/q), Z) is within (m + 1) 2^-51 of the exact
    distance, and a relative 1e-12 covers the rounding of the weights and
    of the products. The exact rule then decides every kept m, so the
    result is that of the full exact scan, bit for bit.
    """
    try:
        m_max = operator.index(m_max)
    except TypeError:
        raise ValidationError(f"m_max must be an integer, got {m_max!r}") \
            from None
    if not (math.isfinite(phi) and math.isfinite(tau)):
        raise ValidationError(f"phi {phi!r} and tau {tau!r} must be finite")
    if tau <= 1:
        raise ValidationError("tau must exceed 1")
    if m_max < 1:
        raise ValidationError("m_max must be >= 1")
    try:
        float(1 + m_max) ** tau       # the largest weight
    except OverflowError:
        raise ValidationError(f"(1 + m_max)^tau overflows at m_max = "
                              f"{m_max}, tau = {tau}") from None
    # dist(2 phi - s p/q, Z) = min(r, den - r) / den with the integer
    # r = (a q - s p b) mod den, where 2 phi = a/b and den = b q; one
    # correctly rounded division gives the float of the exact distance
    pr = cf.proxy
    a, b = (Fraction(phi) * 2).as_integer_ratio()
    ms = np.arange(1, m_max + 1)
    signed = np.stack([ms, -ms])
    t = a % b / b - signed * (pr.numerator / pr.denominator)
    dist = np.abs(t - np.round(t))
    slack = (ms + 1) * 2.0 ** -51
    weight = (1.0 + ms) ** tau
    upper = np.min((dist + slack) * weight) * (1 + 1e-12)
    kept = signed[(dist - slack) * weight * (1 - 1e-12) <= upper]
    den = b * pr.denominator
    aq, pb = a * pr.denominator, pr.numerator * b
    best = math.inf
    for s in kept.tolist():
        r = (aq - s * pb) % den
        v = min(r, den - r) / den * float(1 + abs(s)) ** tau
        if v < best:
            best = v
    return best
