"""Reference values and checkers, computed apart from speclab.

Nothing here imports speclab: the closed-form exponent, the Fibonacci
convergents of the golden mean, the singular phases of the two-zeros
extended Harper coupling, the orbit-distance scan and the cocycle and
conjugacy evaluations are coded from the paper's formulas. Each checker
returns ``(ok, detail)`` so the benchmark can report every failure and the
tests can show that a wrong value is rejected.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
ORBIT_TOL = 1e-12          # speclab's singular-orbit tolerance


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def ehm_lyapunov(lam) -> float:
    """Closed-form Lyapunov exponent of the extended Harper model in the
    positive-exponent region; ln(1/l2) for the almost Mathieu operator
    (l1 = l3 = 0), which is ln 2 at l2 = 1/2."""
    l1, l2, l3 = lam
    if l1 == 0.0 and l3 == 0.0:
        return math.log(1.0 / l2)
    m = max(l1 + l3, l2)
    return math.log((1.0 + math.sqrt(1.0 - 4.0 * l1 * l3)) /
                    (m + math.sqrt(m * m - 4.0 * l1 * l3)))


def sigma(lam) -> tuple:
    """Duality map (l1, l2, l3) -> (l3/l2, 1/l2, l1/l2)."""
    l1, l2, l3 = lam
    return (l3 / l2, 1.0 / l2, l1 / l2)


def fibonacci_convergents(depth: int) -> tuple:
    """(p_n, q_n), n = 1..depth, of the golden mean [0; 1, 1, 1, ...]:
    q_n = F_{n+1}, p_n = F_n with F_1 = F_2 = 1."""
    p, q = [], []
    a, b = 1, 1                       # F_n, F_{n+1}
    for _ in range(depth):
        p.append(a)
        q.append(b)
        a, b = b, a + b
    return p, q


def fibonacci_beta(depth: int, levels: int) -> float:
    """max over the trailing levels n >= 4 (of the first `levels`) of
    ln q_{n+1} / q_n for the golden mean."""
    _, q = fibonacci_convergents(depth)
    per_level = [math.log(q[n + 1]) / q[n] for n in range(levels)]
    tail = per_level[3:] if len(per_level) > 3 else per_level
    return max(tail)


def singular_phases(lam, alpha: float) -> tuple:
    """Torus zeros of the two-zeros hopping (l1 = l3 >= l2/2):
    theta_j = +-acos(-l2 / 2 l1) / 2 pi - alpha/2 (mod 1), sorted."""
    l1, l2, _ = lam
    t = math.acos(-l2 / (2.0 * l1)) / TWO_PI
    return tuple(sorted(((t - alpha / 2.0) % 1.0, (-t - alpha / 2.0) % 1.0)))


def orbit_distance(theta: float, phases, k_range: int, p: int, q: int) -> float:
    """min over phases and |k| <= k_range of dist(theta - theta_j - k p/q, Z).

    k p mod q is exact in integers; only the final subtraction is rounded.
    """
    ks = np.arange(-k_range, k_range + 1, dtype=np.int64)
    frac = np.mod(ks * p, q) / q
    best = math.inf
    for tj in phases:
        x = (theta - tj) % 1.0
        d = np.abs(x - frac)
        d = np.minimum(d, 1.0 - d)
        best = min(best, float(np.min(d)))
    return best


def dc_gamma(phi: float, tau: float, m_max: int, p: int, q: int) -> float:
    """min over 0 < |m| <= m_max of dist(2 phi - m p/q, Z) (1 + |m|)^tau."""
    ms = np.arange(1, m_max + 1, dtype=np.int64)
    frac = np.mod(ms * p, q) / q
    x = (2.0 * phi) % 1.0
    best = math.inf
    for d in (np.abs(x - frac), np.abs(x - (1.0 - frac) % 1.0)):
        d = np.minimum(d, 1.0 - d)
        best = min(best, float(np.min(d * (1.0 + ms) ** tau)))
    return best


def ehm_hopping(lam, alpha: float, theta) -> np.ndarray:
    """c(theta) = l1 e^{-2 pi i (theta + a/2)} + l2 + l3 e^{2 pi i (theta + a/2)}."""
    l1, l2, l3 = lam
    z = np.exp(2j * np.pi * (np.asarray(theta, dtype=float) + alpha / 2.0))
    return l1 / z + l2 + l3 * z


def normalized_cocycle(lam, alpha: float, energy: float, theta) -> np.ndarray:
    """Determinant-one EHM cocycle built from the exact modulus |c| on the
    real torus, shape (len(theta), 2, 2)."""
    th = np.asarray(theta, dtype=float)
    a = np.abs(ehm_hopping(lam, alpha, th))
    b = np.abs(ehm_hopping(lam, alpha, th - alpha))
    s = np.sqrt(a * b)
    out = np.zeros(th.shape + (2, 2))
    out[..., 0, 0] = (energy - 2.0 * np.cos(TWO_PI * th)) / s
    out[..., 0, 1] = -b / s
    out[..., 1, 0] = a / s
    return out


def rotation(phi: float) -> np.ndarray:
    c, s = math.cos(TWO_PI * phi), math.sin(TWO_PI * phi)
    return np.array([[c, -s], [s, c]])


def fourier_eval(coeffs, theta) -> np.ndarray:
    """sum_k coeffs[k + K] e^{2 pi i k theta} for modes |k| <= K."""
    coeffs = np.asarray(coeffs)
    K = (coeffs.shape[-1] - 1) // 2
    ks = np.arange(-K, K + 1)
    return coeffs @ np.exp(2j * np.pi * np.outer(ks, np.asarray(theta)))


def conjugacy_residual(z_coeffs, alpha: float, rho: float, cocycle,
                       theta) -> float:
    """max over theta of ||B(theta + alpha) A(theta) - R_rho B(theta)||_F,
    with B's columns read from the complexified coordinates z_j = B_1j +
    i B_2j and A(theta) = cocycle(theta)."""
    def B(th):
        z = fourier_eval(z_coeffs, th)
        out = np.empty((len(th), 2, 2))
        out[:, 0, 0], out[:, 1, 0] = z[0].real, z[0].imag
        out[:, 0, 1], out[:, 1, 1] = z[1].real, z[1].imag
        return out

    th = np.asarray(theta, dtype=float)
    resid = B(th + alpha) @ cocycle(th) - rotation(rho)[None] @ B(th)
    return float(np.max(np.linalg.norm(resid, axis=(1, 2))))


def random_sl2(rng) -> np.ndarray:
    """Random SL(2, R) matrix with determinant bounded away from zero
    before normalization."""
    while True:
        m = rng.normal(size=(2, 2))
        det = float(np.linalg.det(m))
        if abs(det) >= 0.3:
            break
    if det < 0:
        m = m[:, ::-1].copy()
    return m / math.sqrt(abs(det))


# ---------------------------------------------------------------------------
# checkers: (ok, detail)
# ---------------------------------------------------------------------------

def check_lyapunov(value: float, stderr: float, reference: float) -> tuple:
    err = abs(value - reference)
    tol = max(1e-2, 2.0 * stderr)
    return err <= tol, f"|L_num - L_closed| = {err:.2e} (<= {tol:.1e})"


def check_strip(values) -> tuple:
    worst = max(values)
    return worst <= 1e-2, f"max L(eps) over the strip = {worst:.2e} (<= 1e-2)"


def check_ids_rotation(n_of_e, rho) -> tuple:
    sup = float(np.max(np.abs(np.asarray(n_of_e) - (1.0 - 2.0 * np.asarray(rho)))))
    return sup <= 1e-2, f"sup|N(E) - (1 - 2 rho)| = {sup:.2e} (<= 1e-2)"


def check_ids_shape(n_of_e) -> tuple:
    n = np.asarray(n_of_e)
    ok = bool(np.all(np.diff(n) >= 0) and n[0] == 0.0 and n[-1] == 1.0)
    return ok, f"N(E) nondecreasing from {n[0]:.3g} to {n[-1]:.3g}"


def check_duality(hausdorff: float, kolmogorov: float) -> tuple:
    ok = hausdorff <= 2e-2 and kolmogorov <= 2e-2
    return ok, (f"Hausdorff {hausdorff:.2e}, Kolmogorov {kolmogorov:.2e} "
                "(<= 2e-2)")


def check_transition(code: int, result: dict, reference: float) -> tuple:
    if code != 0:
        return False, f"exit code {code}"
    med = result["decay"]["median"]
    r2 = result["decay"]["r2_median"]
    ok = (result["verdict"] == "pp-side"
          and abs(med - reference) <= 0.2 * reference and r2 > 0.9
          and abs(result["L_lambda"] - reference) <= 1e-12)
    return ok, (f"verdict {result['verdict']}, decay median {med:.4f} vs "
                f"L {reference:.4f} (within 20%), r2 median {r2:.3f} (> 0.9), "
                f"reported L {result['L_lambda']:.12f}")


def check_orbit_scan(raised: bool, distance: float) -> tuple:
    """The program's on-orbit verdict must match the independent scan;
    distances too close to the tolerance to decide count as a failure."""
    if 0.1 * ORBIT_TOL < distance < 10.0 * ORBIT_TOL:
        return False, f"orbit distance {distance:.2e} too close to tolerance"
    expected = distance < ORBIT_TOL
    return raised == expected, (f"scan {'raised' if raised else 'passed'}; "
                                f"independent distance {distance:.2e}")


def check_delta(delta: float, beta_ref: float) -> tuple:
    return delta <= beta_ref + 1e-12, \
        f"off-orbit delta {delta:.4e} <= Fibonacci beta {beta_ref:.4e}"


def check_equal(name: str, got, expected) -> tuple:
    return list(got) == list(expected), f"{name} matches the reference"


def check_close(name: str, got, expected, tol: float) -> tuple:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(expected))))
    return err <= tol, f"{name} error {err:.2e} (<= {tol:.0e})"


def check_below(name: str, value: float, tol: float) -> tuple:
    return value <= tol, f"{name} {value:.2e} (<= {tol:.0e})"


def check_dual_eigenvector(residual: float, fit_residual: float) -> tuple:
    return residual <= 10.0 * fit_residual, \
        f"eigen-equation residual {residual:.2e} <= 10 x {fit_residual:.2e}"


def check_rotation_target(rho: float, target: float, degree: int,
                          alpha: float) -> tuple:
    dev = abs(rho - target - degree * alpha / 2.0) % 1.0
    dev = min(dev, 1.0 - dev)
    return dev <= 2e-3, f"rotation-target deviation {dev:.2e} (<= 2e-3)"
