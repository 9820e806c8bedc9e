"""Extended Harper model: parameter regions, duality map, closed-form
Lyapunov exponent, dual symbol factorization, and the phase-transition
experiment driver."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .cocycles import JacobiModel
from .diophantine import ContinuedFraction, beta
from .errors import InvalidParameters, NotRegionOne, ValidationError
from .symbols import TorusSymbol, cosine_potential, from_dict, winding, zeros_on_torus

_EDGE_TOL = 1e-12


def hopping_symbol(lam, alpha: float) -> TorusSymbol:
    l1, l2, l3 = lam
    return from_dict({-1: l1, 0: l2, 1: l3}, half_phase=True, alpha=alpha)


def ehm_model(lam, alpha: ContinuedFraction) -> JacobiModel:
    """H u_n = c(.+n a) u_{n+1} + conj c(.+(n-1)a) u_{n-1} + 2cos(2 pi .) u_n."""
    return JacobiModel(hopping_symbol(lam, alpha.value), cosine_potential(2.0),
                       alpha)


def amo_model(coupling: float, alpha: ContinuedFraction) -> JacobiModel:
    return ehm_model((0.0, coupling, 0.0), alpha)


def sigma(lam) -> tuple:
    """Duality map (l1, l2, l3) -> (l3/l2, 1/l2, l1/l2); an involution."""
    l1, l2, l3 = lam
    if l2 == 0:
        raise InvalidParameters("the duality map needs l2 != 0")
    return (l3 / l2, 1.0 / l2, l1 / l2)


@dataclass(frozen=True)
class PhasePoint:
    lam: tuple
    region: str           # "I" | "II" | "III" | "boundary"
    singular_case: str    # "nonsingular" | "two_zeros" | "one_zero"
    singular_phases: tuple  # torus zeros of the hopping, before any alpha shift

    def shifted_phases(self, alpha: float) -> tuple:
        return tuple((t - alpha / 2.0) % 1.0 for t in self.singular_phases)


def classify(lam) -> PhasePoint:
    """Assign the coupling region and the singular-zero case.

    Points within 1e-12 of a region edge are labeled "boundary". The
    singular phases are reported for the half-phase variable theta + a/2,
    use shifted_phases() for the torus positions at a given frequency.
    """
    l1, l2, l3 = lam
    if min(l1, l3) < 0 or l2 <= 0:
        raise InvalidParameters("need l1, l3 >= 0 and l2 > 0")
    s = l1 + l3
    m = max(s, l2)
    if abs(m - 1.0) <= _EDGE_TOL or abs(s - l2) <= _EDGE_TOL:
        region = "boundary"
    elif m < 1.0:
        region = "I"
    elif l2 > max(s, 1.0):
        region = "II"
    else:
        region = "III"

    if abs(l1 - l3) <= _EDGE_TOL and l1 >= l2 / 2.0 - _EDGE_TOL and l1 > 0:
        case = "two_zeros"
        x = -l2 / (2.0 * l1)
        t = math.acos(max(-1.0, min(1.0, x))) / (2.0 * math.pi)
        phases = tuple(sorted({t % 1.0, (-t) % 1.0}))
    elif abs(l1 - l3) > _EDGE_TOL and abs(s - l2) <= _EDGE_TOL:
        case = "one_zero"
        phases = (0.5,)
    else:
        case = "nonsingular"
        phases = ()
    return PhasePoint((l1, l2, l3), region, case, phases)


def lyapunov_closed_form(lam) -> float:
    """Spectrum-constant Lyapunov exponent in the isotropic region.

    ln[(1 + sqrt(1 - 4 l1 l3)) / (max(l1+l3, l2) + sqrt(max(..)^2 - 4 l1 l3))]
    """
    pp = classify(lam)
    if pp.region != "I":
        raise NotRegionOne(f"{lam} is in region {pp.region}")
    l1, l2, l3 = lam
    m = max(l1 + l3, l2)
    return math.log((1.0 + math.sqrt(1.0 - 4.0 * l1 * l3)) /
                    (m + math.sqrt(m * m - 4.0 * l1 * l3)))


def dual_symbol(lam, alpha: float):
    """Hopping symbol of the dual family, its z-plane roots, and winding.

    The factorized roots are (-1 +- sqrt(1 - 4 l1 l3)) / (2 l1) for l1 > 0;
    winding is 0 throughout region I.
    """
    l1, l2, l3 = lam
    d = hopping_symbol(sigma(lam), alpha)
    zer = zeros_on_torus(d)
    w = None
    if len(zer.on_circle) == 0:
        w = winding(d)
    return d, zer, w


# ---------------------------------------------------------------------------
# phase-transition experiment
# ---------------------------------------------------------------------------

# verdict thresholds are experiment conventions, overridable per call and
# echoed into every report
TRANSITION_DEFAULTS = {
    "decay_band": 0.20,        # relative half-width around L(lambda)
    "decay_r2": 0.90,
    "gordon_pass_rate": 0.90,
    "ipr_factor": 10.0,        # sc side: median ipr < factor/(2N+1)
    "min_q": 100,              # verdicts with q_max below this are downgraded
    "beta_margin": 0.05,       # refuse a verdict when |beta - L| is below this
}


def _iqr(x):
    if len(x) == 0:
        return float("nan")
    lo, hi = np.percentile(x, [25, 75])
    return float(hi - lo)


def transition_experiment(lam, alpha_cf: ContinuedFraction, N: int,
                          seed: int = 0, n_phases: int = 32,
                          thresholds: dict | None = None,
                          q_cap: int = 5000) -> dict:
    """Localization diagnostics on both sides of the growth-rate competition.

    Collects eigenfunction decay rates and participation ratios at window
    N, and three-vector escape rates at the two largest usable convergent
    levels; the verdict compares the frequency exponent against the
    closed-form cocycle exponent under declared thresholds.
    """
    th = dict(TRANSITION_DEFAULTS)
    if thresholds:
        th.update(thresholds)
    pp = classify(lam)
    L = lyapunov_closed_form(lam)   # raises outside region I
    model = ehm_model(lam, alpha_cf)
    beta_est = beta(alpha_cf, window=min(6, alpha_cf.depth - 2))

    rng = np.random.default_rng(int(seed))
    thetas = rng.random(n_phases)

    rates, r2s, iprs = [], [], []
    energy_pool = []
    rejected = 0            # fits refused: peak near the edge, range too short
    for _, sd, keep in ops.phase_pool(model, N, thetas):
        energy_pool.extend(sd.eigenvalues[keep].tolist())
        iprs.extend(ops.iprs(sd, keep).tolist())
        more_rates, more_r2s, refused = ops.middle_decay_fits(sd, keep)
        rates += more_rates
        r2s += more_r2s
        rejected += refused
        sd = None

    # three-vector escape test at the two largest usable levels
    gordon = []
    usable = [n for n in range(1, alpha_cf.depth - 1)
              if alpha_cf.q[n] <= q_cap]
    for lvl in usable[-2:]:
        passes = trials = 0
        for i, theta in enumerate(thetas):
            E = float(energy_pool[int(rng.integers(len(energy_pool)))])
            rep = ops.gordon_test(model, float(theta), E, alpha_cf,
                                  level=lvl + 1, phi_count=8)
            trials += 1
            passes += bool(rep.passed)
        gordon.append({"level": lvl + 1, "q": alpha_cf.q[lvl],
                       "pass_rate": passes / trials})

    decay_median = float(np.median(rates)) if rates else float("nan")
    r2_median = float(np.median(r2s)) if r2s else float("nan")
    ipr_median = float(np.median(iprs)) if iprs else float("nan")
    q_max = max((g["q"] for g in gordon), default=0)
    best_pass = max((g["pass_rate"] for g in gordon), default=0.0)

    verdict = "inconclusive"
    if abs(beta_est.value - L) >= th["beta_margin"]:
        pp_side = (rates and
                   abs(decay_median - L) <= th["decay_band"] * L and
                   r2_median > th["decay_r2"])
        sc_side = (best_pass >= th["gordon_pass_rate"] and
                   ipr_median < th["ipr_factor"] / (2 * N + 1))
        if pp_side and not sc_side:
            verdict = "pp-side"
        elif sc_side and not pp_side:
            verdict = "sc-side"
    if verdict == "sc-side" and q_max < th["min_q"]:
        verdict = "inconclusive"

    from . import __version__

    return {
        "lambda": list(lam),
        "region": pp.region,
        "L_lambda": L,
        "beta": beta_est.value,
        "verdict": verdict,
        "decay": {"median": decay_median, "iqr": _iqr(rates),
                  "r2_median": r2_median, "rejected": rejected},
        "ipr": {"median": ipr_median, "iqr": _iqr(iprs)},
        "gordon": gordon,
        "thresholds": th,
        "provenance": {"seeds": [int(seed)], "N": N,
                       "n_phases": n_phases, "alpha": alpha_cf.to_json(),
                       "versions": {"speclab": __version__}},
    }


def atlas_rows(l13_grid, l2_grid, ratio: float = 1.0) -> list:
    """Classification table over a (l1+l3, l2) grid; l1/l3 = ratio.

    Each row: l1, l2, l3, region, singular case, closed-form exponent in
    region I (empty otherwise), dual-symbol winding when defined.
    """
    if not ratio >= 0.0:
        raise ValidationError(f"ratio l1/l3 must be >= 0, got {ratio}")
    rows = []
    for s in l13_grid:
        for l2 in l2_grid:
            l1 = s * ratio / (1.0 + ratio)
            l3 = s - l1
            try:
                pp = classify((l1, l2, l3))
            except InvalidParameters:
                continue
            try:
                L = lyapunov_closed_form((l1, l2, l3))
            except (NotRegionOne, InvalidParameters):
                L = None
            try:
                _, _, w = dual_symbol((l1, l2, l3), 0.0)
            except ValidationError:
                w = None
            rows.append({"l1": l1, "l2": l2, "l3": l3,
                         "region": pp.region, "singular": pp.singular_case,
                         "L": L, "dual_winding": w})
    return rows
