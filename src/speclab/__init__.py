"""speclab: numerical laboratory for quasiperiodic Jacobi operators.

Continued-fraction arithmetic and Diophantine exponents, torus Fourier
symbols with certified winding numbers, transfer-matrix cocycles with
Lyapunov/rotation-number estimators, finite operator truncations with
localization diagnostics, the lattice-torus duality transforms, and
cohomology/conjugacy machinery, plus an extended-Harper front end.
"""

__version__ = "0.1.0"

from .cocycles import (                               # noqa: F401
    Cocycle,
    CocycleEstimate,
    JacobiModel,
    ScaledMatrix,
    finite_product,
    finite_product_inv,
    lyapunov,
    lyapunov_strip,
    orbit_phases,
    rotation_number,
    rotation_sweep,
)
from .diophantine import (                            # noqa: F401
    BetaEstimate,
    ContinuedFraction,
    beta,
    dc_membership,
    delta_c,
    delta_c_levels,
    expand,
    synth_alpha,
)
from .duality import (                                # noqa: F401
    DualModel,
    GridField,
    duality_checks,
    duality_residual,
    dualize,
    shift_field,
    u_k,
    u_r,
    u_r_inv,
)
from .ehm import (                                    # noqa: F401
    PhasePoint,
    amo_model,
    classify,
    dual_symbol,
    ehm_model,
    lyapunov_closed_form,
    sigma,
    transition_experiment,
)
from .operators import (                              # noqa: F401
    GordonReport,
    IdsCurve,
    SpectralData,
    TruncatedOperator,
    build,
    decay_fits,
    decay_rate,
    eigensolve,
    gordon_test,
    ids,
    ipr,
    iprs,
    spectrum_proxy,
    spectrum_samples,
)
from .reducibility import (                           # noqa: F401
    CohomologySolution,
    ConjugacyCandidate,
    degree,
    dual_eigenvector_from_conjugacy,
    fit_conjugacy,
    mc_conjugation_check,
    solve_cohomology,
)
from .symbols import (                                # noqa: F401
    SymbolZeros,
    TorusSymbol,
    modulus_symbol,
    twist,
    winding,
    zeros_on_torus,
)
