"""Tracing of speclab's public functions from outside the library.

``Tracer.install`` replaces each traced function in every speclab module
that binds it, names rebound by ``from .cocycles import ...`` included, and
the traced methods on their classes; ``uninstall`` puts the originals back.
Each call records a span (id, name, start, end, parent) and, at the same
boundary, the work counts of that layer. Self time is a span's duration
minus the time of its child spans. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

from speclab import cli, cocycles, diophantine, duality, ehm, operators
from speclab import reducibility, symbols

_CHECK_THETA_CAP = 100_000      # diophantine.check_theta's scan cap


def _bound(fn):
    """args, kwargs -> {parameter: value} with defaults applied."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bind


def _eval_counts(a, out, raised):
    points = int(np.size(a["theta"]))
    return {"points": points, "terms": points * len(a["self"].coeffs)}


def _eigensolve_counts(a, out, raised):
    vecs = None if raised else out.eigenvectors
    return {"calls": 1, "sites": a["op"].size,
            "vector_mb": 0.0 if vecs is None else vecs.nbytes / 1e6}


def _fit_counts(a, out, raised):
    cols = 2 * (2 * a["K_B"] + 1)
    rows = 2 * a["grid"] + (cols if a["regularization"] > 0 else 0)
    return {"svd_cells": rows * cols}


TRACED = [
    ("symbols.eval", symbols.TorusSymbol, "eval"),
    ("symbols.modulus_symbol", symbols, "modulus_symbol"),
    ("cocycles.matrices", cocycles.Cocycle, "matrices"),
    ("cocycles.orbit_phases", cocycles, "orbit_phases"),
    ("cocycles.lyapunov", cocycles, "lyapunov"),
    ("cocycles.rotation_sweep", cocycles, "rotation_sweep"),
    ("operators.build", operators, "build"),
    ("operators.eigensolve", operators, "eigensolve"),
    ("operators.interior_indices", operators, "interior_indices"),
    ("operators.decay_rate", operators, "decay_rate"),
    ("operators.ipr", operators, "ipr"),
    ("operators.gordon_test", operators, "gordon_test"),
    ("diophantine.expand", diophantine, "expand"),
    ("diophantine.check_theta", diophantine, "check_theta"),
    ("diophantine.dc_membership", diophantine, "dc_membership"),
    ("duality.lattice_bands", duality.DualModel, "lattice_bands"),
    ("duality.duality_checks", duality, "duality_checks"),
    ("reducibility.fit_conjugacy", reducibility, "fit_conjugacy"),
    ("reducibility.solve_cohomology", reducibility, "solve_cohomology"),
    ("reducibility.dual_eigenvector_from_conjugacy", reducibility,
     "dual_eigenvector_from_conjugacy"),
    ("ehm.transition_experiment", ehm, "transition_experiment"),
    ("cli.run", cli, "run"),
    ("cli.write_json", cli, "write_json"),
]
# Counters run at the end of every call, raised or not, on the arguments
# bound to their parameter names (defaults applied).
COUNTERS = {
    "symbols.eval": _eval_counts,
    "cocycles.matrices":
        lambda a, out, raised: {"count": int(np.size(a["thetas"]))},
    "cocycles.lyapunov":
        lambda a, out, raised: {"steps": a["n_iter"] * a["n_phases"]},
    "cocycles.rotation_sweep":
        lambda a, out, raised: {"steps": a["n_iter"] * len(a["energies"])},
    "operators.eigensolve": _eigensolve_counts,
    "operators.interior_indices":
        lambda a, out, raised: {} if raised else
        {"kept": len(out), "states": len(a["sd"].eigenvalues)},
    "operators.decay_rate":
        lambda a, out, raised: {"attempts": 1, "fits": int(not raised)},
    # a scan that stops at an orbit point counts its whole range
    "diophantine.check_theta":
        lambda a, out, raised: {"k_scanned": (
            2 * min(int(a["k_range"]), _CHECK_THETA_CAP) + 1)
            * len(a["singular_phases"])},
    "diophantine.dc_membership":
        lambda a, out, raised: {"m_scanned": 2 * a["m_max"]},
    "reducibility.fit_conjugacy": _fit_counts,
}
_MODULES = [m for n, m in sys.modules.items()
            if n == "speclab" or n.startswith("speclab.")]


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans = []                 # [id, name, start, end, parent]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []                # [span id, child seconds]
        self._saved = []
        self._t0 = time.perf_counter()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        bind = _bound(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            span = [sid, name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append([sid, 0.0])
            out, raised = None, True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = time.perf_counter()
                _, child = tracer._stack.pop()
                span[2], span[3] = start - tracer._t0, end - tracer._t0
                tracer.self_s[name] += (end - start) - child
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                if counter:
                    for key, val in counter(bind(args, kwargs), out,
                                            raised).items():
                        tracer.counts[f"{name}.{key}"] += val
        return traced

    def install(self) -> None:
        for name, owner, attr in TRACED:
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            if inspect.isclass(owner):
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in _MODULES:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def snapshot(self) -> dict:
        """Totals so far: self seconds per layer and the work counts."""
        out = {f"{name}.self_s": s for name, s in self.self_s.items()}
        out.update(self.counts)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)
