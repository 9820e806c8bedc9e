"""Command-line front end: config parsing, experiment dispatch, sweeps,
and artifact persistence (JSON + RFC-4180 CSV, atomic writes).

Exit codes: 0 success, 2 validation error, 3 numeric-contract violation,
4 resource exhaustion. SPECLAB_THREADS (or --threads) sets the sweep
fan-out; results are byte-identical across thread counts.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import cocycles as coc
from . import diophantine as dio
from . import duality as dua
from . import ehm
from . import operators as ops
from . import reducibility as red
from .errors import (ContractViolation, ResourceExhausted, SpeclabError,
                     ValidationError)
from .symbols import from_dict, winding, zeros_on_torus

REQUIRED = object()   # table default of a parameter that must be given


def fmt(x):
    """Floats with 17 significant digits; containers recursively."""
    if isinstance(x, float):
        return float(f"{x:.17g}")
    if isinstance(x, dict):
        return {k: fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [fmt(v) for v in x]
    return x


def parse_alpha(spec: str, depth: int = 40) -> dio.ContinuedFraction:
    s = str(spec)
    try:
        if s.startswith("beta:"):
            parts = s.split(":")[1:]
            target = float(parts[0])
            levels = int(parts[1]) if len(parts) > 1 else 4
            q2 = int(parts[2]) if len(parts) > 2 else None
            return dio.synth_alpha(target, levels, q2=q2)
        if s.startswith("quotients:"):
            quots = [int(t) for t in s.split(":", 1)[1].split(",")]
            if min(quots) < 1:
                raise ValueError("partial quotients must be >= 1")
            return dio._from_quotients(quots, None, None, "quotients")
        return dio.expand(s, depth)
    except (ValueError, ArithmeticError) as exc:
        raise ValidationError(f"bad alpha {s!r}: {exc}") from None


def _count(v, least: int = 1) -> int:
    """An integer >= least, also when written as a float ("1e5")."""
    f = float(v)
    if f < least or not f.is_integer():
        raise ValueError(f"{v!r} is not an integer >= {least}")
    return int(f)


def _finite(v) -> float:
    """A float that is neither nan nor infinite."""
    f = float(v)
    if not math.isfinite(f):
        raise ValueError(f"{v!r} is not finite")
    return f


def _natural(v) -> int:
    """A count for which zero is meaningful (a seed, a constant conjugacy)."""
    return _count(v, 0)


def _bool(v) -> bool:
    """true or false."""
    return {True: True, False: False, "true": True, "false": False}[v]


# _grid and _mode also take the resolved lists that a manifest records,
# so that cli.run(manifest["config"]) runs again

def _grid(spec) -> list:
    """lo:hi:n, or a non-empty list of values."""
    if isinstance(spec, (list, tuple)) and spec:
        return [_finite(v) for v in spec]
    lo, hi, n = str(spec).split(":")
    return np.linspace(_finite(lo), _finite(hi), _count(n)).tolist()


def _mode(spec) -> tuple:
    """k:amp, or [k, amp]."""
    k, amp = spec if isinstance(spec, (list, tuple)) else str(spec).split(":")
    return int(k), _finite(amp)


def _thresholds(th: dict) -> dict:
    # an unknown name raises KeyError; values take the default's type
    return {k: (_finite if isinstance(ehm.TRANSITION_DEFAULTS[k], float)
                else int)(v) for k, v in dict(th).items()}


def parse_lambda(spec) -> tuple:
    parts = spec if isinstance(spec, (list, tuple)) else str(spec).split(",")
    vals = [_finite(v) for v in parts]
    if len(vals) != 3:
        raise ValidationError(f"lambda needs three components, got {spec!r}")
    return tuple(vals)


def _atomic_write(path: str, data: bytes) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    """Strict JSON: a nan or infinite value is a ContractViolation."""
    try:
        text = json.dumps(fmt(obj), indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ContractViolation(f"{os.path.basename(path)}: {exc}") from None
    _atomic_write(path, (text + "\n").encode())


def write_csv(path: str, header, rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)           # RFC-4180: CRLF, quoting as needed
    w.writerow(header)
    for row in rows:
        w.writerow([f"{x:.17g}" if isinstance(x, float) else x for x in row])
    _atomic_write(path, buf.getvalue().encode())


def config_hash(config: dict) -> str:
    """Hash of what fixes a run's results: command, resolved params, seed."""
    key = {k: config[k] for k in ("command", "params", "seed")}
    blob = json.dumps(fmt(key), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# command implementations: (resolved params, seed, out_dir) -> result dict
# ---------------------------------------------------------------------------

def _model_from(p, dual=False):
    lam, cf = p["lambda"], parse_alpha(p["alpha"])
    return lam, cf, ehm.ehm_model(ehm.sigma(lam) if dual else lam, cf)


def _energy_range(p, model):
    hull = model.sup_bound() + 0.5
    return (-hull if p["e_min"] is None else p["e_min"],
            hull if p["e_max"] is None else p["e_max"])


def _cmd_beta(p, seed, out_dir):
    cf = parse_alpha(p["alpha"], p["depth"])
    est = dio.beta(cf, p["window"])
    rows = [(n + 1, v) for n, v in enumerate(est.per_level)]
    write_csv(os.path.join(out_dir, "per_level.csv"),
              ["level", "ln_q_next_over_q"], rows)
    return {"beta": est.to_json(), "alpha": cf.to_json()}


def _cmd_winding(p, seed, out_dir):
    lam, cf, model = _model_from(p)
    w = winding(model.c, p["grid"])
    zer = zeros_on_torus(model.c)
    return {"winding": w,
            "roots": [[z.real, z.imag] for z in zer.roots],
            "on_circle_phases": list(zer.torus_phases)}


def _cmd_lyapunov(p, seed, out_dir):
    lam, cf, model = _model_from(p, p["dual"])
    E = p["energy"] if p["energy"] is not None else \
        float(ops.spectrum_samples(model, 1, N=600, n_theta=4)[0])
    co = coc.Cocycle(model, E, kind=p["kind"], epsilon=p["epsilon"])
    est = coc.lyapunov(co, p["n_iter"], p["n_phases"], seed)
    return {"estimate": est.to_json(), "energy": E, "lambda": list(lam)}


def _cmd_ids(p, seed, out_dir):
    lam, cf, model = _model_from(p, p["dual"])
    e_min, e_max = _energy_range(p, model)
    grid = np.linspace(e_min, e_max, p["n_e"])
    curve = ops.ids(model, grid, p["N"], p["n_phases"], seed)
    write_csv(os.path.join(out_dir, "ids.csv"), ["E", "N_of_E"], curve.rows())
    return {"N": curve.N, "n_phases": curve.n_phases,
            "e_range": [e_min, e_max]}


def _cmd_rotation(p, seed, out_dir):
    lam, cf, model = _model_from(p)
    grid = np.linspace(*_energy_range(p, model), p["n_e"])
    rhos = coc.rotation_sweep(model, grid, p["n_iter"])
    write_csv(os.path.join(out_dir, "rotation.csv"), ["E", "rho"],
              list(zip(grid.tolist(), rhos.tolist())))
    return {"n_e": len(grid)}


def _cmd_duality_check(p, seed, out_dir):
    lam, cf, model = _model_from(p)
    ref = ehm.ehm_model(ehm.sigma(lam), cf)
    rep = dua.duality_checks(model, lam[1], ref, p["N"], p["n_phases"], seed)
    return {"hausdorff": rep.hausdorff,
            "hausdorff_half_window": rep.hausdorff_half_window,
            "kolmogorov": rep.kolmogorov,
            "kolmogorov_half_window": rep.kolmogorov_half_window,
            "N": rep.N, "n_phases": rep.n_phases}


def _cmd_cohomology(p, seed, out_dir):
    cf = parse_alpha(p["alpha"])
    k_out = p["k_out"]
    if p["rhs_mode"] is not None:
        k, amp = p["rhs_mode"]
        rhs = from_dict({k: amp, -k: amp})
        k_out = max(k_out, abs(k))
    elif p["lambda"] is not None:
        d = ehm.ehm_model(ehm.sigma(p["lambda"]), cf).c
        rhs = red.phase_rhs(d, k_out)
    else:
        raise ValidationError("cohomology needs lambda or rhs_mode")
    sol = red.solve_cohomology(rhs, cf, k_out)
    # a right-hand side with no mode past 0 meets no divisor: floor null
    floor = sol.small_divisor_floor
    return {"residual_sup": sol.residual_sup,
            "small_divisor_floor": floor if math.isfinite(floor) else None,
            "k_out": k_out}


def _cmd_conjugacy(p, seed, out_dir):
    cf = parse_alpha(p["alpha"])
    model = ehm.ehm_model(ehm.sigma(p["lambda"]), cf)   # subcritical dual side
    E = p["energy"]
    if E is None:
        cands = ops.spectrum_samples(model, 8, N=800, n_theta=4)
        rhos = coc.rotation_sweep(model, cands, p["n_iter"])
        gammas = [dio.dc_membership(cf, float(r), p["tau"], p["m_max"])
                  for r in rhos]
        best = int(np.argmax(gammas))
        # the sweep's rho at the same theta0 = 0 and n_iter
        E, rho = float(cands[best]), float(rhos[best])
    co = coc.Cocycle(model, E, kind="normalized")
    if p["energy"] is not None:
        rho = coc.rotation_number(co, n_iter=p["n_iter"])
    cand = red.fit_conjugacy(co, rho, p["K_B"], p["grid"])
    out = {"candidate": cand.to_json(), "energy": E}
    if p["eigenvector"]:
        u, resid = red.dual_eigenvector_from_conjugacy(cand, co)
        out["eigenvector_residual"] = resid
    return out


def _cmd_gordon(p, seed, out_dir):
    lam, cf, model = _model_from(p)
    E = p["energy"] if p["energy"] is not None else \
        float(ops.spectrum_samples(model, 1, N=600, n_theta=4)[0])
    rep = ops.gordon_test(model, p["theta"], E, cf, p["level"], p["phi_count"])
    return {"q": rep.q, "passed": rep.passed,
            "min_max_norm": rep.min_max_norm,
            "trace_log_abs": rep.trace_log_abs,
            "det_abs": rep.det_abs, "det_direct": rep.det_direct,
            "cayley_residual": rep.cayley_residual,
            "product_bound": rep.product_bound, "energy": E}


def _cmd_transition(p, seed, out_dir):
    return ehm.transition_experiment(
        p["lambda"], parse_alpha(p["alpha"]), p["N"], seed=seed,
        n_phases=p["n_phases"], thresholds=p["thresholds"], q_cap=p["q_cap"])


def _cmd_atlas(p, seed, out_dir):
    rows = ehm.atlas_rows(p["l13"], p["l2"], p["ratio"])
    write_csv(os.path.join(out_dir, "atlas.csv"),
              ["l1", "l2", "l3", "region", "singular", "L", "dual_winding"],
              [(r["l1"], r["l2"], r["l3"], r["region"], r["singular"],
                "" if r["L"] is None else r["L"],
                "" if r["dual_winding"] is None else r["dual_winding"])
               for r in rows])
    return {"rows": len(rows)}


# ---------------------------------------------------------------------------
# the parameter table, {command: (handler, {param: (parser, default)})};
# a default of None means that the handler derives the value
# ---------------------------------------------------------------------------

_MODEL = {"lambda": (parse_lambda, REQUIRED), "alpha": (str, "golden")}
_E_GRID = {"e_min": (_finite, None), "e_max": (_finite, None),
           "n_e": (_count, 50)}

COMMANDS = {
    "beta": (_cmd_beta, {"alpha": (str, REQUIRED), "depth": (_count, 30),
                         "window": (_count, None)}),
    "winding": (_cmd_winding, {**_MODEL, "grid": (_count, 4096)}),
    "lyapunov": (_cmd_lyapunov, {
        **_MODEL, "energy": (_finite, None), "kind": (str, "normalized"),
        "n_iter": (_count, 100_000), "n_phases": (_count, 8),
        "epsilon": (_finite, 0.0), "dual": (_bool, False)}),
    "ids": (_cmd_ids, {**_MODEL, **_E_GRID, "N": (_count, 500),
                       "n_phases": (_count, 8), "dual": (_bool, False)}),
    "rotation": (_cmd_rotation, {**_MODEL, **_E_GRID,
                                 "n_iter": (_count, 200_000)}),
    "duality-check": (_cmd_duality_check, {**_MODEL, "N": (_count, 500),
                                           "n_phases": (_count, 8)}),
    "cohomology": (_cmd_cohomology, {
        **_MODEL, "lambda": (parse_lambda, None), "k_out": (_count, 48),
        "rhs_mode": (_mode, None)}),
    "conjugacy": (_cmd_conjugacy, {
        **_MODEL, "energy": (_finite, None), "K_B": (_natural, 64),
        "grid": (_count, 1024), "n_iter": (_count, 400_000),
        "tau": (_finite, 2.0), "m_max": (_count, 10_000),
        "eigenvector": (_bool, False)}),
    "gordon": (_cmd_gordon, {
        **_MODEL, "theta": (_finite, 0.137), "energy": (_finite, None),
        "level": (_count, 8), "phi_count": (_count, 8)}),
    "transition": (_cmd_transition, {
        **_MODEL, "N": (_count, 2000), "n_phases": (_count, 32),
        "thresholds": (_thresholds, None), "q_cap": (_count, 5000)}),
    "atlas": (_cmd_atlas, {"l13": (_grid, (0.2, 0.5, 0.8, 1.2)),
                           "l2": (_grid, (0.3, 0.6, 0.9, 1.5)),
                           "ratio": (_finite, 1.0)}),
}

_FLAGS = ("alpha", "lambda", "depth", "energy", "N", "n_iter", "n_phases",
          "level", "K_B")


# ---------------------------------------------------------------------------
# run / sweep drivers
# ---------------------------------------------------------------------------

def _validate(config: dict) -> dict:
    """The config with every parameter parsed from the table or defaulted."""
    cmd = config.get("command")
    if cmd not in COMMANDS:
        raise ValidationError(f"unknown command {cmd!r}")
    table = COMMANDS[cmd][1]
    given = dict(config.get("params", {}))
    unknown = set(given) - set(table)
    if unknown:
        raise ValidationError(f"unknown parameter keys {sorted(unknown)}")
    params = {}
    for name, (parse, default) in table.items():
        value = given.get(name, default)
        if value is REQUIRED:
            raise ValidationError(f"{cmd} needs parameter {name!r}")
        if value is not default:     # so an explicit null keeps a None default
            try:
                value = parse(value)
            except (ValueError, TypeError, ArithmeticError, LookupError) as exc:
                raise ValidationError(f"bad {name} {value!r}: {exc}") from None
        params[name] = value
    threads = config.get("threads", "auto")
    if threads == "auto":
        threads = os.environ.get("SPECLAB_THREADS", 1)
    try:
        seed = _natural(config.get("seed", 0))
        threads = max(1, _natural(threads))
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"bad seed or threads: {exc}") from None
    return {"command": cmd, "params": params, "seed": seed,
            "out_dir": config.get("out_dir", "."), "threads": threads}


def run(config: dict) -> int:
    """Execute one command; write manifest + result artifacts; exit code.
    A MemoryError exits 4; any other error that is not a SpeclabError is
    recorded, then propagates."""
    try:
        config = _validate(config)
    except SpeclabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"config": config, "version": __version__,
                "config_hash": config_hash(config), "status": "ok",
                "error": None}
    handler = COMMANDS[config["command"]][0]
    try:
        result = handler(config["params"], config["seed"], out_dir)
        write_json(os.path.join(out_dir, "result.json"), result)
    except BaseException as exc:
        manifest.update(status="error", error=f"{type(exc).__name__}: {exc}")
        if not isinstance(exc, (SpeclabError, MemoryError)):
            raise
        sys.stderr.write(f"error: {manifest['error']}\n")
        return getattr(exc, "exit_code", ResourceExhausted.exit_code)
    finally:
        write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return 0


def _expand_axes(axes: dict) -> list:
    """Cartesian grid over {key: [values...]} in sorted-key order."""
    keys = sorted(axes)
    points = [{}]
    for k in keys:
        points = [dict(p, **{k: v}) for p in points for v in axes[k]]
    return points


def _parse_axis(spec: str) -> tuple:
    try:
        key, vals = spec.split("=", 1)
        if ":" in vals:
            return key, _grid(vals)
    except ValueError:
        raise ValidationError("--axis needs key=v1,v2,... or key=lo:hi:n, "
                              f"got {spec!r}") from None
    out = []
    for tok in vals.split(","):
        try:
            out.append(float(tok) if "." in tok or "e" in tok.lower()
                       else int(tok))
        except ValueError:
            out.append(tok)
    return key, out


def sweep(template: dict, axes: dict) -> int:
    """One sub-run per grid point with derived seeds; resumable by
    manifest hash; emits an index CSV joining parameters to artifacts.
    Exits 3 if a point exits 3, else with the points' largest exit code."""
    points = _expand_axes(axes)
    given = template.get("params", {})
    try:
        if not points:
            raise ValidationError("a sweep axis has no values")
        # the axes may supply parameters that the template leaves out
        checked = _validate(dict(template, params=dict(given, **points[0])))
    except SpeclabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    base = checked["out_dir"]
    os.makedirs(base, exist_ok=True)
    jobs = []
    for i, point in enumerate(points):
        cfg = {"command": checked["command"],
               "params": dict(given, **point),
               "seed": checked["seed"] + i,
               "out_dir": os.path.join(base, f"point_{i:04d}"),
               "threads": 1}
        jobs.append((i, point, cfg))

    def should_skip(cfg):
        try:
            with open(os.path.join(cfg["out_dir"], "manifest.json")) as fh:
                m = json.load(fh)
            return (m.get("status") == "ok" and
                    m.get("config_hash") == config_hash(_validate(cfg)))
        except (OSError, ValueError, SpeclabError):
            return False

    def work(job):
        i, point, cfg = job
        if should_skip(cfg):
            return i, point, cfg, 0, True
        return i, point, cfg, run(cfg), False

    if checked["threads"] == 1:
        done = [work(j) for j in jobs]
    else:
        with ThreadPoolExecutor(max_workers=checked["threads"]) as pool:
            done = list(pool.map(work, jobs))

    rows = []
    keys = sorted(axes)
    for i, point, cfg, code, skipped in sorted(done):
        rows.append([i] + [point[k] for k in keys] + [cfg["seed"],
                    os.path.relpath(cfg["out_dir"], base),
                    "skipped" if skipped else ("ok" if code == 0 else
                                               f"exit{code}")])
    write_csv(os.path.join(base, "index.csv"),
              ["index"] + keys + ["seed", "path", "status"], rows)
    codes = [job[3] for job in done]
    return 3 if 3 in codes else max(codes)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def command_help(cmd: str) -> str:
    """The help of `speclab <cmd> --help`: each parameter of the command's
    table with its parser and default, and its flag where it has one."""
    rows = [(name, parse.__name__.lstrip("_"),
             "required" if default is REQUIRED else
             "derived" if default is None else
             default if isinstance(default, str) else json.dumps(default),
             "--" + name.replace("_", "-") if name in _FLAGS else "")
            for name, (parse, default) in COMMANDS[cmd][1].items()]
    widths = [max(len(row[i]) for row in rows) for i in range(3)] + [0]
    lines = [f"usage: speclab {cmd} [--set KEY=VALUE]... [--config FILE] "
             "[--out-dir DIR] [--seed SEED] [--threads N]", "",
             "parameters (a derived default is the command's own choice):"]
    lines += ["  " + "  ".join(f"{col:<{w}}" for col, w in
                              zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="speclab", add_help=False,
        description="quasiperiodic Jacobi operator laboratory")
    p.add_argument("-h", "--help", action="store_true",
                   help="show this help, or with a command its parameters")
    p.add_argument("command", nargs="?", choices=tuple(COMMANDS) + ("sweep",))
    p.add_argument("--config", help="JSON config file (flags override)")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", default=None)
    p.add_argument("--axis", action="append", default=[],
                   help="sweep axis key=v1,v2,... or key=lo:hi:n")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="set a command parameter")
    for name in _FLAGS:
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       help=f"same as --set {name}=...")
    return p


def _config_from_args(args) -> tuple:
    config = {"command": None, "params": {}, "seed": 0, "out_dir": ".",
              "threads": "auto"}
    if args.config:
        try:
            with open(args.config) as fh:
                config.update(json.load(fh))
            config["params"] = dict(config["params"])
        except (OSError, ValueError, TypeError) as exc:
            raise ValidationError(
                f"cannot read config {args.config}: {exc}") from None
    if args.command != "sweep":
        config["command"] = args.command
    # sweeps take the template command from the config file
    for key, val in (("out_dir", args.out_dir), ("seed", args.seed),
                     ("threads", args.threads)):
        if val is not None:
            config[key] = val
    for name in _FLAGS:
        if getattr(args, name) is not None:
            config["params"][name] = getattr(args, name)
    for item in args.set:
        if "=" not in item:
            raise ValidationError(f"--set needs KEY=VALUE, got {item!r}")
        k, v = item.split("=", 1)
        try:
            config["params"][k] = json.loads(v)
        except json.JSONDecodeError:
            config["params"][k] = v
    axes = dict(_parse_axis(a) for a in args.axis)
    return config, axes


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.help:
        if args.command in COMMANDS:
            sys.stdout.write(command_help(args.command))
        else:
            parser.print_help()
        return 0
    if args.command is None:
        parser.error("the following arguments are required: command")
    try:
        config, axes = _config_from_args(args)
        if args.command == "sweep" and not axes:
            raise ValidationError("sweep needs at least one --axis")
    except SpeclabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    return sweep(config, axes) if args.command == "sweep" else run(config)


if __name__ == "__main__":
    sys.exit(main())
