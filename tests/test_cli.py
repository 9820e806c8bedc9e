import json
import os
import subprocess
import sys

import pytest

from speclab import cli
from speclab.errors import ContractViolation

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def run_cli(args, threads=None):
    env = dict(ENV)
    if threads is not None:
        env["SPECLAB_THREADS"] = str(threads)
    return subprocess.run([sys.executable, "-m", "speclab.cli", *args],
                          capture_output=True, text=True, env=env)


def test_beta_run_writes_artifacts(tmp_path):
    out = tmp_path / "beta"
    r = run_cli(["beta", "--alpha", "golden", "--depth", "20",
                 "--out-dir", str(out)])
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["params"]["alpha"] == "golden"
    result = json.loads((out / "result.json").read_text())
    assert result["beta"]["value"] < 0.5
    assert (out / "per_level.csv").read_text().startswith(
        "level,ln_q_next_over_q")


LAM = ["--lambda", "0.1,0.5,0.2"]
MALFORMED = {
    "short-lambda": ["winding", "--lambda", "0.1,0.5"],
    "winding-no-lambda": ["winding"],
    "beta-no-alpha": ["beta"],
    "bad-alpha": ["beta", "--alpha", "foo"],
    "bad-depth": ["beta", "--alpha", "golden", "--set", "depth=abc"],
    "bad-n_iter": ["lyapunov", *LAM, "--set", "n_iter=abc"],
    "bad-n_e": ["ids", *LAM, "--set", "n_e=x"],
    "bad-theta": ["gordon", *LAM, "--set", "theta=abc"],
    "non-numeric-lambda": ["lyapunov", "--lambda", "a,b,c"],
    "bad-rhs_mode": ["cohomology", "--set", "rhs_mode=8101"],
    "bad-l13": ["atlas", "--set", "l13=1:2"],
    "bad-thresholds": ["transition", *LAM, "--set", "thresholds=3"],
    "missing-config": ["beta", "--alpha", "golden",
                       "--config", "/nonexistent.json"],
    "axis-without-values": ["sweep", "--axis", "depth"],
    "zero-n_phases": ["duality-check", *LAM, "--N", "10", "--n-phases", "0"],
    "zero-n_iter": ["rotation", *LAM, "--n-iter", "0", "--set", "n_e=2"],
    "quotient-below-1": ["beta", "--alpha", "quotients:-1,2"],
    # modes of B alias on a grid of fewer than 2 K_B + 1 points
    "conjugacy-grid-below-2K_B+1": ["conjugacy", *LAM, "--K-B", "32",
                                    "--set", "grid=16", "--energy", "0.3",
                                    "--n-iter", "2000"],
    # (1 + m_max)^tau overflows in the energy selection's Diophantine scan
    "conjugacy-tau-400": ["conjugacy", *LAM, "--set", "tau=400",
                          "--set", "m_max=10", "--n-iter", "2000"],
    # l1 = s ratio / (1 + ratio): a division by zero at -1, and no row
    # with l1, l3 >= 0 for any other negative ratio
    "atlas-ratio-minus-1": ["atlas", "--set", "ratio=-1"],
    "atlas-ratio-minus-0.5": ["atlas", "--set", "ratio=-0.5"],
}
# float parameters refuse nan and inf before any numerics run
MALFORMED.update({
    f"{cmd}-{key}-{val}": [cmd, *args, "--set", f"{key}={val}"]
    for cmd, args, key in (("conjugacy", LAM, "tau"),
                           ("conjugacy", LAM, "energy"),
                           ("lyapunov", LAM, "energy"),
                           ("lyapunov", LAM, "epsilon"),
                           ("gordon", LAM, "theta"),
                           ("ids", LAM, "e_min"),
                           ("rotation", LAM, "e_max"),
                           ("atlas", [], "ratio"))
    for val in ("nan", "inf")})
# a coupling with no finite coefficient sum, and an l2 = 0 under the
# duality map, are refused before any numerics run
MALFORMED.update({
    f"{cmd}-lambda-{lam}": [cmd, "--lambda", lam]
    for lam in ("nan,0.5,0.2", "inf,0.5,0.2", "1e308,0.5,1e308")
    for cmd in ("winding", "lyapunov", "conjugacy", "gordon", "ids",
                "duality-check")})
MALFORMED.update({
    f"{cmd}-lambda-{lam}": [cmd, "--lambda", lam]
    for lam in ("0.1,0,0.2", "0,0,0")
    for cmd in ("duality-check", "cohomology", "conjugacy")})


@pytest.mark.parametrize("args", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_input_exits_2(args, tmp_path, capsys):
    code = cli.main(args + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    manifest = tmp_path / "manifest.json"
    assert not manifest.exists() or \
        json.loads(manifest.read_text())["status"] == "error"


@pytest.mark.parametrize("args", [
    ["--lambda", "0.3,0.5,0.3", "--energy", "0.31", "--set", "epsilon=0.01"],
], ids=["singular-strip"])
def test_lyapunov_rejected_input_exits_2(args, tmp_path, capsys):
    # a strip of a model whose hopping vanishes on the torus is refused
    # before any product is taken (non-finite energy or epsilon are
    # refused by the parameter table: see MALFORMED)
    code = cli.main(["lyapunov", *args, "--n-iter", "2000",
                     "--out-dir", str(tmp_path)])
    assert code == 2, capsys.readouterr().err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "error"


# s = sqrt(ab) overflows at lambda_1 = 1e200, and the products do at
# E = 1e308; numpy warns of the overflow before the product check refuses
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("cmd, lam, energy, extra", [
    ("lyapunov", "1e200,0.5,0.2", "0.3", ["--n-iter", "1000"]),
    ("lyapunov", "0.1,0.5,0.2", "1e308", ["--n-iter", "1000"]),
    ("gordon", "0.1,0.5,0.2", "1e308", [])],
    ids=["huge-lambda", "huge-energy", "gordon-huge-energy"])
def test_lyapunov_non_finite_product_exits_3(cmd, lam, energy, extra,
                                             tmp_path, capsys):
    code = cli.main([cmd, "--lambda", lam, "--energy", energy, *extra,
                     "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ContractViolation") and "theta = " in err
    assert err.count("\n") == 1, err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert not (tmp_path / "result.json").exists()


def test_memory_error_exits_4(tmp_path, monkeypatch, capsys):
    def exhausted(p, seed, out_dir):
        raise MemoryError("Unable to allocate 14.9 GiB")

    monkeypatch.setitem(cli.COMMANDS, "winding",
                        (exhausted, cli.COMMANDS["winding"][1]))
    code = cli.main(["winding", "--lambda", "0.6,0.2,0.1",
                     "--out-dir", str(tmp_path)])
    assert code == 4
    assert capsys.readouterr().err == \
        "error: MemoryError: Unable to allocate 14.9 GiB\n"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"] == "MemoryError: Unable to allocate 14.9 GiB"


def test_manifest_records_defaults_and_hash_ignores_them(tmp_path):
    assert cli.main(["beta", "--alpha", "golden",
                     "--out-dir", str(tmp_path / "a")]) == 0
    assert cli.main(["beta", "--alpha", "golden", "--set", "depth=30",
                     "--out-dir", str(tmp_path / "b")]) == 0
    a, b = (json.loads((tmp_path / d / "manifest.json").read_text())
            for d in "ab")
    assert a["config"]["params"] == {"alpha": "golden", "depth": 30,
                                     "window": None}
    assert a["config_hash"] == b["config_hash"]


@pytest.mark.parametrize("args", [
    ["atlas", "--set", "l13=0.1:1.4:3"],
    ["cohomology", "--set", "rhs_mode=3:0.5"],
], ids=["atlas", "cohomology-rhs_mode"])
def test_manifest_config_runs_again(args, tmp_path):
    assert cli.main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    config = dict(manifest["config"], out_dir=str(tmp_path / "b"))
    assert cli.run(config) == 0
    assert (tmp_path / "a" / "result.json").read_bytes() == \
        (tmp_path / "b" / "result.json").read_bytes()


def test_unknown_param_exits_2(tmp_path):
    r = run_cli(["beta", "--set", "bogus=1", "--out-dir", str(tmp_path)])
    assert r.returncode == 2


def test_contract_violation_exits_3(tmp_path):
    # resonant mode of a synthesized frequency blows up the solver
    r = run_cli(["cohomology", "--alpha", "beta:3.0:3",
                 "--set", "rhs_mode=8101:50.0", "--out-dir", str(tmp_path)])
    assert r.returncode == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "SmallDivisorBlowup" in manifest["error"]


def test_resource_exhaustion_exits_4(tmp_path):
    r = run_cli(["beta", "--alpha", "0.3", "--depth", "10",
                 "--out-dir", str(tmp_path)])
    assert r.returncode == 4


def test_winding_run(tmp_path):
    r = run_cli(["winding", "--lambda", "0.6,0.2,0.1",
                 "--out-dir", str(tmp_path)])
    assert r.returncode == 0, r.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["winding"] == -1


def test_gordon_run(tmp_path):
    r = run_cli(["gordon", "--lambda", "0.1,0.5,0.2", "--alpha", "golden",
                 "--energy", "0.31", "--level", "8",
                 "--out-dir", str(tmp_path)])
    assert r.returncode == 0, r.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["q"] == 34          # golden q_8
    assert result["cayley_residual"] < 1e-12


def test_transition_smoke_via_cli(tmp_path):
    r = run_cli(["transition", "--lambda", "0.1,0.5,0.2", "--alpha",
                 "golden", "--N", "240", "--n-phases", "4",
                 "--out-dir", str(tmp_path)])
    assert r.returncode == 0, r.stderr
    rep = json.loads((tmp_path / "result.json").read_text())
    for key in ("lambda", "region", "L_lambda", "beta", "verdict", "decay",
                "ipr", "gordon", "provenance"):
        assert key in rep
    assert rep["decay"]["rejected"] >= 0


def test_sweep_determinism_and_resume(tmp_path):
    base_a = tmp_path / "a"
    base_b = tmp_path / "b"
    args = ["sweep", "--set", "alpha=golden", "--seed", "7",
            "--axis", "depth=8,12,16,20"]
    # config file supplies the command for the sweep template
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "beta"}))
    r1 = run_cli(args + ["--config", str(cfg), "--out-dir", str(base_a)],
                 threads=1)
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli(args + ["--config", str(cfg), "--out-dir", str(base_b)],
                 threads=3)
    assert r2.returncode == 0, r2.stderr

    index_a = (base_a / "index.csv").read_bytes()
    index_b = (base_b / "index.csv").read_bytes()
    assert index_a == index_b
    for point in ("point_0000", "point_0002"):
        assert (base_a / point / "result.json").read_bytes() == \
            (base_b / point / "result.json").read_bytes()
        assert (base_a / point / "per_level.csv").read_bytes() == \
            (base_b / point / "per_level.csv").read_bytes()

    # resume: completed points are skipped, removed ones recomputed
    removed = base_a / "point_0001" / "manifest.json"
    removed.unlink()
    r3 = run_cli(args + ["--config", str(cfg), "--out-dir", str(base_a)],
                 threads=1)
    assert r3.returncode == 0
    rows = (base_a / "index.csv").read_text().strip().splitlines()[1:]
    statuses = [row.split(",")[-1] for row in rows]
    assert statuses.count("skipped") == 3
    assert statuses.count("ok") == 1


def test_sweep_exits_with_worst_point(tmp_path):
    # grid=512 is below the winding certificate's minimum grid
    code = cli.sweep({"command": "winding",
                      "params": {"lambda": "0.6,0.2,0.1"},
                      "out_dir": str(tmp_path)}, {"grid": [512, 4096]})
    assert code == 2
    rows = (tmp_path / "index.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["exit2", "ok"]


def test_unexpected_error_writes_manifest_and_propagates(tmp_path,
                                                         monkeypatch):
    def boom(p, seed, out_dir):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "beta", (boom, cli.COMMANDS["beta"][1]))
    with pytest.raises(RuntimeError):
        cli.run({"command": "beta", "params": {"alpha": "golden"},
                 "out_dir": str(tmp_path)})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"] == "RuntimeError: boom"


def test_run_api_matches_subprocess(tmp_path):
    code = cli.run({"command": "beta",
                    "params": {"alpha": "sqrt2", "depth": 12},
                    "seed": 1, "out_dir": str(tmp_path / "api")})
    assert code == 0
    assert (tmp_path / "api" / "result.json").exists()


def test_conjugacy_reuses_the_sweep_rotation_number(tmp_path, monkeypatch):
    # with no energy given, rho of the chosen energy is the candidate
    # sweep's value at the same theta0 and n_iter: no second rotation run
    from speclab import cocycles as coc

    sweeps = []
    sweep = coc.rotation_sweep

    def recorded(model, energies, *args):
        sweeps.append((energies.tolist(), sweep(model, energies, *args)))
        return sweeps[-1][1]

    def refused(*args, **kwargs):
        raise AssertionError("rotation number computed twice")

    monkeypatch.setattr(coc, "rotation_sweep", recorded)
    monkeypatch.setattr(coc, "rotation_number", refused)
    assert cli.main(["conjugacy", *LAM, "--n-iter", "20000", "--K-B", "16",
                     "--set", "m_max=500", "--out-dir", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "result.json").read_text())
    (energies, rhos), = sweeps
    best = energies.index(result["energy"])
    assert result["candidate"]["rho_target"] == float(rhos[best])


# every command at a small size; the transition window of 7 sites refuses
# every decay fit, and a constant right-hand side meets no small divisor
TINY = {
    "beta": ["--alpha", "golden", "--depth", "10"],
    "winding": ["--lambda", "0.6,0.2,0.1"],
    "lyapunov": [*LAM, "--n-iter", "2000", "--n-phases", "1"],
    "ids": ["--lambda", "0,0.5,0", "--N", "20", "--n-phases", "2",
            "--set", "n_e=5"],
    "rotation": ["--lambda", "0,0.5,0", "--n-iter", "1000", "--set", "n_e=3"],
    "duality-check": [*LAM, "--N", "20", "--n-phases", "2"],
    "cohomology": ["--set", "rhs_mode=0:0"],
    "conjugacy": [*LAM, "--energy", "0.3", "--K-B", "8", "--n-iter", "2000",
                  "--set", "grid=64"],
    "gordon": [*LAM, "--energy", "0.31", "--level", "4"],
    "transition": ["--lambda", "0.3,0.5,0.3", "--N", "3", "--n-phases", "1"],
    "atlas": ["--set", "l13=0.2:0.8:2", "--set", "l2=0.3:0.9:2"],
}


def _refuse_constant(name):
    raise AssertionError(f"non-finite {name} in result.json")


@pytest.mark.parametrize("cmd", list(cli.COMMANDS))
def test_every_command_writes_strict_json(cmd, tmp_path):
    assert cli.main([cmd, *TINY[cmd], "--out-dir", str(tmp_path)]) == 0
    json.loads((tmp_path / "result.json").read_text(),
               parse_constant=_refuse_constant)


def test_transition_reports_null_for_refused_fits(tmp_path):
    assert cli.main(["transition", *TINY["transition"],
                     "--out-dir", str(tmp_path)]) == 0
    decay = json.loads((tmp_path / "result.json").read_text())["decay"]
    assert decay["median"] is decay["iqr"] is decay["r2_median"] is None
    assert decay["rejected"] > 0


def test_gordon_reports_null_for_zero_trace(tmp_path):
    # at theta = 0, E = 2 the product A_q of level 1 has trace exactly 0
    assert cli.main(["gordon", "--lambda", "0.1,0.5,0.2", "--set", "theta=0",
                     "--energy", "2", "--level", "1",
                     "--out-dir", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["trace_log_abs"] is None


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_refuses_non_finite(value, tmp_path):
    with pytest.raises(ContractViolation) as exc:
        cli.write_json(str(tmp_path / "result.json"), {"x": [1.0, value]})
    assert exc.value.exit_code == 3
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("cmd", list(cli.COMMANDS))
def test_command_help_names_its_parameters(cmd, capsys):
    assert cli.main([cmd, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: speclab {cmd} ")
    rows = out.split("\n\n", 1)[1].splitlines()[1:]
    assert [row.split()[0] for row in rows] == list(cli.COMMANDS[cmd][1])
    for row, (parse, default) in zip(rows, cli.COMMANDS[cmd][1].values()):
        assert row.split()[1] == parse.__name__.lstrip("_")
