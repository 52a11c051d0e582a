import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dwlab.cli
import dwlab.odi
from dwlab.cli import (ConfigError, ExperimentConfig, _config_record,
                       load_config, main, run_predict)
from dwlab.odi import OdiConfig, simulate_odi

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _modules_loaded_by_cli_import(*names):
    """Import dwlab.cli in a fresh interpreter; the loaded modules that are
    one of names or inside one of them, sorted."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dwlab.cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, dwlab.cli; "
            "print(dwlab.cli.__file__); "
            f"names = {names!r}; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in names))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == dwlab.cli.__file__
    return out[1]


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    assert _modules_loaded_by_cli_import("scipy") == "[]"


def test_cli_import_defers_pool_and_config_parser():
    # a one-worker run without a config file needs neither; the pool path
    # is covered by test_sweep_outputs_match_across_worker_counts
    assert _modules_loaded_by_cli_import("multiprocessing",
                                         "configparser") == "[]"


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def test_builtin_defaults_per_command():
    decay = load_config("decay")
    assert decay.p == 2.0 and decay.points == 32768
    sweep = load_config("sweep")
    assert sweep.p == 1.25
    assert sweep.moment_class == "M0_zero_M1_nonzero"
    assert sweep.eps_list[0] > sweep.eps_list[-1]


def test_config_file_and_overrides(tmp_path):
    ini = tmp_path / "lab.ini"
    ini.write_text("[sweep]\np = 1.5\neps_list = 0.5, 0.25\n"
                   "class = M0_nonzero\nout = results\npoints = 1024\n")
    cfg = load_config("sweep", path=str(ini))
    assert cfg.p == 1.5
    assert cfg.eps_list == (0.5, 0.25)
    assert cfg.moment_class == "M0_nonzero"
    assert cfg.out_dir == "results"
    assert cfg.points == 1024
    over = load_config("sweep", path=str(ini), overrides={"p": 2.5})
    assert over.p == 2.5


def test_default_section_applies_to_all_commands(tmp_path):
    ini = tmp_path / "lab.ini"
    ini.write_text("[DEFAULT]\nhorizon = 77\n")
    assert load_config("sweep", path=str(ini)).horizon == 77.0


def test_config_rejections(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[sweep]\nnot_a_key = 1\n")
    with pytest.raises(ConfigError):
        load_config("sweep", path=str(ini))
    ini.write_text("[sweep]\npoints = soon\n")
    with pytest.raises(ConfigError):
        load_config("sweep", path=str(ini))
    with pytest.raises(ConfigError):
        load_config("sweep", path=str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError):
        load_config("sweep", overrides={"eps_list": ()})
    with pytest.raises(ConfigError):
        load_config("sweep", overrides={"eps_list": (0.1, 0.2)})
    with pytest.raises(ConfigError):
        load_config("sweep", overrides={"eps_list": (0.1, -0.2)})
    with pytest.raises(ConfigError):
        load_config("sweep", overrides={"p": 3.5})
    with pytest.raises(ConfigError):
        load_config("sweep", overrides={"moment_class": "M5"})
    with pytest.raises(ConfigError):
        load_config("sweep", overrides={"workers": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig(command="dance")


def test_embedded_record_drops_execution_details():
    rec = _config_record(load_config("predict"))
    assert "workers" not in rec and "out_dir" not in rec
    assert rec["command"] == "predict"


# ----------------------------------------------------------------------
# commands through their runners
# ----------------------------------------------------------------------


def test_predict_writes_full_table(tmp_path):
    cfg = load_config("predict", overrides={"out_dir": str(tmp_path)})
    verdict, lines = run_predict(cfg)
    assert verdict == "pass"
    payload = json.loads((tmp_path / "predict.json").read_text())
    assert len(payload["rows"]) == 3 * len(cfg.eps_list)
    sub = [r for r in payload["rows"]
           if r["class"] == "M0_nonzero" and r["eps"] == 0.01]
    assert len(sub) == 1


def test_predict_known_values(tmp_path, capsys):
    # borderline exponent: the log-corrected closed form at eps = 0.01
    code = main(["predict", "--out", str(tmp_path / "a")])
    assert code == 0
    assert "68.9" in capsys.readouterr().out
    # plain power regime below the borderline
    code = main(["predict", "--p", "1.2", "--eps-list", "0.01",
                 "--out", str(tmp_path / "b")])
    assert code == 0
    payload = json.loads((tmp_path / "b" / "predict.json").read_text())
    row = [r for r in payload["rows"] if r["class"] == "M0_zero_M1_nonzero"]
    assert row[0]["T_pred"] == pytest.approx(0.01 ** (-0.25), rel=1e-12)


def test_verify_propagators_passes(tmp_path, capsys):
    code = main(["verify-propagators", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    statuses = {r["status"] for r in payload["rows"]}
    assert "fail" not in statuses
    assert "skipped" in statuses  # kernel comparison beyond its range
    assert "verdict: pass" in capsys.readouterr().out


def test_verify_propagators_reports_failure(tmp_path):
    ini = tmp_path / "lab.ini"
    ini.write_text("[verify-propagators]\npoints = 64\nhalf_width = 64\n")
    code = main(["verify-propagators", "--config", str(ini),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    payload = json.loads((tmp_path / "o" / "verify.json").read_text())
    assert any(r["status"] == "fail" for r in payload["rows"])


def test_decay_requires_room_for_window(tmp_path):
    ini = tmp_path / "lab.ini"
    ini.write_text("[decay]\nhorizon = 5\n")
    code = main(["decay", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert code == 2


def test_decay_infinite_horizon_is_a_config_error(tmp_path, capsys):
    # lifespan and sweep keep horizon = inf (march to blow-up); a decay
    # scan needs a finite end and refuses before making its directory
    ini = tmp_path / "lab.ini"
    ini.write_text("[decay]\nhorizon = inf\n")
    out = tmp_path / "o"
    code = main(["decay", "--config", str(ini), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_odi_report_schema(tmp_path, capsys, monkeypatch):
    # the fit reuses the marched times: one march per eps, all through
    # odi_scaling_fit's loop
    marched = []

    def counting(cfg):
        marched.append(cfg.eps)
        return simulate_odi(cfg)

    monkeypatch.setattr(dwlab.odi, "simulate_odi", counting)
    ini = tmp_path / "lab.ini"
    ini.write_text("[odi]\neps_list = 1e-2 3e-3 1e-3\nhorizon = 1e4\n")
    code = main(["odi", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert code == 0
    assert marched == [1e-2, 3e-3, 1e-3]
    fitrec = json.loads((tmp_path / "o" / "odi_fit.json").read_text())
    assert set(fitrec) == {"p", "beta", "gamma", "slope", "target_slope",
                           "r2"}
    csv = (tmp_path / "o" / "odi.csv").read_text().splitlines()
    assert csv[0] == "eps,blowup_time,steps"
    assert len(csv) == 4


def test_odi_rejects_short_eps_list_before_marching(tmp_path, capsys,
                                                  monkeypatch):
    marched = []
    monkeypatch.setattr(dwlab.odi, "simulate_odi", marched.append)
    out = tmp_path / "o"
    code = main(["odi", "--eps-list", "1e-2,1e-3", "--out", str(out)])
    assert code == 2
    assert "need at least 3 eps values" in capsys.readouterr().err
    assert marched == []
    assert not out.exists()


def test_odi_infinite_horizon_is_a_config_error(tmp_path, capsys):
    ini = tmp_path / "lab.ini"
    ini.write_text("[odi]\nhorizon = inf\n")
    out = tmp_path / "o"
    code = main(["odi", "--config", str(ini), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: horizon must be finite")
    assert not out.exists()


def test_odi_censored_run_is_unconverged(tmp_path, capsys):
    # the first eps survives: nothing blew up, so odi.csv is its header
    ini = tmp_path / "lab.ini"
    ini.write_text("[odi]\neps_list = 1e-2 3e-3 1e-3\nhorizon = 50\n")
    out = tmp_path / "o"
    code = main(["odi", "--config", str(ini), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out.splitlines() == [
        "eps=0.01 survived to horizon 50",
        "verdict: unconverged (censored blow-up time)"]
    assert (out / "odi.csv").read_text() == "eps,blowup_time,steps\n"
    fitrec = json.loads((out / "odi_fit.json").read_text())
    assert fitrec == {"p": 2.0, "beta": 0.0, "gamma": 0.0,
                      "censored_eps": 0.01, "horizon": 50.0}


def test_odi_censored_run_keeps_what_it_marched(tmp_path, capsys):
    # the march stops at the first survivor; the eps before it keep their
    # rows in odi.csv, with the solver steps each march took
    ini = tmp_path / "lab.ini"
    ini.write_text("[odi]\neps_list = 1e-2 3e-3 1e-3\nhorizon = 1000\n")
    out = tmp_path / "o"
    code = main(["odi", "--config", str(ini), "--out", str(out)])
    assert code == 2
    blown = [simulate_odi(OdiConfig(p=2.0, beta=0.0, eps=e, horizon=1000.0))
             for e in (1e-2, 3e-3)]
    assert capsys.readouterr().out.splitlines() == [
        f"eps=0.01 blowup_time={blown[0].blowup_time:.8g} "
        f"steps={blown[0].steps}",
        f"eps=0.003 blowup_time={blown[1].blowup_time:.8g} "
        f"steps={blown[1].steps}",
        "eps=0.001 survived to horizon 1000",
        "verdict: unconverged (censored blow-up time)"]
    assert (out / "odi.csv").read_text().splitlines() == [
        "eps,blowup_time,steps",
        f"0.01,{blown[0].blowup_time:.17g},{blown[0].steps}",
        f"0.0030000000000000001,{blown[1].blowup_time:.17g},"
        f"{blown[1].steps}"]
    fitrec = json.loads((out / "odi_fit.json").read_text())
    assert fitrec == {"p": 2.0, "beta": 0.0, "gamma": 0.0,
                      "censored_eps": 0.001, "horizon": 1000.0}


def test_odi_dt_is_an_unknown_config_key(tmp_path, capsys):
    # the march sets its own steps; the old uniform-grid key is rejected
    ini = tmp_path / "lab.ini"
    ini.write_text("[odi]\nodi_dt = 0.03125\n")
    out = tmp_path / "o"
    code = main(["odi", "--config", str(ini), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: unknown config key 'odi_dt'")
    assert not out.exists()


def test_lifespan_records(tmp_path, capsys):
    ini = tmp_path / "lab.ini"
    ini.write_text("[lifespan]\np = 1.5\neps_list = 0.5\nhorizon = 40\n")
    code = main(["lifespan", "--config", str(ini),
                 "--out", str(tmp_path / "o")])
    assert code == 0
    rec = json.loads((tmp_path / "o" / "run_000.json").read_text())
    for key in ("p", "eps", "class", "N", "L", "dt_min", "status",
                "T_low", "T_high", "steps", "attempts", "rejected_tol",
                "rejected_growth", "rejected_nonfinite", "forced_accepts",
                "regrids", "nl_rows", "accepted_dt_min", "accepted_dt_max",
                "edge_ratio", "tail_ratio", "points", "termination",
                "bracket"):
        assert key in rec
    assert rec["status"] == "blown_up"
    assert rec["termination"] == "extrapolated_root"
    assert rec["attempts"] >= rec["steps"] > 0
    assert rec["forced_accepts"] == 0
    trace = (tmp_path / "o" / "trace_000.csv").read_text().splitlines()
    assert trace[0] == "t,U,w_plus,w_minus"
    assert len(trace) == rec["steps"] + 1


def test_truncation_abort_names_what_tripped(tmp_path, capsys):
    # a box too small for the spreading bulk: both commands print when the
    # guard tripped, the edge ratio and boundary_tol, on stdout only
    ini = tmp_path / "lab.ini"
    ini.write_text("[DEFAULT]\np = 2.2\nclass = M0_nonzero\neps_list = 0.5\n"
                   "half_width = 8\npoints = 256\nhorizon = 100\n")
    for command in ("lifespan", "sweep"):
        out = tmp_path / command
        code = main([command, "--config", str(ini), "--out", str(out)])
        assert code == 2
        rec = json.loads((out / "run_000.json").read_text())
        assert rec["termination"] == "truncation"
        note = (f"t={rec['T_low']:.6g} edge_ratio={rec['edge_ratio']:.3g} "
                f"> boundary_tol=1e-06")
        stdout = capsys.readouterr().out.splitlines()
        if command == "lifespan":
            assert stdout[0].endswith(f" truncation at {note}")
        else:
            assert stdout[-1] == ("verdict: unconverged (truncation abort: "
                                  f"eps=0.5 {note})")
        assert "boundary_tol" not in (out / "run_000.json").read_text()


def test_sweep_outputs_match_across_worker_counts(tmp_path):
    ini = tmp_path / "lab.ini"
    ini.write_text("[sweep]\np = 1.5\neps_list = 0.5 0.4 0.3\n")
    outs, codes = [], []
    for workers, tag in ((1, "solo"), (2, "pool")):
        out = tmp_path / tag
        codes.append(main(["sweep", "--config", str(ini), "--out", str(out),
                           "--workers", str(workers)]))
        outs.append(out)
    # a 3-point ladder is too short to certify the borderline fit, so the
    # verdict may be fail; determinism requires identical bytes either way
    assert codes[0] == codes[1] and codes[0] in (0, 1)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "sweep.csv" in names and "fit.json" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # borderline sweeps are fitted with the log-corrected two-parameter form
    fit = json.loads((outs[0] / "fit.json").read_text())
    assert fit["model"].startswith("A*eps^(-2/3)")
    csv = (outs[0] / "sweep.csv").read_text().splitlines()
    assert csv[0] == "eps,T_low,T_high,status"
    assert len(csv) == 4
    assert all(line.endswith("blown_up") for line in csv[1:])


def test_main_reports_config_errors(tmp_path, capsys):
    code = main(["sweep", "--eps-list", "0.1,0.2", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
