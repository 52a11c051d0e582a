import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import dwlab.cli
import dwlab.odi
from dwlab.cli import (COMMANDS, ConfigError, ExperimentConfig,
                       _config_record, _write_csv, load_config, main,
                       run_predict)
from dwlab.grid import GridSpec
from dwlab.odi import OdiConfig, simulate_odi
from dwlab.propagators import decay_scan
from dwlab.special import MOMENT_CLASSES, gaussian_derivative

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# the INI keys each command reads; every other key is unknown to it
READS = {
    "decay": {"p", "horizon", "half_width", "points", "out"},
    "lifespan": {"eps_list", "class", "p", "horizon", "half_width", "points",
                 "workers", "out"},
    "odi": {"eps_list", "p", "horizon", "beta", "out"},
    "predict": {"eps_list", "p", "out"},
    "verify-propagators": {"half_width", "points", "out"},
}
READS["sweep"] = READS["lifespan"]
INI_KEYS = set().union(*READS.values())
# the fields each command's `config` record holds, no more: the keys it
# reads, less the execution details workers and out
CONFIG_FIELDS = {
    command: {"command"} | {"moment_class" if key == "class" else key
                            for key in keys - {"workers", "out"}}
    for command, keys in READS.items()}


def _strict_json(path):
    """Parse a JSON file, refusing NaN and Infinity, which JSON lacks."""
    def refuse(name):
        raise ValueError(f"{path}: non-JSON constant {name}")
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def _modules_loaded_by_cli_import(*names, argv=None):
    """Import dwlab.cli in a fresh interpreter, then run `lab argv` there if
    argv is given; the loaded modules that are one of names or inside one
    of them, sorted."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dwlab.cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, dwlab.cli; "
            "print(dwlab.cli.__file__); "
            + (f"dwlab.cli.main({argv!r}); " if argv is not None else "")
            + f"names = {names!r}; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in names))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == dwlab.cli.__file__
    return out[-1]


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    assert _modules_loaded_by_cli_import("scipy") == "[]"


def test_cli_import_defers_pool_and_config_parser():
    # a one-worker run without a config file needs neither; the pool path
    # is covered by test_sweep_outputs_match_across_worker_counts
    assert _modules_loaded_by_cli_import("multiprocessing",
                                         "configparser") == "[]"


def test_cli_import_defers_the_stepper():
    # dwlab.solver loads with the first march (run_lifespan, run_sweep);
    # every other module stays eager
    loaded = _modules_loaded_by_cli_import("dwlab")
    assert "'dwlab.solver'" not in loaded
    assert "'dwlab.odi'" in loaded and "'dwlab.propagators'" in loaded


def test_only_a_march_loads_the_stepper(tmp_path):
    out = str(tmp_path / "out")
    assert "'dwlab.solver'" not in _modules_loaded_by_cli_import(
        "dwlab", argv=["predict", "--out", out])
    assert "'dwlab.solver'" in _modules_loaded_by_cli_import(
        "dwlab", argv=["lifespan", "--eps-list", "0.4", "--out", out])


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def test_builtin_defaults_per_command():
    decay = load_config("decay")
    assert decay.p == 2.0 and decay.points == 32768
    # a setting the command does not read has no value
    assert decay.eps_list is None and decay.moment_class is None
    sweep = load_config("sweep")
    assert sweep.p == 1.25
    assert sweep.moment_class == "M0_zero_M1_nonzero"
    assert sweep.eps_list[0] > sweep.eps_list[-1]
    verify = load_config("verify-propagators")
    assert (verify.points, verify.half_width) == (4096, 64.0)
    assert (verify.p, verify.horizon, verify.workers) == (None, None, None)


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
    # values are literal: a % is no interpolation
    ini.write_text("[sweep]\nout = runs%1\n")
    assert load_config("sweep", path=str(ini)).out_dir == "runs%1"


def test_default_section_applies_to_all_commands(tmp_path):
    ini = tmp_path / "lab.ini"
    ini.write_text("[DEFAULT]\nhorizon = 77\nbeta = 0.5\n")
    assert load_config("sweep", path=str(ini)).horizon == 77.0
    # a [DEFAULT] key a command does not read is dropped, not refused
    out = tmp_path / "o"
    assert main(["predict", "--config", str(ini), "--out", str(out)]) == 0
    assert set(_strict_json(out / "predict.json")["config"]) == \
        CONFIG_FIELDS["predict"]
    # the command's own section is checked apart from [DEFAULT]
    ini.write_text("[DEFAULT]\npoints = 1024\n[predict]\npoints = 1024\n")
    with pytest.raises(ConfigError, match="unknown config key 'points'"):
        load_config("predict", path=str(ini))


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
    rec = _config_record(load_config("sweep"))
    assert "workers" not in rec and "out_dir" not in rec
    assert rec["command"] == "sweep"
    for command in COMMANDS:
        assert set(_config_record(load_config(command))) == \
            CONFIG_FIELDS[command]


def test_verdict_thresholds_are_the_gates():
    # criteria 02, 04 (band and r^2), 06 and 08; no config key moves them
    cli = dwlab.cli
    assert (cli.DECAY_TOL, cli.ODI_RTOL, cli.R2_MIN, cli.SLOPE_RTOL,
            cli.LAMBERT_R2_MIN) == (0.05, 0.10, 0.98, 0.20, 0.95)


# key -> a command that read it and the value it used to default to
_REMOVED_KEYS = {
    "slope_rtol": ("sweep", "0.2"), "decay_tol": ("decay", "0.05"),
    "odi_rtol": ("odi", "0.1"), "r2_min": ("odi", "0.98"),
    "lambert_r2_min": ("sweep", "0.95"), "constant": ("predict", "1"),
    "t0": ("odi", "4"), "dt_min": ("lifespan", "1e-12"),
    "moment_class": ("lifespan", "M0_nonzero"), "out_dir": ("predict", "x"),
}


# a valid value for each INI key, and the flag that also sets it
_KEY_VALUES = {"eps_list": "0.5,0.1", "class": "M0_nonzero", "out": "x",
               "p": "2", "horizon": "100", "half_width": "32",
               "points": "1024", "workers": "2", "beta": "0.5"}
_FLAGS = {"p": "--p", "eps_list": "--eps-list", "workers": "--workers"}
_UNREAD = [pytest.param(command, key, _KEY_VALUES[key], via,
                        id=f"{command}-{key}-{via}")
           for command in COMMANDS for key in sorted(INI_KEYS - READS[command])
           for via in ("ini", "flag") if via == "ini" or key in _FLAGS]


@pytest.mark.parametrize(
    "command, key, value, via",
    [pytest.param(command, key, value, "ini", id=key)
     for key, (command, value) in sorted(_REMOVED_KEYS.items())] + _UNREAD)
def test_removed_settings_are_unknown_config_keys(tmp_path, capsys, command,
                                                  key, value, via):
    # the verdict thresholds are the gates', the laws carry no constant,
    # the ODI and the march use their own defaults, and the INI spells
    # the class and the output directory `class` and `out`.  A command
    # refuses a key it does not read, from its section or from a flag.
    out = tmp_path / "o"
    if via == "flag":
        argv = [command, _FLAGS[key], value]
    else:
        ini = tmp_path / "lab.ini"
        ini.write_text(f"[{command}]\n{key} = {value}\n")
        argv = [command, "--config", str(ini)]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: unknown config key '{key}'")
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command", COMMANDS)
def test_non_finite_eps_is_refused_before_the_output_directory(
        tmp_path, capsys, command, bad):
    # decay and verify-propagators read no eps_list: it is refused as such
    out = tmp_path / "o"
    code = main([command, "--eps-list", f"{bad},0.4,0.1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: eps_list entries must be finite" if "eps_list" in
        READS[command] else "error: unknown config key 'eps_list'")
    assert not out.exists()


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
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "p=1.5"
    assert "68.9" in out
    # plain power regime below the borderline
    code = main(["predict", "--p", "1.2", "--eps-list", "0.01",
                 "--out", str(tmp_path / "b")])
    assert code == 0
    payload = json.loads((tmp_path / "b" / "predict.json").read_text())
    row = [r for r in payload["rows"] if r["class"] == "M0_zero_M1_nonzero"]
    assert row[0]["T_pred"] == pytest.approx(0.01 ** (-0.25), rel=1e-12)


def test_predict_at_p3_writes_laws_past_the_float_range_as_null(tmp_path,
                                                                capsys):
    # exp(eta^-2) overflows for M0_M1_zero at eps 0.1 (eta 1e-3)
    out = tmp_path / "o"
    assert main(["predict", "--p", "3", "--out", str(out)]) == 0
    rows = _strict_json(out / "predict.json")["rows"]
    assert len(rows) == 9
    row = [r for r in rows if (r["eps"], r["class"]) == (0.1, "M0_M1_zero")]
    assert row[0]["T_pred"] is None
    assert rows[0]["T_pred"] == pytest.approx(np.exp(4.0), rel=1e-12)
    lines = capsys.readouterr().out.splitlines()
    assert any(line.split()[:2] == ["0.1", "M0_M1_zero"]
               and line.split()[3] == "inf" for line in lines)


def test_predict_without_a_threshold_root_writes_null(tmp_path, capsys):
    # tilde_T2p has no root at eps 2: a dash in the table, null in the file
    out = tmp_path / "o"
    assert main(["predict", "--eps-list", "2,0.5", "--out", str(out)]) == 0
    rows = _strict_json(out / "predict.json")["rows"]
    assert [r["T_threshold"] is None for r in rows] == [True] * 3 + [False] * 3
    lines = capsys.readouterr().out.splitlines()[2:]
    assert [line.split()[-1] == "-" for line in lines] == \
        [True] * 3 + [False] * 3


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


def test_csv_floats_read_back_exactly(tmp_path):
    # a float is written with .17g, so float(text) returns its bits; an int
    # and a string are written as given
    xs = [0.1, 0.1 + 0.2, 1.0 / 3.0, 5e-324, 1.7976931348623157e308,
          math.inf, np.float64(math.pi)]
    path = tmp_path / "t.csv"
    _write_csv(path, "x,steps,status", [(x, 12, "blown_up") for x in xs])
    lines = path.read_text().splitlines()
    assert lines[0] == "x,steps,status"
    assert len(lines) == 1 + len(xs)
    for x, line in zip(xs, lines[1:]):
        text, steps, status = line.split(",")
        assert float(text) == x
        assert (steps, status) == ("12", "blown_up")


def test_decay_csv_holds_the_scan_times_and_norms(tmp_path):
    # the header of decay_<class>.csv, then one row per scan time, each
    # value the scan's own to the bit (sweep.csv's and odi.csv's headers
    # are checked with their commands)
    ini = tmp_path / "lab.ini"
    ini.write_text("[decay]\nhorizon = 50\nhalf_width = 64\npoints = 2048\n")
    out = tmp_path / "o"
    # too short a window for the fits to be accepted: the verdict is
    # unconverged, and the files are written all the same
    assert main(["decay", "--config", str(ini), "--out", str(out)]) == 2
    spec = GridSpec(64.0, 2048)
    times = np.geomspace(0.5, 50.0, 12)
    for k, kind in enumerate(MOMENT_CLASSES):
        lines = (out / f"decay_{kind}.csv").read_text().splitlines()
        assert lines[0] == "t,norm"
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in lines[1:]])
        norms = decay_scan(gaussian_derivative(k, spec), 2.0, times)[0]
        assert np.array_equal(rows, np.column_stack([times, norms]))


def test_decay_requires_room_for_window(tmp_path):
    ini = tmp_path / "lab.ini"
    ini.write_text("[decay]\nhorizon = 5\n")
    code = main(["decay", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert code == 2


def test_zero_horizon_is_refused_before_the_output_directory(tmp_path,
                                                              capsys):
    ini = tmp_path / "lab.ini"
    ini.write_text("[sweep]\nhorizon = 0\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(ini), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: horizon must be positive\n"
    assert not out.exists()


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


def test_decay_past_the_damping_writes_null_slopes(tmp_path):
    # at horizon 1e300 e^{-t/2} underflows and S(t) keeps only the mean:
    # g' has none, and S(t) f - e^{t Lap} f vanishes for every family, so
    # those fits have no samples left and their slopes are written as null
    ini = tmp_path / "lab.ini"
    ini.write_text("[decay]\nhorizon = 1e300\n")
    out = tmp_path / "o"
    assert main(["decay", "--config", str(ini), "--out", str(out)]) == 2
    rows = _strict_json(out / "decay.json")["rows"]
    assert rows[1]["slope"] is None
    assert all(r["residual_slope"] is None and not r["accepted"]
               for r in rows)


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
    assert set(fitrec) == {"p", "beta", "slope", "target_slope", "r2",
                           "config"}
    assert fitrec["config"] == {"command": "odi", "p": 2.0, "beta": 0.0,
                                "eps_list": [1e-2, 3e-3, 1e-3],
                                "horizon": 1e4}
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
    del fitrec["config"]
    assert fitrec == {"p": 2.0, "beta": 0.0, "censored_eps": 0.01,
                      "horizon": 50.0}


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
    del fitrec["config"]
    assert fitrec == {"p": 2.0, "beta": 0.0, "censored_eps": 0.001,
                      "horizon": 1000.0}


def test_odi_dt_is_an_unknown_config_key(tmp_path, capsys):
    # the march sets its own steps, and it marches the bare delay
    # equation: the old uniform-grid key and the t^gamma prefactor's key
    # are rejected
    for key, value in (("odi_dt", "0.03125"), ("gamma", "0.5")):
        ini = tmp_path / f"{key}.ini"
        ini.write_text(f"[odi]\n{key} = {value}\n")
        out = tmp_path / f"o_{key}"
        code = main(["odi", "--config", str(ini), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: unknown config key '{key}'")
        assert not out.exists()


@pytest.mark.parametrize("command", ["lifespan", "sweep", "decay",
                                     "verify-propagators"])
def test_invalid_grid_is_refused_before_the_output_directory(tmp_path,
                                                               capsys,
                                                               command):
    # the grid is built while the config resolves: a bad one exits 2
    # with no directory left behind
    bad = ["points = 1000", "half_width = -3"]
    for i, line in enumerate(bad):
        ini = tmp_path / f"bad{i}.ini"
        ini.write_text(f"[{command}]\n{line}\n")
        out = tmp_path / f"o{i}"
        assert main([command, "--config", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


def test_lifespan_on_a_3x2k_family_grid(tmp_path):
    # points = 1536 is a family grid of the sub-grid ladder: at the same
    # h = 1/16 the eps 0.4 run ends on the same N = 768 sub-grid as on the
    # default L = 64, N = 2048 family, with the same lifespan
    ini = tmp_path / "lab.ini"
    ini.write_text("[lifespan]\neps_list = 0.4\npoints = 1536\n"
                   "half_width = 48\n")
    out = tmp_path / "o"
    assert main(["lifespan", "--config", str(ini), "--out", str(out)]) == 0
    rec = json.loads((out / "run_000.json").read_text())
    assert (rec["N"], rec["L"], rec["points"]) == (1536, 48.0, 768)
    assert (rec["status"], rec["bracket"]) == ("blown_up", "extrapolated")
    assert rec["T_high"] == pytest.approx(18.7927953, rel=1e-7)
    assert sorted(os.listdir(out)) == ["run_000.json"]


def test_lifespan_records(tmp_path, capsys):
    ini = tmp_path / "lab.ini"
    ini.write_text("[lifespan]\np = 1.5\neps_list = 0.5\nhorizon = 40\n")
    code = main(["lifespan", "--config", str(ini),
                 "--out", str(tmp_path / "o")])
    assert code == 0
    rec = json.loads((tmp_path / "o" / "run_000.json").read_text())
    assert "dt_min" not in rec   # the march's own default, not a setting
    for key in ("p", "eps", "class", "N", "L", "status",
                "T_low", "T_high", "steps", "attempts", "rejected_tol",
                "rejected_growth", "rejected_nonfinite", "forced_accepts",
                "regrids", "nl_rows", "accepted_dt_min", "accepted_dt_max",
                "edge_ratio", "tail_ratio", "points", "termination",
                "bracket", "root_gap"):
        assert key in rec
    assert rec["status"] == "blown_up"
    assert rec["termination"] == "extrapolated_root"
    # the parabola's root sits within a fraction of the window of the cubic's
    assert 0.0 <= rec["root_gap"] < 1e-3
    assert rec["forced_accepts"] == 0
    # every attempt is an accepted step, a rejection or a regrid
    rejections = (rec["rejected_tol"] + rec["rejected_growth"]
                  + rec["rejected_nonfinite"])
    assert rec["steps"] == rec["attempts"] - rejections - rec["regrids"]
    assert rec["steps"] > 0
    assert sorted(os.listdir(tmp_path / "o")) == ["run_000.json"]


def test_lifespan_at_p3_blows_up_on_every_eps(tmp_path):
    # the p = 3 ladder ends on the extrapolated root, not on a truncation
    # abort from the blow-up's ringing
    ini = tmp_path / "lab.ini"
    ini.write_text("[lifespan]\np = 3.0\nclass = M0_nonzero\n"
                   "eps_list = 0.9 0.8 0.7\nhorizon = 30\n")
    out = tmp_path / "o"
    assert main(["lifespan", "--config", str(ini), "--out", str(out)]) == 0
    for i in range(3):
        rec = json.loads((out / f"run_{i:03d}.json").read_text())
        assert (rec["status"], rec["termination"], rec["bracket"]) == (
            "blown_up", "extrapolated_root", "extrapolated")


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


def test_sweep_outputs_match_across_worker_counts(tmp_path, monkeypatch):
    # the pool is capped at the CPU count: two CPUs let --workers 2 start
    # one on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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


def test_borderline_sweep_needs_three_eps(tmp_path, capsys):
    # a two-parameter form fits one lifespan exactly, so its r^2 says
    # nothing: below three eps the verdict is fail
    out = tmp_path / "o"
    assert main(["sweep", "--p", "1.5", "--eps-list", "0.5",
                 "--out", str(out)]) == 1
    fit = _strict_json(out / "fit.json")
    assert (fit["r2"], fit["verdict"]) == (0.0, "fail")
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: fail"


def test_power_law_sweep_on_two_eps_writes_a_null_slope(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["sweep", "--eps-list", "0.4,0.2", "--out", str(out)]) == 1
    fit = _strict_json(out / "fit.json")
    assert (fit["slope"], fit["r2"], fit["verdict"]) == (None, 0.0, "fail")
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: fail"


def test_sweep_without_a_pure_power_prediction_is_unconverged(tmp_path,
                                                              capsys):
    # M0_nonzero at p = 3 has no pure-power law to compare the slope with
    ini = tmp_path / "lab.ini"
    ini.write_text("[sweep]\np = 3.0\nclass = M0_nonzero\n"
                   "eps_list = 0.9 0.8 0.7\nhorizon = 30\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(ini), "--out", str(out)]) == 2
    fit = _strict_json(out / "fit.json")
    assert fit["predicted_slope"] is None
    assert np.isfinite(fit["slope"])
    assert fit["verdict"] == "unconverged"
    assert capsys.readouterr().out.splitlines()[-1] == \
        "verdict: unconverged (no pure-power prediction for this regime)"


# the documented exit code of each command at its built-in defaults: the
# default sweep fits the preasymptotic eps window [0.1, 0.4] and fails
_DEFAULT_EXIT = {"decay": 0, "lifespan": 0, "sweep": 1, "odi": 0,
                 "predict": 0, "verify-propagators": 0}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_runs_at_its_defaults(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([command, "--out", str(out)]) == _DEFAULT_EXIT[command]
    assert capsys.readouterr().err == ""
    names = sorted(os.listdir(out))
    assert any(name.endswith(".json") for name in names)
    for name in names:
        if name.endswith(".json"):
            rec = _strict_json(out / name)
            assert set(rec["config"]) == CONFIG_FIELDS[command]
            assert rec["config"]["command"] == command


def test_main_reports_config_errors(tmp_path, capsys):
    code = main(["sweep", "--eps-list", "0.1,0.2", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    out = tmp_path / "o"
    assert main(["sweep", "--eps-list", "0.4,x", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: bad eps_list entry")
    assert not out.exists()


@pytest.mark.parametrize("case", ["no_section_header", "duplicate_key",
                                  "out_is_a_file"])
def test_bad_config_file_or_out_exits_2(tmp_path, capsys, case):
    # a malformed INI file, or an --out that cannot be a directory, is a
    # configuration error: exit 2, one error line, no traceback, and no
    # output directory made
    ini, out = tmp_path / "f.ini", tmp_path / "o"
    argv = ["predict", "--out", str(out)]
    if case == "out_is_a_file":
        out.write_text("kept\n")
    else:
        ini.write_text("p = 2\n" if case == "no_section_header" else
                       "[predict]\np = 2\np = 2.5\n")
        argv += ["--config", str(ini)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    if case == "out_is_a_file":
        assert repr(str(out)) in captured.err
        assert out.read_text() == "kept\n"
    else:
        assert str(ini) in captured.err
        assert not out.exists()


class _FakePool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for
    and runs the work in this process, starting none."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers,cpus,pool", [
    (5000, 64, 5), (5000, 2, 2), (3, 64, 3), (5000, 1, None),
    (5000, None, None), (1, 64, None)])
def test_worker_pool_is_bounded_by_runs_and_cpus(tmp_path, monkeypatch,
                                                 workers, cpus, pool):
    # the pool starts all its processes at once, so it gets no more than
    # the five default eps or the CPUs; one worker runs without a pool
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(_FakePool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(dwlab.cli, "_lifespan_worker",
                        lambda cfg, eps: {"eps": eps})
    cfg = load_config("lifespan", overrides={"workers": workers})
    records = dwlab.cli._run_all_lifespans(cfg, str(tmp_path))
    assert [r["eps"] for r in records] == list(cfg.eps_list)
    assert len(cfg.eps_list) == 5
    assert _FakePool.sizes == ([] if pool is None else [pool])
