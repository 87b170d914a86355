import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congestion_sim._lapack as _lapack
import congestion_sim.cli as cli
import congestion_sim.initial_data as initial_data_mod
import congestion_sim.solver as solver_mod
import congestion_sim.sweep as sweep_mod
from conftest import CONSTANT, STANDARD, shipped_config, write_config
from congestion_sim.config import (
    CONFIG_KEYS,
    config_key_help,
    load_run_config,
    parse_config_text,
    resolve_run_config,
)
from congestion_sim.diagnostics import summarize_initial_data
from congestion_sim.errors import ConfigError, LinearSolveError, SaturationError, VacuumError
from congestion_sim.grid import Grid, ddx_central
from congestion_sim.initial_data import InitRecipe, build_profiles, make_initial_data
from congestion_sim.model import ModelParams, State, U_FORM, W_FORM, state_fields

BASE_CONFIG = """
# smoke configuration
scheme.formulation = u_form
grid.n_cells = 64
model.gamma = 10.0
init.kind = cosine
init.rho_mean = 0.8
init.rho_amp = 0.0
init.w_amp = 0.0
time.t_end = 0.05
diagnostics.every = 0.01
"""


# ------------------------------------------------------------------ parsing

def test_parse_comments_and_values():
    values = parse_config_text(BASE_CONFIG)
    assert values["grid.n_cells"] == 64
    assert values["model.gamma"] == 10.0
    assert values["scheme.formulation"] == "u_form"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("grid.cells = 64")
    assert "unknown key" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("model.gamma = 1\nmodel.gamma = 2")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("just some words")


def test_gamma_xor_gammas():
    values = parse_config_text(BASE_CONFIG + "sweep.gammas = 5, 10")
    with pytest.raises(ConfigError):
        resolve_run_config(values)
    values = parse_config_text(BASE_CONFIG.replace("model.gamma = 10.0", ""))
    with pytest.raises(ConfigError):
        resolve_run_config(values)


def test_missing_required_key():
    with pytest.raises(ConfigError) as err:
        resolve_run_config(parse_config_text("model.gamma = 1.0"))
    assert "grid.n_cells" in str(err.value)


def test_gammas_parse_as_list():
    cfg = resolve_run_config(parse_config_text(
        BASE_CONFIG.replace("model.gamma = 10.0", "sweep.gammas = 5, 10, 20")))
    assert cfg.gammas == (5.0, 10.0, 20.0)


def test_every_config_key_documented_in_help():
    help_text = config_key_help()
    for key in CONFIG_KEYS:
        assert key in help_text
    parser = cli.build_parser()
    full_help = parser.format_help()
    for key in CONFIG_KEYS:
        assert key in full_help


# -------------------------------------------------------------- initial data

def test_make_initial_data_constant():
    g = Grid(64)
    params = ModelParams(CONSTANT.gamma)
    state = make_initial_data(CONSTANT.recipe, g, params, U_FORM)
    summary = summarize_initial_data(state, state_fields(state, g, params), g, params)
    assert np.all(state.rho == 0.8)
    assert summary.mean_rho0 == pytest.approx(0.8, abs=1e-15)


def test_make_initial_data_cosine_extrema():
    g = Grid(512)
    recipe = InitRecipe(kind="cosine", rho_mean=0.85, rho_amp=0.1, w_amp=0.0)
    params = ModelParams(5.0)
    state = make_initial_data(recipe, g, params, W_FORM)
    summary = summarize_initial_data(state, state_fields(state, g, params), g, params)
    assert summary.rho0_min == pytest.approx(0.75, abs=1e-4)
    assert summary.rho0_max == pytest.approx(0.95, abs=1e-4)
    assert summary.mean_rho0 == pytest.approx(0.85, abs=1e-12)


def test_two_mode_recipe_adds_half_amplitude_harmonic():
    g = Grid(512)
    recipe = InitRecipe(kind="two_mode", rho_mean=0.8, rho_amp=0.05, w_amp=0.2)
    rho, w = build_profiles(recipe, g)
    want_rho = 0.8 + 0.05 * (np.cos(2 * np.pi * g.x)
                             + 0.5 * np.cos(4 * np.pi * g.x))
    want_w = 0.2 * (np.sin(2 * np.pi * g.x) + 0.5 * np.sin(4 * np.pi * g.x))
    assert np.allclose(rho, want_rho, atol=1e-15)
    assert np.allclose(w, want_w, atol=1e-15)


def test_recipe_validation_errors():
    with pytest.raises(ConfigError):
        InitRecipe(kind="bogus")
    with pytest.raises(ConfigError):
        InitRecipe(kind="cosine", rho_mean=0.1, rho_amp=0.2)
    with pytest.raises(ConfigError):
        InitRecipe(kind="custom_csv")


def test_formulations_share_initial_data():
    g = Grid(64)
    params = ModelParams(STANDARD.gamma)
    su = make_initial_data(STANDARD.recipe, g, params, U_FORM)
    sw = make_initial_data(STANDARD.recipe, g, params, W_FORM)
    assert np.array_equal(su.rho, sw.rho)
    from congestion_sim.model import u_to_w
    w_from_u = u_to_w(su.rho, su.mom / su.rho, g, params)
    assert np.allclose(w_from_u, sw.mom / sw.rho, atol=1e-14)


def test_gamma_column_rows_equal_their_own_initial_data():
    g = Grid(64)
    gammas = (5.0, 20.0, 80.0)
    for formulation in (U_FORM, W_FORM):
        batch = make_initial_data(STANDARD.recipe, g,
                                  ModelParams(np.array(gammas)[:, None]), formulation)
        assert batch.rho.shape == batch.mom.shape == (3, 64)
        for i, gamma in enumerate(gammas):
            alone = make_initial_data(STANDARD.recipe, g, ModelParams(gamma), formulation)
            assert np.array_equal(batch.rho[i], alone.rho)
            assert np.array_equal(batch.mom[i], alone.mom)


# ------------------------------------------------------------- CLI commands

def test_simulate_constant_state(tmp_path):
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, BASE_CONFIG + f"output.dir = {out_dir}\n")
    assert cli.main(["simulate", "--config", cfg]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["mass_drift_rel"] <= 1e-12
    assert abs(summary["energy_residual_max"]) <= 1e-13
    assert summary["ke_w_max_increase"] <= 1e-13
    assert (out_dir / "diagnostics.jsonl").exists()
    assert (out_dir / "run.log").exists()
    snapshots = sorted(out_dir.glob("snapshot_*.csv"))
    assert len(snapshots) >= 2
    header = snapshots[0].read_text().splitlines()[0]
    assert header == "x,rho,u,w,pi,W,V"


def test_snapshot_roundtrip_bit_exact(tmp_path):
    out_dir = tmp_path / "out"
    cfg_text = BASE_CONFIG.replace("init.rho_amp = 0.0", "init.rho_amp = 0.1")
    cfg_text = cfg_text.replace("init.w_amp = 0.0", "init.w_amp = 0.2")
    cfg = write_config(tmp_path, cfg_text + f"output.dir = {out_dir}\n")
    assert cli.main(["simulate", "--config", cfg]) == 0
    snap = sorted(out_dir.glob("snapshot_*.csv"))[-1]

    data = np.genfromtxt(snap, delimiter=",", names=True)
    g = Grid(64)
    recipe = InitRecipe(kind="custom_csv", csv_path=str(snap))
    rho, w = build_profiles(recipe, g)
    assert np.array_equal(rho, data["rho"])
    assert np.array_equal(w, data["w"])


@pytest.mark.parametrize("profile", ["random", "tied", "out_of_range"])
def test_custom_csv_picks_match_dense_rule(tmp_path, monkeypatch, profile):
    # the blocked resampling picks what the whole cell x row distance
    # matrix picks, the first row among tied ones included
    g = Grid(64)
    rng = np.random.default_rng(11)
    if profile == "random":
        xs = rng.uniform(0.0, 1.0, 50)
    elif profile == "tied":
        # every row twice, half of them on cell faces, equidistant from two
        # cell centres
        xs = rng.permutation(np.tile(np.concatenate(
            [np.arange(g.n_cells) * g.dx, rng.uniform(0.0, 1.0, g.n_cells)]), 2))
    else:
        xs = rng.uniform(-1.5, 2.5, 50)
    path = tmp_path / "profile.csv"
    path.write_text("x,rho,w\n" + "".join(
        f"{x!r},0.8,{i}\n" for i, x in enumerate(xs.tolist())),
        encoding="utf-8")
    dist = np.abs(g.x[:, None] - xs[None, :]) % 1.0
    want = np.argmin(np.minimum(dist, 1.0 - dist), axis=1)
    for block in (1, 7 * xs.size + 3):
        monkeypatch.setattr(initial_data_mod, "RESAMPLE_BLOCK", block)
        _, w = build_profiles(InitRecipe(kind="custom_csv", csv_path=str(path)), g)
        assert np.array_equal(w, want)
    # the distance is periodic: every x shifted by a whole period picks the
    # same rows
    for shift in (-3.0, 2.0):
        path.write_text("x,rho,w\n" + "".join(
            f"{x!r},0.8,{i}\n" for i, x in enumerate((xs + shift).tolist())),
            encoding="utf-8")
        _, w = build_profiles(InitRecipe(kind="custom_csv", csv_path=str(path)), g)
        assert np.array_equal(w, want)


def test_summary_byte_stable(tmp_path):
    texts = []
    for attempt in ("a", "b"):
        out_dir = tmp_path / attempt
        cfg = write_config(tmp_path, BASE_CONFIG + f"output.dir = {out_dir}\n",
                           name=f"{attempt}.cfg")
        assert cli.main(["simulate", "--config", cfg]) == 0
        texts.append((out_dir / "summary.json").read_bytes())
    assert texts[0] == texts[1]


# sha256 of summary.json for the shipped standard_smooth config (n = 256)
# in each formulation, fixed when the step took donor-split fluxes and one
# log of rho per state; a change that moves these bits must say so and
# show the acceptance verdicts unchanged
SHIPPED_SUMMARY_SHA256 = {
    W_FORM: "cd0a7751e6b8ada286734a3ccf2eee343d88fa183639455bdfe77a04c24190e0",
    U_FORM: "25d813d6ee16094990e7c4612a849bc933b8612f0c528a865e9cd25441724dd2",
}


def shipped_summary_sha256(tmp_path, formulation):
    """Simulate the shipped standard_smooth config in ``formulation``; the
    sha256 of its summary.json."""
    out_dir = tmp_path / "out"
    cfg = shipped_config(tmp_path, "standard_smooth",
                         {"scheme.formulation": formulation}, out_dir)
    assert cli.main(["simulate", "--config", cfg]) == 0
    return hashlib.sha256((out_dir / "summary.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("formulation", [W_FORM, U_FORM])
def test_shipped_summary_bits_unchanged(tmp_path, formulation):
    assert shipped_summary_sha256(tmp_path, formulation) == SHIPPED_SUMMARY_SHA256[formulation]


# sha256 of the streamed outputs of the shipped standard_smooth config in
# each formulation: its snapshot_*.csv files concatenated in order and its
# diagnostics.jsonl; fixed when the step took donor-split fluxes
SHIPPED_STREAM_SHA256 = {
    W_FORM: {
        "csv": "c1dba5aa7b3fc7c226c16f800435407dc1875527c3852ba53a44b949a08e7346",
        "diagnostics": "d9e1945788ce51486b95fa84b8567d2113e5ac9688ffec734c9410621dc7ab7c",
    },
    U_FORM: {
        "csv": "0040fd295997db156c4684db02144dd2ed4f117b1930fe2b18da0daa377b50f3",
        "diagnostics": "66ff99044614a71a9a706d4fae2d625fbd87bb51c69924e9bb6670464bd168b4",
    },
}


@pytest.mark.parametrize("formulation", [W_FORM, U_FORM])
def test_shipped_stream_bits_unchanged(tmp_path, formulation):
    out_dir = tmp_path / "out"
    cfg = shipped_config(tmp_path, "standard_smooth", {"scheme.formulation": formulation},
                         out_dir)
    assert cli.main(["simulate", "--config", cfg]) == 0
    data = b"".join(path.read_bytes() for path in sorted(out_dir.glob("snapshot_*.csv")))
    want = SHIPPED_STREAM_SHA256[formulation]
    assert hashlib.sha256(data).hexdigest() == want["csv"]
    diagnostics = (out_dir / "diagnostics.jsonl").read_bytes()
    assert hashlib.sha256(diagnostics).hexdigest() == want["diagnostics"]


# sha256 of sweep_summary.json for the shipped standard_sweep config: the
# bits of the batched path, where the five gammas step as one batch, fixed
# when the step took donor-split fluxes; moved when the fit's non-finite r2
# and slope became null
SHIPPED_SWEEP_SUMMARY_SHA256 = "b019ad89f23ee42699b1738eceb5c26bb1f55f228fe7ac1010a8a11ede8c520f"


def test_shipped_sweep_summary_bits_unchanged(tmp_path):
    out_dir = tmp_path / "out"
    cfg = shipped_config(tmp_path, "standard_sweep", {}, out_dir)
    assert cli.main(["sweep", "--config", cfg]) == 0
    digest = hashlib.sha256((out_dir / "sweep_summary.json").read_bytes()).hexdigest()
    assert digest == SHIPPED_SWEEP_SUMMARY_SHA256


def test_scipy_fallback_gives_shipped_summary_bits(tmp_path, monkeypatch):
    # the path of a numpy that exports no OpenBLAS dptsv: every solve goes
    # through scipy and the run keeps its bits
    source, fallback = _lapack.select_ptsv("no_such_symbol_")
    assert (source, fallback) == ("scipy", _lapack.scipy_ptsv)
    calls = []

    def counted(bands):
        calls.append(bands.shape)
        return fallback(bands)

    monkeypatch.setattr(_lapack, "ptsv", counted)
    assert shipped_summary_sha256(tmp_path, W_FORM) == SHIPPED_SUMMARY_SHA256[W_FORM]
    n_steps = json.loads((tmp_path / "out" / "summary.json").read_text())["n_steps"]
    assert len(calls) >= n_steps > 0


def modules_loaded_by_cli_import(*packages: str) -> list[str]:
    """This tree's ``congestion_sim.cli`` file, then the modules of
    ``packages`` that importing it in a fresh interpreter loads."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, congestion_sim.cli as cli; print(cli.__file__); "
            f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {packages!r}))")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout.splitlines()


def test_summary_bits_do_not_depend_on_blas_threads(tmp_path):
    # a BLAS reduction (np.dot, np.vecdot, @) splits its sum by thread: at
    # 16384 cells its bits differ between one and two OpenBLAS threads, so
    # no value that reaches an output may come from one
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, congestion_sim.cli as cli; sys.exit(cli.main(sys.argv[1:]))"
    summaries = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        cfg = shipped_config(tmp_path, "standard_smooth", {
            "grid.n_cells": "16384", "time.t_end": "5e-5"}, out_dir, name=f"{threads}.cfg")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code, "simulate", "--config", cfg],
                       env=env, capture_output=True, check=True, timeout=300)
        summaries.append((out_dir / "summary.json").read_bytes())
    assert json.loads(summaries[0])["n_steps"] >= 3
    assert summaries[0] == summaries[1]


def test_cli_import_loads_no_scipy():
    # importing scipy took most of the command line's start-up time
    assert modules_loaded_by_cli_import("scipy") == [cli.__file__, "[]"]


def test_cli_import_loads_no_multiprocessing():
    # the snapshot writer is forked with os.fork and fed through os.pipe;
    # a cold import of multiprocessing.connection would show in every start
    assert modules_loaded_by_cli_import("multiprocessing", "concurrent") == [
        cli.__file__, "[]"]


def test_cli_import_loads_no_fractions_or_decimal():
    # the snapshot formatter builds its power-of-ten table in int
    # arithmetic, so that no start-up pays for importing fractions
    assert modules_loaded_by_cli_import("fractions", "decimal", "_decimal",
                                        "_pydecimal") == [cli.__file__, "[]"]


@pytest.mark.parametrize("every", ["1e-20", "1e-300"])
def test_cadence_shorter_than_a_step_snapshots_every_step(tmp_path, every):
    # below the float spacing of t, adding the cadence to the next
    # snapshot time leaves it where it is
    out_dir = tmp_path / "out"
    cfg = shipped_config(tmp_path, "standard_smooth",
                         {"time.t_end": "0.01", "diagnostics.every": every}, out_dir)
    assert cli.main(["simulate", "--config", cfg]) == 0
    n_steps = json.loads((out_dir / "summary.json").read_text())["n_steps"]
    times = [json.loads(line)["t"]
             for line in (out_dir / "diagnostics.jsonl").read_text().splitlines()]
    assert n_steps > 1
    assert len(times) == len(list(out_dir.glob("snapshot_*.csv"))) == n_steps + 1
    assert times[-1] == 0.01 and all(np.diff(times) > 0.0)


def test_diagnostics_jsonl_field_names(tmp_path):
    import dataclasses
    from congestion_sim.diagnostics import DiagnosticsRecord

    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, BASE_CONFIG + f"output.dir = {out_dir}\n")
    assert cli.main(["simulate", "--config", cfg]) == 0
    rec = json.loads((out_dir / "diagnostics.jsonl").read_text().splitlines()[0])
    want = [f.name for f in dataclasses.fields(DiagnosticsRecord)]
    assert list(rec) == want


def test_simulate_requires_scalar_gamma(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.replace(
        "model.gamma = 10.0", "sweep.gammas = 5, 10"))
    assert cli.main(["simulate", "--config", cfg]) == 2


def test_sweep_rejects_overdense_recipe(tmp_path, capsys):
    # left an empty output.dir: run.log was written only after the batch
    out_dir = tmp_path / "out"
    text = f"""
scheme.formulation = w_form
grid.n_cells = 64
sweep.gammas = 5, 80
init.kind = cosine
init.rho_mean = 1.05
init.rho_amp = 0.0
init.w_amp = 0.0
time.t_end = 0.05
output.dir = {out_dir}
"""
    cfg = write_config(tmp_path, text)
    assert cli.main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "initial density upper bound violated" in err
    log = (out_dir / "run.log").read_text().splitlines()
    assert [line.split(" ", 1)[0] for line in log] == [
        "started", "config", "gammas", "lapack", "failed"]
    assert log[-1] == "failed " + err.removeprefix("configuration error: ").strip()
    assert sorted(path.name for path in out_dir.iterdir()) == ["run.log"]


def test_sweep_writes_report(tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    text = f"""
scheme.formulation = w_form
scheme.cfl = 0.2
grid.n_cells = 64
sweep.gammas = 5, 10
init.kind = cosine
init.rho_mean = 0.8
init.rho_amp = 0.05
init.w_amp = 0.1
time.t_end = 0.05
output.dir = {out_dir}
"""
    cfg = write_config(tmp_path, text)
    logged_before_batch = []

    def run_sweep(config):
        logged_before_batch.append((out_dir / "run.log").read_text())
        return sweep_mod.run_sweep(config)

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    assert cli.main(["sweep", "--config", cfg]) == 0
    report_lines = (out_dir / "sweep_report.csv").read_text().splitlines()
    assert report_lines[0].startswith("gamma,")
    assert len(report_lines) == 3
    summary = json.loads((out_dir / "sweep_summary.json").read_text())
    assert {"fit", "cross", "rows"} <= set(summary)
    log = (out_dir / "run.log").read_text().splitlines()
    assert log[0].startswith("started ")
    assert log[1:] == [f"config {cfg}", "gammas 5.0,10.0", f"lapack {_lapack.SOURCE}"]
    # the whole log was on disk before the batch started
    assert logged_before_batch == ["\n".join(log) + "\n"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_failed_sweep_rows_reach_run_log(tmp_path):
    # a desired velocity of 1e300 overflows the fluxes of every row
    out_dir = tmp_path / "out"
    text = BASE_CONFIG.replace("model.gamma = 10.0", "sweep.gammas = 5, 10").replace(
        "init.w_amp = 0.0", "init.w_amp = 1e300")
    cfg = write_config(tmp_path, text + f"output.dir = {out_dir}\n")
    # every row failed, so the sweep does
    assert cli.main(["sweep", "--config", cfg]) == 3
    rows = json.loads((out_dir / "sweep_summary.json").read_text())["rows"]
    failures = [row["failure"] for row in rows]
    assert [row["failed"] for row in rows] == [True, True]
    assert [f[f.index("gamma="):] for f in failures] == ["gamma=5.0]", "gamma=10.0]"]
    log = (out_dir / "run.log").read_text().splitlines()
    assert log[4:] == [f"failed {failure}" for failure in failures]


def test_failed_snapshot_record_fails_its_row_only(tmp_path, monkeypatch, capsys):
    # a failure while a snapshot was recorded escaped the run loop with
    # [t=None, cell=3, gamma=None] and ended the whole sweep, exit 3
    sweep_cfg = shipped_config(tmp_path, "standard_sweep", {"grid.n_cells": "64"},
                               tmp_path / "sweep", name="sweep.cfg")
    cfg = load_run_config(sweep_cfg)
    alone = {gamma: sweep_mod.run_config(dataclasses.replace(cfg, gamma=gamma, gammas=None))
             for gamma in cfg.gammas}
    t_fail = float(next(t for t in alone[20.0].series("t") if t > 0.1))
    real = solver_mod.record

    def record(state, fields, g, params, accums, summary):
        if params.gamma == 20.0 and state.t > 0.1:
            raise SaturationError("synthetic overflow", cell=3)
        return real(state, fields, g, params, accums, summary)

    monkeypatch.setattr(solver_mod, "record", record)
    assert cli.main(["sweep", "--config", sweep_cfg]) == 0
    rows = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text())["rows"]
    context = f"[t={t_fail!r}, cell=3, gamma=20.0]"
    assert [row["failed"] for row in rows] == [False, False, True, False, False]
    assert rows[2]["failure"] == f"synthetic overflow {context}"
    for row in rows[:2] + rows[3:]:
        want = dataclasses.asdict(sweep_mod._row_from_trajectory(row["gamma"],
                                                                 alone[row["gamma"]]))
        del want["runtime"]
        assert row == want
    log = (tmp_path / "sweep" / "run.log").read_text().splitlines()
    assert log[4:] == [f"failed synthetic overflow {context}"]

    # standard_smooth is the sweep's case at one gamma
    capsys.readouterr()
    single = shipped_config(tmp_path, "standard_smooth",
                            {"grid.n_cells": "64", "model.gamma": "20"}, tmp_path / "single")
    assert cli.main(["simulate", "--config", single]) == 3
    assert capsys.readouterr().err == f"runtime failure (saturation): synthetic overflow {context}\n"


def strict_json(text: str):
    """``text`` parsed as JSON proper, which has no NaN or Infinity (nor
    does jq)."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("case", ["simulate", "sweep", "sweep_failed_row"])
def test_json_outputs_are_strict_json(tmp_path, monkeypatch, case):
    # the shipped sweep wrote "r2": NaN and "slope": NaN, and a failed row
    # NaN in each aggregate; they are null now
    out_dir = tmp_path / "out"
    command, _, failed_row = case.partition("_")
    cfg = shipped_config(tmp_path, "standard_smooth" if command == "simulate" else
                         "standard_sweep", {"grid.n_cells": "64"} if failed_row else {}, out_dir)
    if failed_row:
        real = solver_mod.record

        def record(state, fields, g, params, accums, summary):
            if params.gamma == 20.0:
                raise SaturationError("synthetic overflow", cell=3)
            return real(state, fields, g, params, accums, summary)

        monkeypatch.setattr(solver_mod, "record", record)
    assert cli.main([command, "--config", cfg]) == 0
    documents = [strict_json(path.read_text(encoding="utf-8"))
                 for path in sorted(out_dir.glob("*.json"))]
    for path in out_dir.glob("*.jsonl"):
        documents += [strict_json(line) for line in path.read_text().splitlines()]
    assert len(documents) == (12 if case == "simulate" else 1)
    if case == "sweep":
        fit = documents[0]["fit"]
        assert fit["verdict"] == "congestion never exceeded"
        assert fit["r2"] is fit["slope"] is None
    elif failed_row:
        rows = documents[0]["rows"]
        assert [row["failed"] for row in rows] == [False, False, True, False, False]
        assert rows[2]["max_rho"] is None and rows[1]["max_rho"] > 0.0


@pytest.mark.parametrize("name", sorted(path.name for path in cli.CONFIG_DIR.glob("*.cfg")))
def test_config_with_byte_order_mark_resolves_alike(tmp_path, name):
    # a config saved as UTF-8 with a byte-order mark failed at line 1: an
    # unknown key '\ufeffscheme.formulation', or a malformed line
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + (cli.CONFIG_DIR / name).read_bytes())
    assert load_run_config(str(path)) == load_run_config(str(cli.CONFIG_DIR / name))


def test_custom_csv_with_byte_order_mark_reads_alike(tmp_path):
    # a byte-order mark hid the x column
    text = "x,rho,w\n0.25,0.7,0.1\n0.75,0.9,-0.1\n"
    profiles = []
    for encoding in ("utf-8", "utf-8-sig"):
        path = tmp_path / f"{encoding}.csv"
        path.write_text(text, encoding=encoding)
        profiles.append(build_profiles(InitRecipe(kind="custom_csv", csv_path=str(path)),
                                       Grid(16)))
    assert np.array_equal(profiles[0], profiles[1])


@pytest.mark.parametrize("config", ["missing", "not_utf8"])
def test_missing_config_file_is_config_error(tmp_path, capsys, config):
    # a Latin-1 comment ended in a UnicodeDecodeError traceback, exit 1
    path = tmp_path / "run.cfg"
    if config == "not_utf8":
        path.write_bytes(BASE_CONFIG.encode() + "# caf\xe9\n".encode("latin-1"))
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


# malformed profiles that ended in a ValueError traceback, exit 1, with no
# failed line
MALFORMED_PROFILES = {
    "extra_column": "x,rho,w\n0.5,0.8,0.1,7\n",
    "short_row": "x,rho,w\n0.5,0.8\n",
    "semicolons": "x;rho;w\n0.5;0.8;0.1\n",
}


@pytest.mark.parametrize("profile", ["missing", "directory", "empty", "header_only",
                                     "not_utf8", *MALFORMED_PROFILES])
def test_unreadable_custom_csv_is_config_error(tmp_path, capsys, profile):
    path = tmp_path / "profile.csv"
    if profile == "directory":
        path.mkdir()
    elif profile == "empty":
        path.write_text("", encoding="utf-8")
    elif profile == "header_only":
        path.write_text("x,rho,w\n", encoding="utf-8")
    elif profile == "not_utf8":
        # ended in a UnicodeDecodeError traceback, exit 1, with no failed line
        path.write_bytes(b"x,rho,w\n0.5,0.8,\xff\n")
    elif profile in MALFORMED_PROFILES:
        path.write_text(MALFORMED_PROFILES[profile], encoding="utf-8")
    text = BASE_CONFIG.replace("init.kind = cosine",
                               f"init.kind = custom_csv\ninit.csv_path = {path}")
    cfg = write_config(tmp_path, text + f"output.dir = {tmp_path / 'out'}\n")
    assert cli.main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and err.count("\n") == 1
    # found while building the initial data, after run.log was opened
    log = (tmp_path / "out" / "run.log").read_text().splitlines()
    assert log[-1] == "failed " + err.removeprefix("configuration error: ").strip()


@pytest.mark.parametrize("name", sorted(path.name for path in cli.CONFIG_DIR.glob("*.cfg")))
def test_shipped_configs_load(name):
    cfg = load_run_config(str(cli.CONFIG_DIR / name))
    assert (cfg.gamma is None) != (cfg.gammas is None)


@pytest.mark.parametrize("key,value", [
    ("time.t_end", "nan"),          # ran 0 steps and exited 0
    ("scheme.dt_max", "nan"),       # ended in a ValueError traceback
    ("diagnostics.every", "nan"),   # silently dropped the snapshots
    ("time.t_end", "inf"),          # never terminated
])
def test_non_finite_value_is_config_error(tmp_path, capsys, key, value):
    text = BASE_CONFIG.replace("time.t_end = 0.05\n", "").replace(
        "diagnostics.every = 0.01\n", "")
    defaults = {"time.t_end": "0.05", "diagnostics.every": "0.01"}
    defaults[key] = value
    text += "".join(f"{k} = {v}\n" for k, v in defaults.items())
    text += f"output.dir = {tmp_path / 'out'}\n"
    cfg = write_config(tmp_path, text)
    assert cli.main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", [VacuumError, SaturationError, LinearSolveError],
                         ids=["vacuum", "saturation", "linear_solve"])
def test_runtime_failure_exit_code(tmp_path, monkeypatch, capsys, error):
    cfg = write_config(tmp_path, BASE_CONFIG + f"output.dir = {tmp_path / 'out'}\n")

    def explode(cfg, sink):
        raise error("synthetic", t=0.25, cell=7, gamma=10.0)

    monkeypatch.setattr(cli, "run_config", explode)
    assert cli.main(["simulate", "--config", cfg]) == 3
    context = "[t=0.25, cell=7, gamma=10.0]"
    assert capsys.readouterr().err == f"runtime failure ({error.kind}): synthetic {context}\n"
    log = (tmp_path / "out" / "run.log").read_text().splitlines()
    assert log[0].startswith("started ") and log[1].startswith("config ")
    assert log[2] == f"lapack {_lapack.SOURCE}"
    assert log[3] == f"failed synthetic {context}"


def test_failure_after_t0_keeps_the_snapshots_taken(tmp_path, capsys):
    # at gamma = 1e6 the power law saturates at t = 0.2265; such a run left
    # only run.log, as its snapshots were written after the run
    out_dir = tmp_path / "out"
    cfg = shipped_config(tmp_path, "standard_smooth", {
        "grid.n_cells": "64", "model.gamma": "1e6"}, out_dir)
    assert cli.main(["simulate", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime failure (saturation): ") and "[t=0.2265" in err
    times = [json.loads(line)["t"]
             for line in (out_dir / "diagnostics.jsonl").read_text().splitlines()]
    assert times == pytest.approx([0.0, 0.0505, 0.1005, 0.1505, 0.2005], rel=1e-12)
    snapshots = [f"snapshot_{i:04d}.csv" for i in range(5)]
    rows = (out_dir / snapshots[-1]).read_text().splitlines()
    assert len(rows) == 65 and rows[0] == "x,rho,u,w,pi,W,V"
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(
        ["run.log", "diagnostics.jsonl"] + snapshots)


def test_records_reach_the_file_as_they_are_taken(tmp_path, monkeypatch):
    # diagnostics.jsonl is line-buffered, so a run killed by a signal keeps
    # the records of the snapshots it wrote; the writer is a forked
    # process, so the counts it sees reach the test through a file
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, BASE_CONFIG + f"output.dir = {out_dir}\n")
    seen, real = tmp_path / "lines_seen", cli.write_snapshot_csv

    def write_snapshot_csv(path, g, state):
        diagnostics = out_dir / "diagnostics.jsonl"
        count = len(diagnostics.read_text().splitlines()) if diagnostics.exists() else 0
        with open(seen, "a", encoding="utf-8") as fh:
            fh.write(f"{count}\n")
        real(path, g, state)

    monkeypatch.setattr(cli, "write_snapshot_csv", write_snapshot_csv)
    assert cli.main(["simulate", "--config", cfg]) == 0
    lines_seen = [int(line) for line in seen.read_text().splitlines()]
    # snapshot k is written after the records of snapshots 0 to k-1
    assert lines_seen == list(range(6))


@pytest.mark.parametrize("changes,blocked,code", [
    ({}, None, 0),
    ({"model.gamma": "1e6"}, None, 3),      # saturates at t = 0.2265
    ({}, "snapshot_0001.csv", 2),
    # the last snapshot before the saturation fails to write, and the run's
    # own failure, raised before another hand-off, wins
    ({"model.gamma": "1e6"}, "snapshot_0004.csv", 3),
], ids=["finished", "saturation", "blocked_snapshot", "saturation_after_blocked"])
def test_no_writer_process_outlives_the_run(tmp_path, changes, blocked, code):
    out_dir = tmp_path / "out"
    if blocked:
        (out_dir / blocked).mkdir(parents=True)
    cfg = shipped_config(tmp_path, "standard_smooth", {"grid.n_cells": "64", **changes},
                         out_dir)
    assert cli.main(["simulate", "--config", cfg]) == code
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("how", ["killed", "raises"])
def test_writer_that_ends_early_ends_the_run_as_config_error(tmp_path, monkeypatch, capsys,
                                                             how):
    out_dir = tmp_path / "out"
    cfg = shipped_config(tmp_path, "standard_smooth", {"grid.n_cells": "64"}, out_dir)
    run_pid, real = os.getpid(), cli.write_snapshot_csv

    def write_snapshot_csv(path, g, snap):
        if path.endswith("snapshot_0002.csv"):
            assert os.getpid() != run_pid, "the writer runs in the run's process"
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("synthetic")
        real(path, g, snap)

    monkeypatch.setattr(cli, "write_snapshot_csv", write_snapshot_csv)
    assert cli.main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: output.dir {out_dir}: ")
    assert err.count("\n") == 1
    assert ("killed by signal 9" if how == "killed" else "ValueError('synthetic')") in err
    log = (out_dir / "run.log").read_text().splitlines()
    assert log[-1] == f"failed {err[len('configuration error: '):].strip()}"
    # the snapshots written before it stay
    assert len((out_dir / "diagnostics.jsonl").read_text().splitlines()) == 2
    assert len((out_dir / "snapshot_0001.csv").read_text().splitlines()) == 65
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_ctrl_c_does_not_cut_the_writer_short(tmp_path, monkeypatch):
    # a Ctrl-C at a terminal reaches the writer as well as the run; the
    # writer ignores it and writes on (here only the writer gets one)
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, BASE_CONFIG + f"output.dir = {out_dir}\n")
    run_pid, real = os.getpid(), cli.write_snapshot_csv

    def write_snapshot_csv(path, g, snap):
        if os.getpid() != run_pid and path.endswith("snapshot_0002.csv"):
            os.kill(os.getpid(), signal.SIGINT)
        real(path, g, snap)

    monkeypatch.setattr(cli, "write_snapshot_csv", write_snapshot_csv)
    assert cli.main(["simulate", "--config", cfg]) == 0
    assert len((out_dir / "diagnostics.jsonl").read_text().splitlines()) == 6
    assert len(list(out_dir.glob("snapshot_*.csv"))) == 6


def test_writer_without_fork_writes_the_same_bytes(tmp_path, monkeypatch):
    # where os.fork does not exist, the sink runs in the run's process
    outputs = []
    for forks in (True, False):
        if not forks:
            monkeypatch.delattr(os, "fork")
        out_dir = tmp_path / f"out_{forks}"
        cfg = shipped_config(tmp_path, "standard_smooth", {"grid.n_cells": "64"}, out_dir)
        assert cli.main(["simulate", "--config", cfg]) == 0
        outputs.append({path.name: path.read_bytes() for path in out_dir.iterdir()
                        if path.name != "run.log"})
    assert outputs[0] == outputs[1] and len(outputs[0]) >= 3


@pytest.mark.parametrize("how", ["sigkill_run", "sigint_group"])
def test_killed_run_keeps_every_snapshot_it_handed_over(tmp_path, how):
    # the writer drains the pipe after the run is killed, or after a Ctrl-C
    # reaches both: every snapshot handed over is written whole, with its record
    out_dir = tmp_path / "out"
    cfg = shipped_config(tmp_path, "standard_smooth", {
        "grid.n_cells": "1024", "diagnostics.every": "0.005"}, out_dir)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the writer inherits stdout, so the pipe's end says it has ended.  The
    # run starts with SIGINT at its default, as from a terminal: a background
    # job of a non-interactive shell would hand it SIGINT ignored
    proc = subprocess.Popen([sys.executable, "-m", "congestion_sim.cli", "simulate",
                             "--config", cfg], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, start_new_session=True,
                            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    deadline = time.monotonic() + 60.0
    try:
        while not (out_dir / "snapshot_0002.csv").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(1e-3)
        if how == "sigkill_run":
            proc.kill()
        else:
            os.killpg(proc.pid, signal.SIGINT)
        proc.communicate(timeout=60.0)
    finally:
        try:  # whatever is left of the run and its writer, if the test failed
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert not (out_dir / "summary.json").exists()
    records = (out_dir / "diagnostics.jsonl").read_text().splitlines()
    snapshots = sorted(path.name for path in out_dir.glob("snapshot_*.csv"))
    assert snapshots == [f"snapshot_{i:04d}.csv" for i in range(len(records))]
    assert len(records) >= 3
    for name in snapshots:
        text = (out_dir / name).read_text()
        assert text.startswith("x,rho,u,w,pi,W,V\n") and text.endswith("\n")
        assert text.count("\n") == 1025


def test_each_state_takes_its_logs_once(tmp_path, monkeypatch):
    # 1 log of rho per state (p in state_fields, of which lambda is made),
    # 1 per snapshot record (H, of which pi is made) and 1 in the initial
    # summary (H); re-deriving u, w and lambda in the step, the records, the
    # summary and the writer took 92 logs on this run, re-deriving pi in the
    # writer 53, and a second log for lambda in state_fields 40
    import congestion_sim.model as model_mod

    out_dir = tmp_path / "out"
    cfg = shipped_config(tmp_path, "standard_smooth", {
        "grid.n_cells": "64", "time.t_end": "0.02", "diagnostics.every": "1e-6"}, out_dir)
    logs, real = [], model_mod._checked_log

    def counting(rho, params):
        logs.append(np.shape(rho))
        return real(rho, params)

    monkeypatch.setattr(model_mod, "_checked_log", counting)
    assert cli.main(["simulate", "--config", cfg]) == 0
    n_steps = json.loads((out_dir / "summary.json").read_text())["n_steps"]
    n_snapshots = len((out_dir / "diagnostics.jsonl").read_text().splitlines())
    assert (n_steps, n_snapshots) == (12, 13)
    assert len(logs) == (n_steps + 1) + n_snapshots + 1 == 27


@pytest.mark.parametrize("changes,code", [
    ({"init.rho_mean": "1.05"}, 2),     # over 1 + 1/gamma, found building the data
    ({"init.w_amp": "1e300"}, 3),       # found summarizing the first snapshot
], ids=["overdense", "non_finite"])
def test_rejected_initial_data_leave_only_run_log(tmp_path, changes, code):
    out_dir = tmp_path / "out"
    cfg = shipped_config(tmp_path, "standard_smooth", changes, out_dir)
    assert cli.main(["simulate", "--config", cfg]) == code
    assert [path.name for path in out_dir.iterdir()] == ["run.log"]
    assert (out_dir / "run.log").read_text().splitlines()[-1].startswith("failed ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_state_is_runtime_failure(tmp_path, capsys):
    # a desired velocity of 1e300 overflows the advective fluxes; this
    # ended in a ValueError traceback from the solve, exit 1, and run.log
    # had no failed line
    text = BASE_CONFIG.replace("init.w_amp = 0.0", "init.w_amp = 1e300")
    cfg = write_config(tmp_path, text + f"output.dir = {tmp_path / 'out'}\n")
    # the initial summary finds the overflow without a numpy warning
    assert cli.main(["simulate", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("runtime failure (non-finite): ")
    context = err[err.index("[t="):].strip()
    assert context.endswith(", gamma=10.0]") and "cell=None" not in context
    log = (tmp_path / "out" / "run.log").read_text().splitlines()
    assert log[-1].startswith("failed ") and log[-1].endswith(context)


@pytest.mark.parametrize("key,value", [
    ("scheme.cfl", "1e-300"),       # each hung: CFL steps of 2.7e-303,
    ("init.w_amp", "1e150"),        # 3.9e-154
    ("init.w_mean", "1e12"),        # and 3.9e-16
    ("init.w_amp", "5e3"),          # 6.4e6 steps, within a step-count budget,
])                                  # would have run about 23 minutes
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unfinishable_run_is_runtime_failure(tmp_path, capsys, key, value):
    cfg = shipped_config(tmp_path, "standard_smooth", {key: value}, tmp_path / "out")
    started = time.perf_counter()
    assert cli.main(["simulate", "--config", cfg]) == 3
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("runtime failure (step budget): CFL step ")
    assert "[t=0.0, cell=" in err and err.endswith(", gamma=10.0]\n")


def test_unfinishable_sweep_rows_fail_as_alone(tmp_path, capsys):
    # a sweep whose every row failed exited 0; it now fails as its first row
    cfg = shipped_config(tmp_path, "standard_sweep",
                         {"sweep.gammas": "5, 10", "init.w_mean": "1e12"}, tmp_path / "out")
    assert cli.main(["sweep", "--config", cfg]) == 3
    rows = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())["rows"]
    assert capsys.readouterr().err == f"runtime failure (step budget): {rows[0]['failure']}\n"
    for row in rows:
        single = shipped_config(tmp_path, "standard_smooth",
                                {"init.w_mean": "1e12", "model.gamma": row["gamma"]},
                                tmp_path / "single")
        capsys.readouterr()
        assert cli.main(["simulate", "--config", single]) == 3
        assert row["failed"]
        assert capsys.readouterr().err == f"runtime failure (step budget): {row['failure']}\n"


@pytest.mark.parametrize("key,value", [
    ("model.gamma", "0"),           # both ended in a ValueError traceback,
    ("model.gamma", "-1"),          # exit 1
    ("sweep.gammas", "5, 5"),
    ("sweep.gammas", "10, 5"),
    ("sweep.gammas", "0, 5"),
    ("time.t_end", "abc"),
    ("grid.n_cells", "6.5"),
    ("output.format", "xml"),       # retired keys, now unknown
    ("scheme.max_halvings", "20"),
    ("scheme.newton_tol", "0"),
    ("diagnostics.every", "-1"),    # named only snapshot_every
    ("grid.n_cells", "3"),
    ("time.t_end", "0"),
    ("time.t_end", "1e12"),         # never finished
    ("scheme.dt_max", "1e-300"),    # never finished
    ("grid.n_cells", "2000000000"),  # ended in a memory-error traceback, exit 1
])
def test_gamma_rules_are_config_errors(tmp_path, capsys, key, value):
    # every config rule, not only the gamma ones: exit 2 naming the key,
    # before anything is written
    command = "sweep" if key == "sweep.gammas" else "simulate"
    replaced = "model.gamma" if key == "sweep.gammas" else key
    lines = [line for line in BASE_CONFIG.splitlines()
             if not line.startswith(f"{replaced} =")]
    lines += [f"{key} = {value}", f"output.dir = {tmp_path / 'out'}"]
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    assert cli.main([command, "--config", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a cheap run (16 cells, t_end 0.01) and the values one key is set to:
# non-finite, huge, tiny, zero, negative, not a number and words of other
# keys; none of them makes an accepted run costly
GRAMMAR_BASE = {
    "scheme.formulation": "w_form",
    "grid.n_cells": "16",
    "model.gamma": "10",
    "init.kind": "cosine",
    "init.rho_mean": "0.8",
    "init.rho_amp": "0.1",
    "init.w_amp": "0.2",
    "time.t_end": "0.01",
    "diagnostics.every": "0.005",
}
ODD_VALUES = ("nan", "inf", "-inf", "1e300", "-1e300", "1e12", "2147483648", "1e-300",
              "5e-324", "0", "-1", "-0.5", "abc", "", "5, 10", "0x10", "u_form",
              "two_mode", "custom_csv", "jsonl")
ONE_KEY_EDITS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(sorted(set(CONFIG_KEYS) - {"output.dir"})),
              st.sampled_from(ODD_VALUES)),
    st.tuples(st.just("unknown"), st.sampled_from(
        ("grid.cells", "scheme.newton_tol", "sweep.threads", "model", "output.format",
         "scheme.max_halvings")), st.just("1")),
    st.tuples(st.sampled_from(("missing", "duplicate")), st.sampled_from(sorted(GRAMMAR_BASE)),
              st.just("")),
    st.tuples(st.just("malformed"), st.sampled_from(("just words", "= 5", "grid.n_cells")),
              st.just("")),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["simulate", "sweep"]), edit=ONE_KEY_EDITS)
def test_one_key_edits_end_in_an_exit_code(command, edit):
    # every input ends in exit 0-3: no traceback and no hang
    how, key, value = edit
    values = dict(GRAMMAR_BASE)
    if command == "sweep":
        del values["model.gamma"]
        values["sweep.gammas"] = "5, 10"
    lines = [f"{k} = {v}" for k, v in values.items() if not (how == "missing" and k == key)]
    if how == "set":
        lines = [line for line in lines if not line.startswith(f"{key} =")]
    if how in ("set", "unknown", "duplicate"):
        lines.append(f"{key} = {value if how != 'duplicate' else values.get(key, '1')}")
    if how == "malformed":
        lines.append(key)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), "\n".join(lines) + f"\noutput.dir = {tmp}/out\n")
        assert cli.main([command, "--config", cfg]) in (0, 1, 2, 3)


@pytest.mark.parametrize("command,blocked", [
    ("simulate", "output.dir"), ("sweep", "output.dir"),
    ("simulate", "run.log"), ("sweep", "run.log"),
], ids=["simulate", "sweep", "simulate-run.log", "sweep-run.log"])
def test_unwritable_output_dir_is_config_error(tmp_path, monkeypatch, capsys, command,
                                               blocked):
    # a file where output.dir should be ended in a NotADirectoryError
    # traceback, exit 1, and the sweep ran its whole batch first; a
    # directory where run.log should be (which denies root too, unlike a
    # chmod) ended in an IsADirectoryError traceback
    if blocked == "output.dir":
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out_dir = blocker / "out"
    else:
        out_dir = tmp_path / "out"
        (out_dir / "run.log").mkdir(parents=True)
    text = BASE_CONFIG if command == "simulate" else BASE_CONFIG.replace(
        "model.gamma = 10.0", "sweep.gammas = 5, 10")
    cfg = write_config(tmp_path, text + f"output.dir = {out_dir}\n")
    started = []
    monkeypatch.setattr(sweep_mod, "run_simulation", lambda *args: started.append(args))
    assert cli.main([command, "--config", cfg]) == 2
    assert str(out_dir) in capsys.readouterr().err
    assert started == []


@pytest.mark.parametrize("command,blocked", [
    ("simulate", "snapshot_0001.csv"), ("simulate", "summary.json"),
    ("sweep", "sweep_report.csv"), ("sweep", "sweep_summary.json"),
])
def test_unwritable_output_ends_the_run_as_config_error(tmp_path, capsys, command, blocked):
    # a directory where an output should be ended in an IsADirectoryError
    # traceback, exit 1, and run.log had no failed line
    out_dir = tmp_path / "out"
    (out_dir / blocked).mkdir(parents=True)
    case = "standard_smooth" if command == "simulate" else "standard_sweep"
    cfg = shipped_config(tmp_path, case, {"grid.n_cells": "64"}, out_dir)
    assert cli.main([command, "--config", cfg]) == 2
    err, path = capsys.readouterr().err, str(out_dir / blocked)
    assert err.startswith("configuration error: ") and err.count("\n") == 1 and path in err
    log = (out_dir / "run.log").read_text().splitlines()
    assert log[-1].startswith("failed ") and path in log[-1]
    if blocked == "snapshot_0001.csv":
        # what the run wrote before the failed write stays
        assert len((out_dir / "snapshot_0000.csv").read_text().splitlines()) == 65
        assert len((out_dir / "diagnostics.jsonl").read_text().splitlines()) == 1


def test_snapshot_csv_matches_per_value_format(tmp_path, monkeypatch):
    edge = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, 0.1, 1.0 / 3.0]
    rng = np.random.default_rng(5)
    values = np.concatenate([edge, rng.standard_normal(500)
                             * 10.0 ** rng.integers(-300, 300, size=500)])
    cols = [np.roll(values, k) for k in range(len(cli.SNAPSHOT_COLUMNS))]
    monkeypatch.setattr(cli, "_snapshot_columns", lambda g, snap: cols)
    path = tmp_path / "snapshot.csv"
    cli.write_snapshot_csv(str(path), None, None)
    want = "x,rho,u,w,pi,W,V\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in zip(*cols))
    assert path.read_text(encoding="utf-8") == want


def test_snapshot_V_column_cases():
    # the V column is the diffusion flux lambda(rho) dx u of the snapshot's fields
    g = Grid(1024)
    rho = np.ones(1024)
    u = np.sin(2.0 * np.pi * g.x)

    def V(u, gamma):
        params, state = ModelParams(gamma), State(0.0, rho, rho * u, U_FORM)
        snap = solver_mod.Snapshot(state, state_fields(state, g, params),
                                   None, None, None, None)
        return cli._snapshot_columns(g, snap)[cli.SNAPSHOT_COLUMNS.index("V")]

    assert np.max(np.abs(V(u, 5.0) - 5.0 * 2.0 * np.pi * np.cos(2.0 * np.pi * g.x))) <= 5e-4
    assert np.all(V(np.full(1024, 1.5), 5.0) == 0.0)
    # with lambda = 4 exactly, V / lambda recovers the gradient exactly
    assert np.array_equal(V(u, 4.0) / 4.0, ddx_central(u, g))


def test_mms_subcommand():
    assert cli.main(["mms", "--case", "constant", "--resolutions", "16,32,64"]) == 0
    assert cli.main(["mms", "--case", "nope"]) == 2


@pytest.mark.parametrize("resolutions", [
    "64,abc", "64,128", "64,100,200", "", "2,4,8",
    "1048576,2097152,4194304", "1099511627776,2199023255552,4398046511104"])
def test_mms_bad_resolutions_are_config_errors(capsys, resolutions):
    # each ended in a ValueError traceback with exit 1, the verdict code; of
    # the last two, one ran for minutes on grids of millions of cells and the
    # other ended in a memory-error traceback
    assert cli.main(["mms", "--case", "constant", "--resolutions", resolutions]) == 2
    assert "--resolutions" in capsys.readouterr().err


def test_verify_runs_every_single_gamma_config(tmp_path, monkeypatch, capsys):
    for name in ("constant_state.cfg", "standard_sweep.cfg"):
        (tmp_path / name).write_bytes((cli.CONFIG_DIR / name).read_bytes())
    monkeypatch.setattr(cli, "CONFIG_DIR", tmp_path)
    assert cli.main(["verify", "--suite", "invariants"]) == 0
    labels = [line.rsplit(": ", 1)[0] for line in capsys.readouterr().out.splitlines()]
    # w0 = 0 never changes sign, so the W maximum principle is checked
    assert labels == [f"[PASS] constant_state: {check}" for check in (
        "mass conservation", "ke_w non-increasing", "energy residual band",
        "W max principle", "rhoW2 conservation", "density lower bound",
        "psi_periodicity", "psi_gradient", "positivity")]


@pytest.mark.parametrize("contents", ["missing", "sweep_only"])
def test_verify_without_single_gamma_config_is_config_error(tmp_path, monkeypatch,
                                                            capsys, contents):
    config_dir = tmp_path / "configs"
    if contents == "sweep_only":
        config_dir.mkdir()
        (config_dir / "standard_sweep.cfg").write_bytes(
            (cli.CONFIG_DIR / "standard_sweep.cfg").read_bytes())
    monkeypatch.setattr(cli, "CONFIG_DIR", config_dir)
    assert cli.main(["verify", "--suite", "invariants"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(config_dir) in captured.err


def test_verify_oracle_suite():
    assert cli.main(["verify", "--suite", "oracle"]) == 0


def test_verify_failure_exit_code(monkeypatch):
    monkeypatch.setitem(cli.SUITES, "oracle",
                        lambda: [lambda: [("synthetic check", False, "forced failure")]])
    assert cli.main(["verify", "--suite", "oracle"]) == 1


# verify's jobs run in forked children, at most one per usable core; these
# tests give the pool two cores, so that it forks on any machine

def two_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def synthetic_suite(monkeypatch, *jobs):
    monkeypatch.setitem(cli.SUITES, "oracle", lambda: list(jobs))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_prints_in_job_order_when_a_later_job_ends_first(monkeypatch, capsys):
    two_cores(monkeypatch)

    def slow():
        time.sleep(0.3)
        return [("first", True, "slow")]

    synthetic_suite(monkeypatch, slow, lambda: [("second", False, "fast")])
    assert cli.main(["verify", "--suite", "oracle"]) == 1
    assert capsys.readouterr().out == "[PASS] first: slow\n[FAIL] second: fast\n"
    assert_no_child_left()


def test_verify_runs_at_most_one_child_per_core(monkeypatch, capsys):
    two_cores(monkeypatch)
    real_fork, real_waitpid = os.fork, os.waitpid
    alive, forks, most = set(), [], [0]

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
            alive.add(pid)
            most[0] = max(most[0], len(alive))
        return pid

    def waitpid(pid, options):
        done = real_waitpid(pid, options)
        alive.discard(done[0])
        return done

    def job(k):
        time.sleep(0.1)
        return [(f"job {k}", True, "")]

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    synthetic_suite(monkeypatch, *(lambda k=k: job(k) for k in range(4)))
    assert cli.main(["verify", "--suite", "oracle"]) == 0
    assert capsys.readouterr().out == "".join(f"[PASS] job {k}: \n" for k in range(4))
    assert (len(forks), most[0], alive) == (4, 2, set())
    assert_no_child_left()


@pytest.mark.parametrize("error,code", [
    (VacuumError("synthetic", t=0.5, cell=3, gamma=2.0), 3),
    (ConfigError("synthetic"), 2),
], ids=["run_failure", "config_error"])
def test_failing_job_ends_verify_as_in_process(tmp_path, monkeypatch, capsys, error, code):
    # the failing job ends first, so a slow job takes its core; the jobs
    # after the failing one are killed, so none writes its marker
    marker = tmp_path / "marker"

    def first():
        time.sleep(0.1)
        return [("first", True, "done")]

    def fails():
        raise error

    def slow():
        time.sleep(3.0)
        marker.touch()
        return []

    synthetic_suite(monkeypatch, first, fails, slow, slow)
    two_cores(monkeypatch)
    seen = []
    for forks in (True, False):
        if not forks:
            monkeypatch.delattr(os, "fork")
        assert cli.main(["verify", "--suite", "oracle"]) == code
        seen.append(capsys.readouterr())
        assert_no_child_left()
    assert seen[0] == seen[1]
    assert seen[0].out == "[PASS] first: done\n" and seen[0].err.count("\n") == 1
    assert not marker.exists()


def test_job_exceptions_cross_the_pipe(monkeypatch):
    two_cores(monkeypatch)

    class LocalError(Exception):  # a local class cannot be pickled
        pass

    def raises(exc):
        raise exc

    with pytest.raises(VacuumError) as info:
        list(cli.in_children([lambda: 1, lambda: raises(
            VacuumError("synthetic", t=0.5, cell=3, gamma=2.0))]))
    assert (str(info.value), info.value.t, info.value.cell,
            info.value.gamma) == ("synthetic", 0.5, 3, 2.0)
    with pytest.raises(RuntimeError, match=r"LocalError\('local'\) cannot be pickled"):
        list(cli.in_children([lambda: 1, lambda: raises(LocalError("local"))]))
    assert_no_child_left()


def test_verify_job_killed_by_a_signal_is_runtime_failure(monkeypatch, capsys):
    two_cores(monkeypatch)
    test_pid = os.getpid()

    def killed():
        assert os.getpid() != test_pid, "the job runs in the test's process"
        os.kill(os.getpid(), signal.SIGKILL)

    synthetic_suite(monkeypatch, lambda: [("first", True, "done")], killed)
    assert cli.main(["verify", "--suite", "oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "[PASS] first: done\n"
    assert captured.err.count("\n") == 1 and "killed by signal 9" in captured.err
    assert_no_child_left()


@pytest.mark.parametrize("how", ["close", "ctrl_c"])
def test_leaving_the_pool_kills_and_reaps_its_children(tmp_path, monkeypatch, how):
    two_cores(monkeypatch)
    marker = tmp_path / "marker"

    def slow():
        time.sleep(3.0)
        marker.touch()

    results = cli.in_children([lambda: 1, slow, slow])
    if how == "close":
        assert next(results) == 1
        results.close()
    else:  # the second wait for a child is interrupted
        import select
        real, calls = select.select, []

        def interrupted(*args):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(select, "select", interrupted)
        with pytest.raises(KeyboardInterrupt):
            list(results)
    assert_no_child_left()
    assert not marker.exists()


def test_verify_prints_the_same_bytes_without_fork(monkeypatch, capsys):
    two_cores(monkeypatch)
    seen = []
    for forks in (True, False):
        if not forks:
            monkeypatch.delattr(os, "fork")
        code = cli.main(["verify", "--suite", "mms"])
        seen.append((code, *capsys.readouterr()))
    assert seen[0] == seen[1]
    assert seen[0][0] == 0 and seen[0][1].count("\n") == 3 and seen[0][2] == ""
