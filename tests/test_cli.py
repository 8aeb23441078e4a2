import argparse
import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trilevel
from trilevel import cli
from trilevel.cli import describe_map, main, parse_scenario, serialize_scenario
from trilevel.equivalence import verify_equivalence
from trilevel.errors import PropagationError, ScenarioError
from trilevel.observables import emission_spectrum
from trilevel.systems import build_model


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def minimal_fig2a(task="simulate", **extra):
    payload = {
        "schema_version": 1,
        "task": task,
        "system": {"config": "fig2a", "gamma21": 1.0, "gamma31": 0.1,
                   "omega_a": 2.0, "omega_b": 0.6},
    }
    payload.update(extra)
    return payload


def read_grid(verb, time_grid, omega_grid):
    """The one grid entry ``verb`` reads: spectrum reads only omega_grid."""
    return ({"omega_grid": omega_grid} if verb == "spectrum"
            else {"time_grid": time_grid})


# ---------------------------------------------------------------- parsing

def test_parse_minimal_scenario_applies_defaults(tmp_path):
    s = parse_scenario(write_scenario(tmp_path, minimal_fig2a()))
    assert s.task == "simulate"
    assert s.time_grid == (0.0, 20.0, 201)
    assert s.seed == 0
    assert s.tolerances["equivalence"] == 1e-8
    assert s.system.gamma23_or_31 == 0.1


def test_parse_rejects_negative_rate_naming_field(tmp_path):
    payload = minimal_fig2a()
    payload["system"]["gamma21"] = -1.0
    with pytest.raises(ScenarioError, match="gamma21"):
        parse_scenario(write_scenario(tmp_path, payload))


def test_parse_rejects_unknown_field(tmp_path):
    payload = minimal_fig2a()
    payload["turbo"] = True
    with pytest.raises(ScenarioError, match="turbo"):
        parse_scenario(write_scenario(tmp_path, payload))


def test_parse_rejects_wrong_gamma_alias(tmp_path):
    payload = minimal_fig2a()
    payload["system"]["gamma23"] = payload["system"].pop("gamma31")
    with pytest.raises(ScenarioError, match="gamma23"):
        parse_scenario(write_scenario(tmp_path, payload))


def test_parse_rejects_bad_task(tmp_path):
    with pytest.raises(ScenarioError, match="task"):
        parse_scenario(write_scenario(tmp_path, minimal_fig2a(task="fly")))


@pytest.mark.parametrize("text, message", [
    ("{not json", "error: <file>: not valid JSON: "),
    ("[1, 2]", "error: <file>: top level must be an object"),
], ids=["not-json", "list-top-level"])
def test_unreadable_scenario_files_are_named(tmp_path, capsys, text,
                                             message):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    code = main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


def test_parse_missing_file():
    with pytest.raises(FileNotFoundError):
        parse_scenario("/nonexistent/scenario.json")


# per task: the seed, tolerances and options it reads, set off default
READ_ENTRIES = {
    "simulate": {},
    "equiv-check": {"tolerances": {"equivalence": 1e-9, "trace": 1e-10}},
    "spectrum": {"tolerances": {"spectrum_rel": 1e-5},
                 "options": {"compare_mapped": True}},
    "g2": {"tolerances": {"photon_statistics": 1e-9},
           "options": {"compare_mapped": True, "normalized": True}},
    "waiting-time": {"tolerances": {"photon_statistics": 1e-9},
                     "options": {"compare_mapped": True}},
    "trajectories": {"seed": 7,
                     "options": {"n_traj": 5, "dark_threshold": 2.0}},
}


def test_scenario_round_trip_is_identity(tmp_path):
    assert set(READ_ENTRIES) == set(cli.TASKS)
    for task, entries in READ_ENTRIES.items():
        payload = minimal_fig2a(
            task=task, **read_grid(task, [0.0, 10.0, 101], [-3.0, 3.0, 31]),
            **entries)
        first = parse_scenario(write_scenario(tmp_path, payload))
        echo = serialize_scenario(first)
        assert [key for key in echo if key.endswith("_grid")] == list(
            read_grid(task, None, None)), task
        assert echo["tolerances"] == entries.get("tolerances", {}), task
        assert echo.get("seed") == entries.get("seed"), task
        second = parse_scenario(write_scenario(tmp_path, echo,
                                               name="echo.json"))
        assert first == second, task


# ------------------------------------------------------------------- runs

def test_equiv_check_run_passes(tmp_path):
    payload = minimal_fig2a(task="equiv-check",
                            time_grid=[0.0, 10.0, 51])
    payload["system"].update({"delta2": 0.4, "delta3": -0.7})
    code = main(["equiv-check", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    check = report["checks"][0]
    assert check["value"] < check["tol"] == 1e-8
    assert report["equivalence_map"]["phi"] > 0
    assert (tmp_path / "out" / "equivalence.dat").exists()


def test_equiv_check_detects_wrong_target(tmp_path):
    payload = minimal_fig2a(task="equiv-check", time_grid=[0.0, 5.0, 26])
    payload["target"] = {"config": "fig2b", "gamma21": 0.55, "gamma31": 0.55,
                         "omega_a": 1.4, "omega_b": 1.4, "delta2": -0.6,
                         "delta3": 0.6, "phi": 1.0}
    code = main(["equiv-check", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 1


def test_equiv_check_gates_negative_eigenvalue(tmp_path, monkeypatch):
    def negative(*args, **kwargs):
        return dataclasses.replace(verify_equivalence(*args, **kwargs),
                                   min_eigenvalue=-1e-6)

    monkeypatch.setattr(cli, "verify_equivalence", negative)
    payload = minimal_fig2a(task="equiv-check", time_grid=[0.0, 5.0, 26])
    code = main(["equiv-check", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [(c["name"], c["value"]) for c in failed] == [
        ("negative_eigenvalue", 1e-6)]


def test_simulate_zero_horizon_single_row(tmp_path):
    payload = minimal_fig2a(task="simulate", time_grid=[0.0, 0.0, 1])
    code = main(["simulate", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    data = np.loadtxt(tmp_path / "out" / "populations.dat", ndmin=2)
    assert data.shape == (1, 4)
    np.testing.assert_allclose(data[0], [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_trajectories_are_bit_identical_for_fixed_seed(tmp_path):
    payload = minimal_fig2a(task="trajectories", time_grid=[0.0, 10.0, 2],
                            seed=123,
                            options={"n_traj": 20,
                                     "dark_threshold": 3.0})
    cfg = write_scenario(tmp_path, payload)
    main(["trajectories", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["trajectories", "--config", str(cfg), "--out", str(tmp_path / "b")])
    bytes_a = (tmp_path / "a" / "jumps.dat").read_bytes()
    bytes_b = (tmp_path / "b" / "jumps.dat").read_bytes()
    assert bytes_a == bytes_b
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["extras"]["bright_dark"]["n_gaps"] > 0


def test_g2_compare_mapped_run(tmp_path):
    payload = minimal_fig2a(task="g2", time_grid=[0.0, 20.0, 101],
                            options={"compare_mapped": True})
    code = main(["g2", "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"][0]["passed"] is True
    data = np.loadtxt(tmp_path / "out" / "g2.dat", ndmin=2)
    assert data.shape[1] == 3  # tau, value, mapped value


@pytest.mark.parametrize("verb", ["g2", "waiting-time"])
def test_compare_mapped_twin_starts_from_rotated_ground_state(tmp_path, verb):
    # fig1 has U|1> != |1>, so the twin must be reset to U|1><1|U^+
    payload = {
        "schema_version": 1,
        "task": verb,
        "system": {"config": "fig1a", "gamma21": 1.0, "gamma23": 0.3,
                   "omega_a": 1.2, "omega_b": 0.7, "delta2": 0.4,
                   "delta3": -0.6},
        "time_grid": [0.0, 30.0, 301],
        "options": {"compare_mapped": True},
    }
    code = main([verb, "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"][0]["value"] < 1e-8


def test_spectrum_rejects_quadrature_options(tmp_path, capsys):
    payload = minimal_fig2a(task="spectrum", options={"n_tau": 4096})
    code = main(["spectrum", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "options.n_tau: unknown option" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["positivity", "left_null", "null_space",
                                 "hermiticity"])
def test_unread_tolerance_keys_are_rejected(tmp_path, capsys, key):
    payload = minimal_fig2a(task="simulate", tolerances={key: 1e-9})
    code = main(["simulate", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"tolerances.{key}: unknown tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["time_grid", "omega_grid"])
@pytest.mark.parametrize("grid", [
    {"a": 1}, "123", [0, 20, 21.7], [0, 20, 21, 99], [0, 20], [0, 20, True],
    [False, 20, 21], [0, "20", 21], [0, 20, 0], 5, None,
], ids=["object", "text", "fractional-count", "four-entries", "two-entries",
        "bool-count", "bool-bound", "text-bound", "zero-count", "number",
        "null"])
def test_malformed_grids_are_named(tmp_path, capsys, key, grid):
    verb = "simulate" if key == "time_grid" else "spectrum"
    payload = minimal_fig2a(task=verb, **{key: grid})
    code = main([verb, "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error: {key}: must be [start, stop, count]" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb, extra, argv, field", [
    ("g2", {"time_grid": [0.0, math.inf, 11]}, [], "time_grid"),
    ("g2", {"time_grid": [0.0, 10.0, math.inf]}, [], "time_grid"),
    ("spectrum", {"omega_grid": [-5.0, math.nan, 11],
                  "options": {"compare_mapped": True}}, [], "omega_grid"),
    ("simulate", {"tolerances": {"equivalence": math.nan}}, [],
     "tolerances.equivalence"),
    ("simulate", {"tolerances": {"equivalence": "abc"}}, [],
     "tolerances.equivalence"),
    ("simulate", {"tolerances": {"trace": 0.0}}, [], "tolerances.trace"),
    ("g2", {"options": {"compare_mapped": True}}, ["--tol", "nan"], "--tol"),
], ids=["inf-bound", "inf-count", "nan-bound", "nan-tolerance",
        "text-tolerance", "zero-tolerance", "nan-tol-option"])
def test_non_finite_numbers_are_rejected_input(tmp_path, capsys, verb, extra,
                                               argv, field):
    # json reads NaN and Infinity; each must be named and rejected
    payload = minimal_fig2a(task=verb, **extra)
    code = main([verb, "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")] + argv)
    assert code == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("where, entry, message", [
    ("system", {"gamma21": -1}, "must be >= 0, got -1"),
    ("target", {"config": "fig2b", "gamma21": 1.0, "gamma31": 0.1,
                "omega_a": 1.0}, "required for config fig2b"),
    ("system", {"gamma21": "abc"}, "must be a number, got 'abc'"),
    ("system", {"gamma21": True}, "must be a number, got True"),
], ids=["negative-rate", "missing-phi", "text-rate", "bool-rate"])
def test_parameter_errors_name_their_field(tmp_path, capsys, where, entry,
                                           message):
    payload = minimal_fig2a(task="equiv-check", time_grid=[0.0, 1.0, 3])
    payload.setdefault(where, {}).update(entry)
    code = main(["equiv-check", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    name = "gamma21" if where == "system" else "phi"
    assert f"error: {where}.{name}: {message}" in capsys.readouterr().err


def test_trajectories_reject_step_size_option(tmp_path, capsys):
    payload = minimal_fig2a(task="trajectories", time_grid=[0.0, 1.0, 3],
                            options={"n_traj": 5, "dt": 0.05})
    code = main(["trajectories", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "options.dt: unknown option" in capsys.readouterr().err


@pytest.mark.parametrize("system, horizon", [
    # a horizon that is no multiple of 0.05
    ({}, 10.03),
    # the critical damping point of the 1-2 block, where H_eff is nearly
    # defective
    ({"gamma21": 0.4, "gamma31": 0.1, "omega_a": 0.2, "omega_b": 0.0}, 10.0),
], ids=["off-grid-horizon", "exceptional-point"])
def test_trajectories_run(tmp_path, system, horizon):
    payload = minimal_fig2a(task="trajectories", time_grid=[0.0, horizon, 2],
                            options={"n_traj": 50})
    payload["system"].update(system)
    code = main(["trajectories", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    data = np.loadtxt(tmp_path / "out" / "jumps.dat", ndmin=2)
    assert data.shape[1] == 3
    assert np.all((data[:, 1] > 0) & (data[:, 1] <= horizon))


def test_wrongly_typed_option_is_rejected_input(tmp_path):
    payload = minimal_fig2a(task="trajectories", time_grid=[0.0, 1.0, 3],
                            options={"n_traj": [5]})
    code = main(["trajectories", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_internal_failure_exits_3(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise PropagationError("trace drifted", 1.5)

    monkeypatch.setattr(cli, "populations", fail)
    code = main(["simulate", "--config",
                 str(write_scenario(tmp_path, minimal_fig2a())),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == (
        "internal error: trace drifted (at t = 1.5)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_propagated_state_exits_3(tmp_path, capsys):
    # rates and drive of 1e200 overflow the step's exponential; the NaN
    # states are an internal failure, not a populations file
    payload = minimal_fig2a()
    payload["system"].update(gamma21=1e200, omega_a=1e200)
    code = main(["simulate", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == (
        "internal error: a propagated state has a non-finite entry "
        "(at t = 0.1)\n")
    assert not (tmp_path / "out").exists()


def test_non_unique_steady_state_exits_2(tmp_path, capsys):
    # nothing drives or damps the atom: the null space is all of L's space
    payload = minimal_fig2a(task="spectrum", omega_grid=[-1.0, 1.0, 5])
    payload["system"].update(gamma21=0.0, gamma31=0.0, omega_a=0.0,
                             omega_b=0.0)
    code = main(["spectrum", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: steady state is not unique: null space has dimension 9\n")
    assert not (tmp_path / "out").exists()


def test_near_dark_spectrum_is_rejected_input(tmp_path, capsys):
    # a weak omega_a nearly shelves the atom: L's spectral gap falls as
    # omega_a**2, below the null-space cut
    payload = {"schema_version": 1, "task": "spectrum",
               "system": {"config": "fig1a", "gamma21": 1.0, "gamma23": 0.3,
                          "omega_a": 1e-5, "omega_b": 0.7, "delta2": 0.4,
                          "delta3": -0.6},
               "omega_grid": [-6.0, 6.0, 201],
               "options": {"compare_mapped": True}}
    code = main(["spectrum", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: steady state is not unique: null space has dimension 2\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("omega_b, code", [(0.0, 2), (5e-8, 0)],
                         ids=["shelved", "just-above-floor"])
def test_spectrum_pair_below_the_floor_is_rejected_input(tmp_path, capsys,
                                                         omega_b, code):
    # without omega_b the atom is shelved in |3>: S_a is 0 and S_b roundoff
    payload = {"schema_version": 1, "task": "spectrum",
               "system": {"config": "fig1a", "gamma21": 1.0, "gamma23": 0.3,
                          "omega_a": 1.2, "omega_b": omega_b, "delta2": 0.4,
                          "delta3": -0.6},
               "omega_grid": [-6.0, 6.0, 201],
               "options": {"compare_mapped": True}}
    out = tmp_path / "out"
    assert main(["spectrum", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(out)]) == code
    if code == 2:
        assert capsys.readouterr().err == (
            "error: spectrum_mapped_pair_rel_diff: max|S_a| = 0.000000e+00 "
            "and max|S_b| = 2.276264e-32 are below SPECTRUM_FLOOR = 1e-14, "
            "too weak to compare relatively\n")
        return
    peaks = np.abs(np.loadtxt(out / "spectrum.dat")[:, 1:]).max(axis=0)
    np.testing.assert_allclose(peaks, 1.169087e-14, rtol=1e-6)
    check, = json.loads((out / "report.json").read_text())["checks"]
    assert check["passed"] and check["value"] == pytest.approx(1.933844e-9,
                                                               rel=1e-6)


def test_spectrum_compare_mapped_run(tmp_path):
    payload = minimal_fig2a(task="spectrum",
                            omega_grid=[-8.0, 8.0, 201],
                            options={"compare_mapped": True})
    code = main(["spectrum", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    data = np.loadtxt(tmp_path / "out" / "spectrum.dat", ndmin=2)
    assert data.shape == (201, 3)


def test_waiting_time_run_writes_curve(tmp_path):
    payload = minimal_fig2a(task="waiting-time", time_grid=[0.0, 15.0, 61])
    code = main(["waiting-time", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    data = np.loadtxt(tmp_path / "out" / "waiting_time.dat", ndmin=2)
    assert data.shape == (61, 2)
    assert data[0, 1] == 0.0


def test_verb_task_mismatch_is_an_error(tmp_path):
    cfg = write_scenario(tmp_path, minimal_fig2a(task="simulate"))
    code = main(["g2", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2


def test_data_files_declare_units(tmp_path):
    payload = minimal_fig2a(task="simulate", time_grid=[0.0, 1.0, 5])
    main(["simulate", "--config", str(write_scenario(tmp_path, payload)),
          "--out", str(tmp_path / "out")])
    header = (tmp_path / "out" / "populations.dat").read_text().splitlines()[:2]
    assert all(line.startswith("#") for line in header)
    assert "Gamma_ref" in header[1]


# ----------------------------------------------------------- describe-map

def test_describe_map_parallel_dipoles(capsys, tmp_path):
    payload = {
        "schema_version": 1,
        "task": "simulate",
        "system": {"config": "fig1a", "gamma21": 1.0, "gamma23": 0.0,
                   "omega_a": 1.0, "omega_b": 0.5},
    }
    code = main(["describe-map", "--config",
                 str(write_scenario(tmp_path, payload))])
    assert code == 0
    out = capsys.readouterr().out
    assert "phi     : 0 rad" in out
    assert "fig1b" in out


def test_describe_map_symmetric_rates():
    from trilevel.systems import Config, SystemParams
    p = SystemParams(Config.FIG2A, gamma21=0.7, gamma23_or_31=0.7,
                     omega_a=1.0, omega_b=0.4)
    text = describe_map(p)
    assert f"{math.pi / 2:.12g}" in text


def test_describe_map_matches_module_values():
    from trilevel.equivalence import map_system
    from trilevel.systems import Config, SystemParams
    p = SystemParams(Config.FIG2A, gamma21=1.3, gamma23_or_31=0.2,
                     omega_a=1.1, omega_b=0.9, delta2=0.5, delta3=-0.3)
    _, emap = map_system(p)
    text = describe_map(p)
    assert f"{emap.theta:.12g}" in text
    assert f"{emap.phi:.12g}" in text
    assert f"{emap.lambda1:.12g}" in text


def test_describe_map_degenerate_basis_is_reported(tmp_path, capsys):
    payload = {
        "schema_version": 1,
        "task": "simulate",
        "system": {"config": "fig1a", "gamma21": 1.0, "gamma23": 0.5,
                   "omega_a": 1.0, "omega_b": 0.0, "delta3": 0.0},
    }
    code = main(["describe-map", "--config",
                 str(write_scenario(tmp_path, payload))])
    assert code == 2
    err = capsys.readouterr().err
    assert "dressed basis undefined" in err


def test_matrix_initial_state(tmp_path):
    payload = minimal_fig2a(task="simulate", time_grid=[0.0, 1.0, 3])
    payload["initial_state"] = [[0.5, 0.0, [0.0, 0.2]],
                                [0.0, 0.3, 0.0],
                                [[0.0, -0.2], 0.0, 0.2]]
    code = main(["simulate", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    data = np.loadtxt(tmp_path / "out" / "populations.dat", ndmin=2)
    np.testing.assert_allclose(data[0, 1:], [0.5, 0.3, 0.2], atol=1e-12)


def test_matrix_initial_state_rejects_invalid(tmp_path):
    payload = minimal_fig2a(task="simulate")
    payload["initial_state"] = [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0]]  # trace 2
    with pytest.raises(ScenarioError, match="initial_state"):
        parse_scenario(write_scenario(tmp_path, payload))


# ------------------------------------------------------- typed task options

_FIG1A = {"config": "fig1a", "gamma21": 1.0, "gamma23": 0.3, "omega_a": 1.2,
          "omega_b": 0.7, "delta2": 0.4, "delta3": -0.6}


@pytest.mark.parametrize("verb, entry, field", [
    ("g2", {"options": {"compare_mapped": "no"}}, "options.compare_mapped"),
    ("g2", {"options": {"normalized": "yes"}}, "options.normalized"),
    ("trajectories", {"options": {"n_traj": 2.7}}, "options.n_traj"),
    ("trajectories", {"options": {"n_traj": True}}, "options.n_traj"),
    ("trajectories", {"options": {"n_traj": 0}}, "options.n_traj"),
    ("trajectories", {"options": {"dark_threshold": "abc"}},
     "options.dark_threshold"),
    ("trajectories", {"options": {"dark_threshold": math.inf}},
     "options.dark_threshold"),
    ("spectrum", {"options": {"detect_weights": [0.6, "0.8"]}},
     "options.detect_weights"),
    ("spectrum", {"options": {"detect_weights": [1.0, math.inf]}},
     "options.detect_weights"),
    ("simulate", {"seed": True}, "seed"),
    ("simulate", {"initial_state": True}, "initial_state"),
    *[("simulate", {"initial_state": [[1.0, 0, 0], [0, 0, 0], [0, 0, entry]]},
       "initial_state") for entry in ("0", {"re": 0.0}, [0.0, "0"], [0.0],
                                      [[0.0, 0.0], 0.0])],
    ("simulate", {"initial_state": [[True, 0, 0], [0, 0, 0], [0, 0, 0]]},
     "initial_state"),
    ("simulate", {"tolerances": {"trace": True}}, "tolerances.trace"),
    ("simulate", {"tolerances": [1e-9]}, "tolerances"),
    ("equiv-check", {"system": _FIG1A, "target": {
        "config": "fig2b", "gamma21": 0.55, "gamma31": 0.55, "omega_a": 1.4,
        "phi": 1.0}}, "target.config"),
    ("g2", {"system": _FIG1A, "target": _FIG1A,
            "options": {"compare_mapped": True}}, "target.config"),
    ("simulate", {"system": [1.0, 0.1]}, "system"),
    ("simulate", {"system": {"gamma21": 1.0, "gamma31": 0.1}},
     "system.config"),
    ("simulate", {"system": {"config": "fig3a", "gamma21": 1.0}},
     "system.config"),
    ("simulate", {"system": {"config": "fig2a", "gamma31": 0.1}},
     "system.gamma21"),
    ("simulate", {"schema_version": 2}, "schema_version"),
    ("simulate", {"initial_state": 4}, "initial_state"),
    ("simulate", {"initial_state": [[1.0, 0, 0], [0, 0, 0]]},
     "initial_state"),
    ("simulate", {"target": None}, "target"),
    ("g2", {"options": None}, "options"),
    ("equiv-check", {"tolerances": None}, "tolerances"),
    ("g2", {"options": []}, "options"),
    ("equiv-check", {"tolerances": False}, "tolerances"),
], ids=["text-flag", "text-normalized", "fractional-n-traj", "bool-n-traj",
        "zero-n-traj", "text-threshold", "inf-threshold", "text-weight",
        "inf-weight", "bool-seed", "bool-level", "text-matrix-entry",
        "object-matrix-entry", "text-imaginary-part", "short-matrix-pair",
        "nested-matrix-pair", "bool-matrix-entry", "bool-tolerance",
        "list-tolerances", "non-twin-target", "non-twin-compare-target",
        "list-system", "missing-config", "unknown-config", "missing-gamma21",
        "schema-version-2", "level-4", "two-row-matrix", "null-target",
        "null-options", "null-tolerances", "list-options",
        "false-tolerances"])
def test_wrongly_typed_entries_are_named(tmp_path, capsys, verb, entry,
                                         field):
    payload = minimal_fig2a(task=verb, **read_grid(verb, [0.0, 1.0, 3],
                                                   [-1.0, 1.0, 5]), **entry)
    code = main([verb, "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["simulate", "trajectories"])
def test_tol_flag_only_on_verbs_that_read_it(tmp_path, verb):
    cfg = write_scenario(tmp_path, minimal_fig2a(task=verb))
    with pytest.raises(SystemExit) as exc:
        main([verb, "--config", str(cfg), "--tol", "1e-3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["g2", "waiting-time", "spectrum"])
def test_tol_flag_needs_compare_mapped(tmp_path, capsys, verb):
    payload = minimal_fig2a(task=verb, **read_grid(verb, [0.0, 1.0, 3],
                                                   [-1.0, 1.0, 5]))
    code = main([verb, "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out"), "--tol", "0.5"])
    assert code == 2
    assert ("error: --tol: not read without compare_mapped"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


# the system of the README's example scenario
_README_FIG2A = {"config": "fig2a", "gamma21": 1.0, "gamma31": 0.1,
                 "omega_a": 2.0, "omega_b": 0.6, "delta2": 0.4,
                 "delta3": -0.7}


def test_tol_flag_is_applied_to_the_equivalence_check(tmp_path, capsys):
    # no roundoff distance is below 1e-30, so the check must fail by it
    payload = minimal_fig2a(task="equiv-check", system=_README_FIG2A,
                            time_grid=[0.0, 5.0, 26])
    code = main(["equiv-check", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out"), "--tol", "1e-30"])
    assert code == 1
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("equivalence_max_frobenius_distance: ")
    assert first.endswith(" (tol 1.0e-30) FAIL")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scenario"]["tolerances"]["equivalence"] == 1e-30
    assert report["checks"][0]["tol"] == 1e-30


def test_tol_flag_is_applied_to_a_compared_curve(tmp_path):
    payload = minimal_fig2a(task="g2", system=_README_FIG2A,
                            time_grid=[0.0, 5.0, 26],
                            options={"compare_mapped": True})
    code = main(["g2", "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out"), "--tol", "1e-3"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"][0]["tol"] == 0.001
    assert report["scenario"]["tolerances"]["photon_statistics"] == 0.001


TARGET = {"config": "fig2b", "gamma21": 0.55, "gamma31": 0.55,
          "omega_a": 1.4, "omega_b": 1.4, "delta2": -0.6, "delta3": 0.6,
          "phi": 1.0}


@pytest.mark.parametrize("verb, entry, field", [
    ("simulate", {"options": {"n_traj": 5}}, "options.n_traj"),
    ("simulate", {"options": {"compare_mapped": True}},
     "options.compare_mapped"),
    ("simulate", {"target": TARGET}, "target"),
    ("equiv-check", {"options": {"compare_mapped": True}},
     "options.compare_mapped"),
    ("waiting-time", {"options": {"normalized": True}}, "options.normalized"),
    ("g2", {"target": TARGET}, "target"),
    ("spectrum", {"options": {"compare_mapped": True,
                              "detect_weights": [0.6, 0.8]}},
     "options.detect_weights"),
    ("trajectories", {"options": {"compare_mapped": True}},
     "options.compare_mapped"),
    ("simulate", {"seed": 99}, "seed"),
    ("equiv-check", {"seed": 0}, "seed"),
    ("simulate", {"tolerances": {"trace": 1e-3}}, "tolerances.trace"),
    ("simulate", {"tolerances": {"spectrum_rel": 0.5}},
     "tolerances.spectrum_rel"),
    ("g2", {"tolerances": {"equivalence": 1e-9}}, "tolerances.equivalence"),
    ("spectrum", {"tolerances": {"photon_statistics": 1e-9}},
     "tolerances.photon_statistics"),
    ("trajectories", {"tolerances": {"trace": 1e-9}}, "tolerances.trace"),
    ("g2", {"tolerances": {"photon_statistics": 0.5}},
     "tolerances.photon_statistics"),
    ("waiting-time", {"tolerances": {"photon_statistics": 0.5}},
     "tolerances.photon_statistics"),
    ("spectrum", {"tolerances": {"spectrum_rel": 0.5}},
     "tolerances.spectrum_rel"),
    ("simulate", {"system": {"config": "fig2a", "gamma21": 1.0,
                             "gamma31": 0.1, "omega_a": 2.0, "phi": 0.7}},
     "system.phi"),
    ("simulate", {"system": {"config": "fig1a", "gamma21": 1.0,
                             "gamma23": 0.3, "omega_a": 1.2, "phi": 0.0}},
     "system.phi"),
    ("g2", {"options": {"compare_mapped": True},
            "target": {"config": "fig2a", "gamma21": 1.0, "gamma31": 0.1,
                       "omega_a": 2.0, "phi": None}}, "target.phi"),
    ("g2", {"initial_state": 3}, "initial_state"),
    ("waiting-time", {"initial_state": 1}, "initial_state"),
    ("spectrum", {"initial_state": 2}, "initial_state"),
    ("spectrum", {"time_grid": [0.0, 1.0, 3]}, "time_grid"),
    ("simulate", {"omega_grid": [-1.0, 1.0, 5]}, "omega_grid"),
    ("g2", {"omega_grid": [-1.0, 1.0, 5]}, "omega_grid"),
    ("trajectories", {"omega_grid": [-1.0, 1.0, 5]}, "omega_grid"),
], ids=["n-traj-on-simulate", "compare-on-simulate", "target-on-simulate",
        "compare-on-equiv-check", "normalized-on-waiting-time",
        "target-without-compare", "weights-with-compare",
        "compare-on-trajectories", "seed-on-simulate", "seed-on-equiv-check",
        "trace-on-simulate", "spectrum-rel-on-simulate", "equivalence-on-g2",
        "photon-statistics-on-spectrum", "trace-on-trajectories",
        "photon-statistics-on-g2-without-compare",
        "photon-statistics-on-waiting-time-without-compare",
        "spectrum-rel-without-compare", "phi-on-fig2a", "phi-on-fig1a",
        "null-phi-on-fig2a-target", "initial-state-on-g2",
        "initial-state-on-waiting-time", "initial-state-on-spectrum",
        "time-grid-on-spectrum", "omega-grid-on-simulate",
        "omega-grid-on-g2", "omega-grid-on-trajectories"])
def test_entries_the_task_never_reads_are_rejected(tmp_path, capsys, verb,
                                                   entry, field):
    payload = minimal_fig2a(task=verb, **read_grid(verb, [0.0, 1.0, 3],
                                                   [-1.0, 1.0, 5]), **entry)
    code = main([verb, "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error: {field}: not read " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", cli.TASKS)
def test_report_echoes_only_what_the_task_reads(tmp_path, verb):
    payload = minimal_fig2a(task=verb, **read_grid(verb, [0.0, 2.0, 5],
                                                   [-1.0, 1.0, 5]))
    if verb == "trajectories":
        payload["options"] = {"n_traj": 5}
    assert main([verb, "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")]) == 0
    echo = json.loads((tmp_path / "out" / "report.json").read_text())[
        "scenario"]
    # without compare_mapped only equiv-check compares, so only it reads
    # its tolerances
    expected = list(cli._TASKS[verb].tols) if verb == "equiv-check" else []
    assert list(echo["tolerances"]) == expected
    assert ("seed" in echo) == (verb == "trajectories")
    # the grid it reads, and the initial state only where a run starts from
    # it: simulate, equiv-check and trajectories
    assert [key for key in echo if key.endswith("_grid")] == list(
        read_grid(verb, None, None))
    assert ("initial_state" in echo) == (
        verb in ("simulate", "equiv-check", "trajectories"))


def test_combined_gamma_spelling_is_an_unknown_field(tmp_path, capsys):
    payload = {"schema_version": 1, "task": "simulate",
               "system": {"config": "fig1a", "gamma21": 1.0, "gamma23": 0.3,
                          "gamma23_or_31": 0.5, "omega_a": 1.0}}
    code = main(["simulate", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert ("error: system.gamma23_or_31: unknown field"
            in capsys.readouterr().err)


@pytest.mark.parametrize("verb", ["simulate", "equiv-check", "spectrum",
                                  "g2", "waiting-time"])
def test_seed_flag_only_on_trajectories(tmp_path, verb):
    cfg = write_scenario(tmp_path, minimal_fig2a(task=verb))
    with pytest.raises(SystemExit) as exc:
        main([verb, "--config", str(cfg), "--seed", "99"])
    assert exc.value.code == 2


def test_seed_flag_is_checked_like_the_scenario_seed(tmp_path, capsys):
    payload = minimal_fig2a(task="trajectories", time_grid=[0.0, 1.0, 2],
                            options={"n_traj": 5})
    cfg = str(write_scenario(tmp_path, payload))
    assert main(["trajectories", "--config", cfg, "--seed", "-1",
                 "--out", str(tmp_path / "bad")]) == 2
    assert ("error: seed: must be a non-negative integer, got -1"
            in capsys.readouterr().err)
    assert not (tmp_path / "bad").exists()
    assert main(["trajectories", "--config", cfg, "--seed", "99",
                 "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scenario"]["seed"] == 99


@pytest.mark.parametrize("verb", ["g2", "waiting-time", "spectrum"])
def test_compare_mapped_honours_target(tmp_path, verb):
    # the fig2b target of test_equiv_check_detects_wrong_target is no twin
    payload = minimal_fig2a(task=verb, **read_grid(verb, [0.0, 5.0, 26],
                                                   [-4.0, 4.0, 41]),
                            options={"compare_mapped": True})
    payload["target"] = {"config": "fig2b", "gamma21": 0.55, "gamma31": 0.55,
                         "omega_a": 1.4, "omega_b": 1.4, "delta2": -0.6,
                         "delta3": 0.6, "phi": 1.0}
    code = main([verb, "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 1


@pytest.mark.parametrize("entry, field", [
    ({"initial_state": [[1.0, 0, 0], [0, 0, 0], [0, 0, 0]]}, "initial_state"),
    ({"time_grid": [0.0, 0.0, 1]}, "time_grid"),
], ids=["matrix-state", "zero-horizon"])
def test_trajectories_input_is_rejected_at_parse_time(tmp_path, capsys,
                                                      entry, field):
    payload = minimal_fig2a(task="trajectories", options={"n_traj": 5},
                            **entry)
    code = main(["trajectories", "--config",
                 str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_spectrum_detect_weights(tmp_path):
    payload = minimal_fig2a(task="spectrum", omega_grid=[-5.0, 5.0, 41],
                            options={"detect_weights": [0.6, 0.8]})
    cfg = write_scenario(tmp_path, payload)
    assert main(["spectrum", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    path = tmp_path / "out" / "spectrum.dat"
    assert "coherent_weight = " in path.read_text().splitlines()[0]
    data = np.loadtxt(path, ndmin=2)
    assert data.shape == (41, 2)
    model = build_model(parse_scenario(cfg).system)
    a0, a1 = model.collapse_ops[:2]
    expected = emission_spectrum(model, 0.6 * a0 + 0.8 * a1, data[:, 0])
    np.testing.assert_allclose(data[:, 1], expected.values, rtol=1e-11,
                               atol=1e-14)


def test_g2_normalized(tmp_path):
    payload = minimal_fig2a(task="g2", time_grid=[0.0, 30.0, 61],
                            options={"normalized": True})
    assert main(["g2", "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")]) == 0
    path = tmp_path / "out" / "g2.dat"
    assert path.read_text().splitlines()[1].endswith("value [1]")
    data = np.loadtxt(path, ndmin=2)
    assert data[-1, 1] == pytest.approx(1.0, abs=1e-9)


DATA_FILES = {"simulate": "populations.dat", "equiv-check": "equivalence.dat",
              "spectrum": "spectrum.dat", "g2": "g2.dat",
              "waiting-time": "waiting_time.dat", "trajectories": "jumps.dat"}


@pytest.mark.parametrize("verb", cli.TASKS)
def test_each_verb_writes_one_data_file(tmp_path, verb):
    payload = minimal_fig2a(task=verb, **read_grid(verb, [0.0, 5.0, 11],
                                                   [-2.0, 2.0, 11]),
                            options={})
    if verb == "trajectories":
        payload["options"]["n_traj"] = 5
    out = tmp_path / "out"
    assert main([verb, "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [DATA_FILES[verb], "report.json"])
    report = json.loads((out / "report.json").read_text())
    assert report["outputs"] == [DATA_FILES[verb]]


def run_module(*args):
    """``python -m trilevel.cli *args`` in a fresh process."""
    src = str(Path(trilevel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "trilevel.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point_runs(tmp_path):
    # ``python -m trilevel.cli`` runs ``main`` and exits with its status
    cfg = write_scenario(tmp_path, minimal_fig2a(system=_README_FIG2A))
    done = run_module("describe-map", "--config", str(cfg))
    assert done.returncode == 0, done.stderr
    assert "target configuration : fig2b" in done.stdout.splitlines()
    # an integer beyond a double's range is rejected input, not a crash
    payload = minimal_fig2a(system=_README_FIG2A | {"gamma21": 10**400})
    cfg = write_scenario(tmp_path, payload, "huge.json")
    done = run_module("simulate", "--config", str(cfg),
                      "--out", str(tmp_path / "out"))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: system.gamma21: must be finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry, field", [
    ({"system": _README_FIG2A | {"gamma21": 10**400}}, "system.gamma21"),
    ({"time_grid": [0.0, 10**400, 3]}, "time_grid"),
    ({"initial_state": [[1, 0, 0], [0, 0, 0], [0, 0, 10**400]]},
     "initial_state"),
], ids=["rate", "grid-stop", "matrix-entry"])
def test_integers_beyond_a_double_are_named(tmp_path, capsys, entry, field):
    # math.isfinite raises OverflowError on these; they are bad input
    payload = minimal_fig2a(**entry)
    code = main(["simulate", "--config", str(write_scenario(tmp_path, payload)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "out").exists()


# ------------------------------------------------- in-process calls of main

@pytest.mark.parametrize("rows", [0, 1, 7, cli._TABLE_BLOCK + 1])
@pytest.mark.parametrize("block", [3, cli._TABLE_BLOCK])
def test_data_files_are_what_savetxt_writes(tmp_path, monkeypatch, rows,
                                            block):
    monkeypatch.setattr(cli, "_TABLE_BLOCK", block)
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e-300,
                5e-324, 1.0 / 3.0, -2.5e-7]
    rng = np.random.default_rng(rows + block)
    for n_cols in (1, 3):
        columns = [rng.choice(specials, rows) * rng.choice([1.0, 7.3], rows)
                   for _ in range(n_cols)]
        header = ["trilevel test (fig2a), coherent_weight = 1e+00",
                  "time [1/Gamma_ref], value [1]"]
        ours, ref = tmp_path / f"ours{n_cols}.dat", tmp_path / f"ref{n_cols}.dat"
        cli._write_table(ours, header, columns)
        np.savetxt(ref, np.column_stack(columns), fmt="%.12e",
                   header="\n".join(header))
        assert ours.read_bytes() == ref.read_bytes(), (rows, block, n_cols)


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    try:
        cfg = str(write_scenario(tmp_path, minimal_fig2a(
            time_grid=[0.0, 1.0, 3])))
        for k in range(3):
            assert main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / f"out{k}")]) == 0
        assert main(["describe-map", "--config", cfg]) == 0
    finally:
        cli._build_parser.cache_clear()
    assert built.count("trilevel") == 1


def test_seed_flag_does_not_outlive_its_call(tmp_path):
    payload = minimal_fig2a(task="trajectories", time_grid=[0.0, 10.0, 2],
                            seed=11, options={"n_traj": 20})
    cfg = str(write_scenario(tmp_path, payload))
    assert main(["trajectories", "--config", cfg, "--seed", "5",
                 "--out", str(tmp_path / "five")]) == 0
    assert main(["trajectories", "--config", cfg,
                 "--out", str(tmp_path / "again")]) == 0
    done = run_module("trajectories", "--config", cfg,
                      "--out", str(tmp_path / "fresh"))
    assert done.returncode == 0, done.stderr
    jumps = {name: (tmp_path / name / "jumps.dat").read_bytes()
             for name in ("five", "again", "fresh")}
    assert jumps["again"] == jumps["fresh"] != jumps["five"]
    assert json.loads((tmp_path / "again" / "report.json").read_text())[
        "scenario"]["seed"] == 11


def test_tol_flag_does_not_outlive_its_call(tmp_path, capsys):
    payload = minimal_fig2a(task="equiv-check", system=_README_FIG2A,
                            time_grid=[0.0, 5.0, 26],
                            tolerances={"equivalence": 1e-6})
    cfg = str(write_scenario(tmp_path, payload))
    assert main(["equiv-check", "--config", cfg, "--tol", "1e-30",
                 "--out", str(tmp_path / "tight")]) == 1
    capsys.readouterr()
    assert main(["equiv-check", "--config", cfg,
                 "--out", str(tmp_path / "again")]) == 0
    again = capsys.readouterr().out
    fresh = cli.run(parse_scenario(cfg), tmp_path / "fresh")
    assert again.splitlines()[0].endswith(" (tol 1.0e-06) pass")
    report = json.loads((tmp_path / "again" / "report.json").read_text())
    assert report["checks"] == fresh["checks"]
    assert report["scenario"] == json.loads(json.dumps(fresh["scenario"]))
    assert ((tmp_path / "again" / "equivalence.dat").read_bytes()
            == (tmp_path / "fresh" / "equivalence.dat").read_bytes())


def test_bad_log_level_is_rejected_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRILEVEL_LOG_LEVEL", "LOUD")
    cfg = str(write_scenario(tmp_path, minimal_fig2a(task="equiv-check")))
    assert main(["equiv-check", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: TRILEVEL_LOG_LEVEL: Unknown level: 'LOUD'")
    assert not (tmp_path / "out").exists()


def test_every_call_reads_the_log_level(tmp_path, caplog, monkeypatch):
    cfg = str(write_scenario(tmp_path, minimal_fig2a(
        task="equiv-check", time_grid=[0.0, 1.0, 3])))
    level = cli.log.level
    try:
        for k, name in enumerate(["WARNING", "info", "WARNING"]):
            monkeypatch.setenv("TRILEVEL_LOG_LEVEL", name)
            caplog.clear()
            assert main(["equiv-check", "--config", cfg,
                         "--out", str(tmp_path / f"out{k}")]) == 0
            infos = [r.getMessage() for r in caplog.records
                     if r.name == "trilevel" and r.levelno == logging.INFO]
            assert ("check trace_error: pass" in infos) == (name == "info")
    finally:
        cli.log.setLevel(level)


def test_zero_minimum_eigenvalue_reports_plus_zero(tmp_path, capsys):
    # the fig2a scenario's states have a minimum eigenvalue of exactly 0.0,
    # which the negative_eigenvalue check reports as +0.0, not -0.0
    cfg = write_scenario(tmp_path, minimal_fig2a(
        task="equiv-check", time_grid=[0.0, 5.0, 11]))
    assert main(["equiv-check", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    value = {c["name"]: c["value"] for c in report["checks"]}[
        "negative_eigenvalue"]
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert "negative_eigenvalue: 0.000000e+00 (tol" in capsys.readouterr().out


def test_log_records_go_to_the_stderr_of_their_call(tmp_path):
    # in a fresh process, so that no handler of pytest's is installed:
    # two calls under two redirected stderr buffers, each with only its own
    # call's records, each written once
    equiv = write_scenario(tmp_path, minimal_fig2a(
        task="equiv-check", time_grid=[0.0, 1.0, 3]), "equiv.json")
    spectrum = write_scenario(tmp_path, minimal_fig2a(
        task="spectrum", omega_grid=[-2.0, 2.0, 5],
        options={"compare_mapped": True}), "spectrum.json")
    calls = [["equiv-check", "--config", str(equiv),
              "--out", str(tmp_path / "a")],
             ["spectrum", "--config", str(spectrum),
              "--out", str(tmp_path / "b")]]
    script = (
        "import contextlib, io, json, sys\n"
        "from trilevel.cli import main\n"
        "buffers = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buffers.append(io.StringIO())\n"
        "    with contextlib.redirect_stderr(buffers[-1]):\n"
        "        assert main(argv) == 0\n"
        "print(json.dumps([b.getvalue() for b in buffers]))\n")
    src = str(Path(trilevel.__file__).resolve().parents[1])
    env = dict(os.environ, TRILEVEL_LOG_LEVEL="INFO",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    first, second = json.loads(done.stdout.splitlines()[-1])
    assert first.splitlines() == [
        "INFO trilevel: check equivalence_max_frobenius_distance: pass",
        "INFO trilevel: check trace_error: pass",
        "INFO trilevel: check negative_eigenvalue: pass"]
    assert second.splitlines() == [
        "INFO trilevel: check spectrum_mapped_pair_rel_diff: pass"]
