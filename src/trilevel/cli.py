"""Command-line front end.

Scenarios are JSON files with a versioned schema; each task verb is one
function in ``_TASKS`` whose data goes to one delimited text file with
'#'-prefixed headers, next to a machine-readable report.json.  Verbs:
simulate, equiv-check, spectrum, g2, waiting-time, trajectories,
describe-map.  Exit status is 0 iff every check in the scenario passed, 1
if a check failed, 2 if the scenario or its input was rejected and 3 on an
internal failure.  ``_OPTIONS`` lists the task options with their defaults
and the kinds of value they take (``_KINDS``); a scenario may set only the
entries its task reads (``_Task.reads``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .defaults import (DEFAULT_OMEGA_GRID, DEFAULT_TIME_GRID,
                       DEFAULT_TOLERANCES, DENSITY_SLACK, SPECTRUM_FLOOR,
                       TINY)
from .equivalence import EquivalenceMap, map_system, verify_equivalence
from .errors import ScenarioError
from .linalg import check_density_matrix, finite_number, ketbra
from .observables import (
    bright_dark_stats,
    emission_spectrum,
    g2 as g2_curve,
    mc_trajectories,
    populations,
    waiting_time,
)
from .systems import (_NEEDS_PHI, _TWIN, Config, LindbladModel,
                      SystemParams, build_model)

log = logging.getLogger("trilevel")

SCHEMA_VERSION = 1

_GAMMA_ALIAS = {"fig1": "gamma23", "fig2": "gamma31"}  # by Config.family()

_SYSTEM_KEYS = {"config", "gamma21", "gamma23", "gamma31", "omega_a",
                "omega_b", "delta2", "delta3", "phi"}

_SCENARIO_KEYS = {"schema_version", "task", "system", "target", "time_grid",
                  "omega_grid", "initial_state", "seed", "tolerances",
                  "options"}

# task option -> (default, kind of value, see _KINDS)
_OPTIONS = {
    "compare_mapped": (False, "flag"),  # run the target or mapped twin too
    "normalized": (False, "flag"),      # g2 divided by its last value
    "detect_weights": ((1.0, 0.0), "pair"),  # plain spectrum: w0 A_0 + w1 A_1
    "n_traj": (1000, "count"),
    "dark_threshold": (10.0, "positive"),  # longer gaps are dark periods
}

_TABLE_BLOCK = 4096  # data-file rows formatted by one % in _write_table


@dataclass(frozen=True)
class Scenario:
    """A fully validated run description with all defaults applied.

    ``initial_state`` is either a 1-based level index or an explicit 3x3
    density matrix as nested lists (each entry a number or an [re, im]
    pair).  ``option(key)`` reads ``options``, falling back on ``_OPTIONS``.
    """

    task: str
    system: SystemParams
    target: SystemParams | None = None
    time_grid: tuple[float, float, int] = DEFAULT_TIME_GRID
    omega_grid: tuple[float, float, int] = DEFAULT_OMEGA_GRID
    initial_state: int | tuple = 1
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def option(self, key: str):
        return self.options.get(key, _OPTIONS[key][0])


def _system_from_dict(raw: dict, where: str) -> SystemParams:
    if not isinstance(raw, dict):
        raise ScenarioError(where, "must be an object")
    unknown = set(raw) - _SYSTEM_KEYS
    if unknown:
        raise ScenarioError(f"{where}.{sorted(unknown)[0]}", "unknown field")
    if "config" not in raw:
        raise ScenarioError(f"{where}.config", "missing")
    try:
        config = Config(raw["config"])
    except ValueError:
        raise ScenarioError(f"{where}.config",
                            f"unknown configuration {raw['config']!r}") from None
    alias = _GAMMA_ALIAS[config.family()]
    wrong = "gamma31" if alias == "gamma23" else "gamma23"
    if wrong in raw:
        raise ScenarioError(f"{where}.{wrong}",
                            f"config {config.value} expects '{alias}'")
    if "phi" in raw and config not in _NEEDS_PHI:
        raise ScenarioError(f"{where}.phi",
                            f"not read by config {config.value}")
    for key in (alias, "gamma21"):
        if key not in raw:
            raise ScenarioError(f"{where}.{key}", "missing")
    # what is left are drives, detunings and phi, all with defaults
    rest = {key: raw[key] for key in raw.keys() - {"config", "gamma21", alias}}
    try:
        return SystemParams(config, raw["gamma21"], raw[alias],
                            **({"omega_a": 0.0} | rest))
    except ScenarioError as err:
        raise ScenarioError(f"{where}.{err.field}", err.message) from None


# value kind -> (what a value must be, its test, its stored form); JSON
# true is no integer here
_KINDS = {
    "flag": ("true or false", lambda v: type(v) is bool, bool),
    "count": ("an integer >= 1", lambda v: type(v) is int and v >= 1, int),
    "seed": ("a non-negative integer",
             lambda v: type(v) is int and v >= 0, int),
    "positive": ("a finite number > 0", lambda v: finite_number(v) and v > 0,
                 float),
    "pair": ("a pair of finite numbers",
             lambda v: (isinstance(v, list) and len(v) == 2
                        and all(map(finite_number, v))),
             lambda v: tuple(map(float, v))),
    "grid": ("[start, stop, count] with finite start <= stop and an integer "
             "count >= 1 (1 only if start == stop)",
             lambda v: (isinstance(v, list) and len(v) == 3
                        and all(map(finite_number, v[:2])) and v[0] <= v[1]
                        and type(v[2]) is int and v[2] >= 1
                        and (v[2] > 1 or v[0] == v[1])),
             lambda v: (float(v[0]), float(v[1]), v[2])),
}


def _typed(where: str, value, kind: str):
    """``value`` checked against a kind of ``_KINDS``, in its stored form."""
    what, test, form = _KINDS[kind]
    if not test(value):
        raise ScenarioError(where, f"must be {what}, got {value!r}")
    return form(value)


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file, applying defaults."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scenario file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ScenarioError("<file>", f"not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ScenarioError("<file>", "top level must be an object")
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioError(sorted(unknown)[0], "unknown field")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError("schema_version",
                            f"unsupported version {version} (expected "
                            f"{SCHEMA_VERSION})")
    task = raw.get("task")
    if task not in TASKS:
        raise ScenarioError("task", f"must be one of {TASKS}, got {task!r}")
    system = _system_from_dict(raw.get("system"), "system")
    target = (_system_from_dict(raw["target"], "target") if "target" in raw
              else None)
    time_grid = (_typed("time_grid", raw["time_grid"], "grid")
                 if "time_grid" in raw else DEFAULT_TIME_GRID)
    initial = raw.get("initial_state", 1)
    if type(initial) is int:  # true is no level index
        if not (1 <= initial <= 3):
            raise ScenarioError("initial_state", "level index must be 1..3")
    elif isinstance(initial, list):
        try:
            check_density_matrix(_matrix_from_spec(initial))
        except ValueError as err:
            raise ScenarioError("initial_state", str(err)) from None
        initial = tuple(tuple(tuple(e) if isinstance(e, list) else e
                              for e in row) for row in initial)
    else:
        raise ScenarioError("initial_state",
                            "must be a level index 1..3 or a 3x3 matrix")
    if task == "trajectories" and not isinstance(initial, int):
        raise ScenarioError("initial_state", "trajectories start from a pure "
                                             "state; use a level index")
    if task == "trajectories" and time_grid[1] <= 0:
        raise ScenarioError("time_grid", f"trajectories need a last point "
                                         f"> 0, got {time_grid[1]}")
    seed = _typed("seed", raw.get("seed", 0), "seed")
    for key in ("tolerances", "options"):
        if not isinstance(raw.get(key, {}), dict):
            raise ScenarioError(key, "must be an object")
    tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in raw.get("tolerances", {}).items():
        if key not in DEFAULT_TOLERANCES:
            raise ScenarioError(f"tolerances.{key}", "unknown tolerance")
        tolerances[key] = _typed(f"tolerances.{key}", val, "positive")
    options = {}
    for key, val in raw.get("options", {}).items():
        if key not in _OPTIONS:
            raise ScenarioError(f"options.{key}", "unknown option")
        options[key] = _typed(f"options.{key}", val, _OPTIONS[key][1])
    _require_read(task, options, raw)
    twin = _TWIN.get(system.config)
    if target is not None and twin not in (None, target.config):
        raise ScenarioError("target.config",
                            f"must be {twin.value}, the twin of "
                            f"{system.config.value}, got "
                            f"{target.config.value!r}")
    return Scenario(
        task=task,
        system=system,
        target=target,
        time_grid=time_grid,
        omega_grid=(_typed("omega_grid", raw["omega_grid"], "grid")
                    if "omega_grid" in raw else DEFAULT_OMEGA_GRID),
        initial_state=initial,
        seed=seed,
        tolerances=tolerances,
        options=options,
    )


def _require_read(task: str, options: dict, raw: dict) -> None:
    """Reject the first entry set in ``raw`` that ``task`` does not read:
    first one it never reads, then one it reads only with compare_mapped
    set the other way (``target`` before the tolerances)."""
    spec = _TASKS[task]
    given = [f"{key}.{k}" for key in ("options", "tolerances")
             for k in raw.get(key, {})]
    given += [key for key in ("time_grid", "omega_grid", "initial_state",
                              "seed", "target") if key in raw]
    ever = spec.reads({}) | spec.reads({"compare_mapped": True})
    unread = [key for key in given if key not in ever]
    if unread:
        raise ScenarioError(unread[0], f"not read by {task}")
    unread = [key for key in given if key not in spec.reads(options)]
    if options.get("compare_mapped") and unread:
        raise ScenarioError(unread[0], "not read with compare_mapped")
    if unread:
        raise ScenarioError("target" if "target" in unread else unread[0],
                            f"not read by {task} without compare_mapped")


def _system_to_dict(p: SystemParams) -> dict:
    out = {
        "config": p.config.value,
        "gamma21": p.gamma21,
        _GAMMA_ALIAS[p.config.family()]: p.gamma23_or_31,
        "omega_a": p.omega_a,
        "omega_b": p.omega_b,
        "delta2": p.delta2,
        "delta3": p.delta3,
    }
    if p.phi is not None:
        out["phi"] = p.phi
    return out


def serialize_scenario(s: Scenario) -> dict:
    """Canonical JSON-ready form; parse(serialize(s)) == s.  Only the
    entries the task reads are echoed."""
    spec = _TASKS[s.task]
    reads = spec.reads(s.options)
    out = {
        "schema_version": SCHEMA_VERSION,
        "task": s.task,
        "system": _system_to_dict(s.system),
        **{key: getattr(s, key) for key in spec.inputs},
        "tolerances": {key: s.tolerances[key] for key in spec.tols
                       if f"tolerances.{key}" in reads},
        "options": dict(s.options),
    }
    if s.target is not None:
        out["target"] = _system_to_dict(s.target)
    return out


def describe_map(p: SystemParams) -> str:
    """Human-readable dressed-basis map for a fig1a/fig2a system."""
    target, emap = map_system(p)
    lines = [
        f"source configuration : {p.config.value}",
        f"mixing angle theta   : {emap.theta:.12g} rad",
        f"dressed eigenvalues  : lambda1 = {emap.lambda1:.12g}, "
        f"lambda2 = {emap.lambda2:.12g}  [Gamma_ref]",
        f"mapped rates         : gamma'_21 = {emap.gamma_p21:.12g}, "
        f"gamma'_{'23' if emap.family == 'fig1' else '31'} = "
        f"{emap.gamma_p23_or_31:.12g}, cross = {emap.gamma_cross:.12g}"
        "  [Gamma_ref]",
        f"dipole angle phi     : {emap.phi:.12g} rad",
        f"mapped Rabi drives   : ({emap.mapped_rabis[0]:.12g}, "
        f"{emap.mapped_rabis[1]:.12g})  [Gamma_ref]",
        f"target detunings     : delta2 = {target.delta2:.12g}, "
        f"delta3 = {target.delta3:.12g}  [Gamma_ref]",
        f"target configuration : {target.config.value}",
    ]
    return "\n".join(lines)


def _matrix_from_spec(rows) -> np.ndarray:
    """3x3 complex matrix from nested lists; entries are finite numbers or
    [re, im] pairs of them.  ``parse_scenario`` checks it as a state."""
    if not (isinstance(rows, (list, tuple)) and len(rows) == 3 and all(
            isinstance(row, (list, tuple)) and len(row) == 3 for row in rows)):
        raise ValueError("matrix must be 3 rows of 3 entries")
    out = np.zeros((3, 3), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            pair = entry if isinstance(entry, (list, tuple)) else (entry, 0.0)
            if not (len(pair) == 2 and all(map(finite_number, pair))):
                raise ValueError(f"entry ({i + 1}, {j + 1}) must be a finite "
                                 f"number or an [re, im] pair of them, got "
                                 f"{entry!r}")
            out[i, j] = complex(*pair)
    return out


def _initial_rho(s: Scenario) -> np.ndarray:
    if isinstance(s.initial_state, int):
        return ketbra(s.initial_state - 1, s.initial_state - 1)
    return _matrix_from_spec(s.initial_state)


# ------------------------------------------------------------------ tasks

class _Output(NamedTuple):
    """What a task hands to ``run``: one data file and its report entries."""

    fname: str
    header: list[str]
    columns: list[np.ndarray]
    checks: tuple[dict, ...] = ()
    emap: EquivalenceMap | None = None
    extras: dict | None = None


def _check(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": float(value), "tol": tol,
            "passed": bool(value < tol)}


def _twin(s: Scenario) -> tuple[LindbladModel, EquivalenceMap]:
    """The model to compare with (the target, else the mapped twin)."""
    mapped, emap = map_system(s.system)
    return build_model(s.target or mapped), emap


def _simulate(s: Scenario, model: LindbladModel) -> _Output:
    times = np.linspace(*s.time_grid)
    pops = populations(model, _initial_rho(s), times)
    return _Output(
        "populations.dat",
        [f"trilevel simulate ({s.system.config.value})",
         "time [1/Gamma_ref], pop_level1, pop_level2, pop_level3 [1]"],
        [times] + [p.values for p in pops])


def _equiv_check(s: Scenario, model: LindbladModel) -> _Output:
    model_b, emap = _twin(s)
    tol = s.tolerances["equivalence"]
    rep = verify_equivalence(model, model_b, emap.unitary, _initial_rho(s),
                             np.linspace(*s.time_grid), tol=tol)
    return _Output(
        "equivalence.dat",
        ["trilevel equiv-check (rotated-frame trajectory distance)",
         "time [1/Gamma_ref], frobenius_distance [1]"],
        [rep.times, rep.distances],
        (_check("equivalence_max_frobenius_distance", rep.max_dist, tol),
         _check("trace_error", rep.max_trace_error, s.tolerances["trace"]),
         # 0.0 - x, not -x: a minimum of 0.0 reports +0.0
         _check("negative_eigenvalue", 0.0 - rep.min_eigenvalue,
                DENSITY_SLACK)),
        emap)


def _photon_curve(s: Scenario, model: LindbladModel) -> _Output:
    """g2 or waiting time; with compare_mapped, also the twin's curve."""
    times = np.linspace(*s.time_grid)
    normalized = s.task == "g2" and s.option("normalized")
    curve = (functools.partial(g2_curve, normalized=normalized)
             if s.task == "g2" else waiting_time)
    unit = "[1]" if normalized else "[Gamma_ref]"
    values = curve(model, times).values
    head = [f"trilevel {s.task} ({s.system.config.value})",
            f"tau [1/Gamma_ref], value {unit}"]
    fname = s.task.replace("-", "_") + ".dat"
    if not s.option("compare_mapped"):
        return _Output(fname, head, [times, values])
    model_b, emap = _twin(s)
    # the twin's detection reset is the rotated ground state
    u = emap.unitary
    other = curve(model_b, times,
                  reset_state=u @ ketbra(0, 0) @ u.conj().T).values
    head[1] += f", mapped value {unit}"
    return _Output(
        fname, head, [times, values, other],
        (_check(f"{s.task}_mapped_pair_max_diff",
                np.max(np.abs(values - other)),
                s.tolerances["photon_statistics"]),),
        emap)


def _spectrum(s: Scenario, model: LindbladModel) -> _Output:
    omegas = np.linspace(*s.omega_grid)
    a0 = model.collapse_ops[0]
    if not s.option("compare_mapped"):
        w0, w1 = s.option("detect_weights")
        spec = emission_spectrum(model, w0 * a0 + w1 * model.collapse_ops[1],
                                 omegas)
        return _Output(
            "spectrum.dat",
            [f"trilevel spectrum ({s.system.config.value}), "
             f"coherent_weight = {spec.meta['coherent_weight']:.12e}",
             "omega [Gamma_ref], S [1/Gamma_ref]"],
            [omegas, spec.values])
    model_b, emap = _twin(s)
    # the (a) system is detected on its bare 2->1 dipole A0, the twin on
    # the rotated one, U A0 U^+
    u = emap.unitary
    spec_a = emission_spectrum(model, a0, omegas).values
    spec_b = emission_spectrum(model_b, u @ a0 @ u.conj().T, omegas).values
    peak_a, peak_b = (float(np.max(np.abs(v))) for v in (spec_a, spec_b))
    if max(peak_a, peak_b) < SPECTRUM_FLOOR:
        raise ValueError(
            f"spectrum_mapped_pair_rel_diff: max|S_a| = {peak_a:.6e} and "
            f"max|S_b| = {peak_b:.6e} are below SPECTRUM_FLOOR = "
            f"{SPECTRUM_FLOOR:.0e}, too weak to compare relatively")
    return _Output(
        "spectrum.dat",
        ["trilevel spectrum (mapped pair)",
         "omega [Gamma_ref], S_a [1/Gamma_ref], S_b [1/Gamma_ref]"],
        [omegas, spec_a, spec_b],
        (_check("spectrum_mapped_pair_rel_diff",
                float(np.max(np.abs(spec_a - spec_b))) / max(peak_a, TINY),
                s.tolerances["spectrum_rel"]),),
        emap)


def _trajectories(s: Scenario, model: LindbladModel) -> _Output:
    n_traj, threshold = s.option("n_traj"), s.option("dark_threshold")
    run = mc_trajectories(model, n_traj, s.time_grid[1], s.seed,
                          np.eye(3)[s.initial_state - 1])
    stats = bright_dark_stats(run, threshold)
    return _Output(
        "jumps.dat",
        [f"trilevel trajectories ({s.system.config.value}), "
         f"seed = {s.seed}, n_traj = {n_traj}",
         "trajectory [1], jump_time [1/Gamma_ref], channel [1]"],
        [run.trajectory.astype(float), run.times, run.channels.astype(float)],
        extras={"bright_dark": {"threshold": threshold}
                | dataclasses.asdict(stats)})


class _Task(NamedTuple):
    """A verb: its function, the scenario entries it always reads (in echo
    order), the tolerances it compares by (``--tol`` sets the first), its
    options and whether it always compares."""

    run: Callable[[Scenario, LindbladModel], _Output]
    inputs: tuple[str, ...] = ("time_grid", "initial_state")
    tols: tuple[str, ...] = ()
    options: tuple[str, ...] = ()
    target: bool = False

    def reads(self, options: dict) -> set[str]:
        """The entries this task reads under ``options``: its inputs and
        options; when it compares (always, or with compare_mapped set),
        also ``target`` and its tolerances, but not detect_weights."""
        compare = self.target or ("compare_mapped" in self.options
                                  and options.get("compare_mapped", False))
        return ({*self.inputs}
                | {f"options.{key}" for key in self.options
                   if not (compare and key == "detect_weights")}
                | ({"target", *(f"tolerances.{key}" for key in self.tols)}
                   if compare else set()))


_TASKS = {
    "simulate": _Task(_simulate),
    "equiv-check": _Task(_equiv_check, tols=("equivalence", "trace"),
                         target=True),
    "spectrum": _Task(_spectrum, ("omega_grid",), ("spectrum_rel",),
                      ("compare_mapped", "detect_weights")),
    "g2": _Task(_photon_curve, ("time_grid",), ("photon_statistics",),
                ("compare_mapped", "normalized")),
    "waiting-time": _Task(_photon_curve, ("time_grid",),
                          ("photon_statistics",), ("compare_mapped",)),
    "trajectories": _Task(_trajectories,
                          ("time_grid", "initial_state", "seed"),
                          options=("n_traj", "dark_threshold")),
}
TASKS = tuple(_TASKS)


def run(s: Scenario, out_dir: str | Path) -> dict:
    """Execute a scenario, then write its data file and report.json (a
    task that raises writes nothing); returns the report."""
    t0 = _time.perf_counter()
    out = _TASKS[s.task].run(s, build_model(s.system))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / out.fname, out.header, out.columns)
    emap = None if out.emap is None else (
        dataclasses.asdict(out.emap) | {"unitary": out.emap.unitary.tolist()})
    report = {
        "scenario": serialize_scenario(s),
        "task": s.task,
        "checks": list(out.checks),
        "outputs": [out.fname],
        "equivalence_map": emap,
        "extras": out.extras or {},
        "duration_seconds": _time.perf_counter() - t0,
        "version": __version__,
        "passed": all(check["passed"] for check in out.checks),
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n",
                                         encoding="utf-8")
    for check in out.checks:
        log.info("check %s: %s", check["name"],
                 "pass" if check["passed"] else "FAIL")
    return report


def _write_table(path: Path, header: list[str],
                 columns: list[np.ndarray]) -> None:
    """Write the columns as rows of '%.12e' under '# '-prefixed header lines:
    the bytes of ``np.savetxt(path, np.column_stack(columns), fmt="%.12e",
    header="\\n".join(header))``, with one % per block of rows."""
    table = np.column_stack(columns)
    row = " ".join(["%.12e"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="latin1") as fh:
        fh.write("".join(f"# {line}\n" for line in header))
        for start in range(0, len(table), _TABLE_BLOCK):
            block = table[start:start + _TABLE_BLOCK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trilevel",
        description="Three-level master equations, dressed-basis equivalence "
                    "maps, photon statistics and spectra.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in TASKS + ("describe-map",):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="scenario JSON file")
        spec = _TASKS.get(verb)
        if spec:
            p.add_argument("--out", default=".", help="output directory")
        if spec and "seed" in spec.inputs:
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")
        if spec and spec.tols:
            p.add_argument("--tol", type=float, default=None,
                           help=f"override the '{spec.tols[0]}' tolerance")
    return parser


class _StderrHandler(logging.StreamHandler):
    """Writes each record to the sys.stderr current when it is emitted, so
    a caller that redirects stderr per call gets its own call's records."""

    def emit(self, record: logging.LogRecord) -> None:
        self.stream = sys.stderr
        super().emit(record)


def main(argv: list[str] | None = None) -> int:
    # basicConfig installs the handler on the first call only, so each
    # record is written once however often main runs
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s",
                        handlers=[_StderrHandler()])
    args = _build_parser().parse_args(argv)
    try:
        try:  # read on every call: basicConfig acts on the first one only
            log.setLevel(os.environ.get("TRILEVEL_LOG_LEVEL",
                                        "WARNING").upper())
        except ValueError as err:
            raise ScenarioError("TRILEVEL_LOG_LEVEL", str(err)) from None
        scenario = parse_scenario(args.config)
        if args.verb == "describe-map":
            print(describe_map(scenario.system))
            return 0
        if scenario.task != args.verb:
            raise ScenarioError(
                "task", f"scenario declares {scenario.task!r} but the "
                f"{args.verb!r} verb was invoked")
        if getattr(args, "seed", None) is not None:
            scenario = dataclasses.replace(
                scenario, seed=_typed("seed", args.seed, "seed"))
        if getattr(args, "tol", None) is not None:
            key = _TASKS[args.verb].tols[0]
            if f"tolerances.{key}" not in _TASKS[args.verb].reads(
                    scenario.options):
                raise ScenarioError("--tol", "not read without compare_mapped")
            tols = {key: _typed("--tol", args.tol, "positive")}
            scenario = dataclasses.replace(
                scenario, tolerances=scenario.tolerances | tols)
        report = run(scenario, args.out)
    except (ValueError, OSError) as err:  # rejected input
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # internal, e.g. PropagationError
        log.debug("internal failure", exc_info=True)
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{check['name']}: {check['value']:.6e} "
              f"(tol {check['tol']:.1e}) {status}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
