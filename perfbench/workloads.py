"""The four workloads.  An item is one operation on the program; a cycle is
the fixed list of items a run repeats whole.  `run` makes only program
calls (it is what gets timed); `check` compares the outputs with the
benchmark's own numerics from `independent` and raises `CheckFailed`.

Inputs are fixed lists, so every run does the same work.  `--seed` rotates
the order of each cycle and, in equiv_sweep, picks each item's initial
density matrix; it never changes which systems, grids or Monte Carlo seeds
are used, so the failed share and the cost per cycle do not depend on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import independent as ind

P1 = np.diag([1.0, 0.0, 0.0]).astype(complex)


class CheckFailed(Exception):
    """An output disagreed with the benchmark's own computation.

    ``known`` marks the failure as one of the program faults listed in
    README.md, which the benchmark keeps and counts on purpose.
    """

    def __init__(self, message: str, known: bool = False):
        super().__init__(message)
        self.known = known


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Item:
    key: str
    spec: dict = field(default_factory=dict)


class Workload:
    """Base: a fixed cycle, its first entry (before rotation) as warm-up."""

    def __init__(self, tl, seed: int, out_dir: Path):
        self.tl = tl
        self.seed = seed
        self.out_dir = out_dir
        items = self.make_items()
        self.warmup = items[0]
        k = seed % len(items)
        self.cycle = items[k:] + items[:k]

    def make_items(self) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> dict:
        raise NotImplementedError

    def known_fault(self, item: Item, err: Exception) -> bool:
        return isinstance(err, CheckFailed) and err.known


def _params(tl, config, g21, g2x, oa, ob, d2=0.0, d3=0.0):
    return tl.SystemParams(tl.Config(config), gamma21=g21, gamma23_or_31=g2x,
                           omega_a=oa, omega_b=ob, delta2=d2, delta3=d3)


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class EquivSweep(Workload):
    """Random (a)-systems from the acceptance box, mapped and certified."""

    INPUT_SEED = 20240805
    PER_FAMILY = 30
    TIMES = np.linspace(0.0, 20.0, 200)
    TAUS = np.linspace(0.0, 30.0, 301)
    TOL = 1e-8
    POPULATION_CHECK_EVERY = 8
    # quadrature overshoot of a valid waiting-time density (README, fault 2)
    WAIT_FAULT = ("fig2a", 0.13, 2.6, 3.66, 3.82, 2.06, 3.85)

    def make_items(self):
        rng = np.random.default_rng(self.INPUT_SEED)
        rows = []
        for config in ("fig1a", "fig2a"):
            for _ in range(self.PER_FAMILY):
                g21, g2x, oa, ob = rng.uniform(0.1, 5.0, 4)
                d2, d3 = rng.uniform(-5.0, 5.0, 2)
                rows.append((config, g21, g2x, oa, ob, d2, d3))
        rows.append(self.WAIT_FAULT)
        return [Item(f"{row[0]}-{k}", {"index": k, "params": row})
                for k, row in enumerate(rows)]

    def _rho0(self, item):
        rng = np.random.default_rng([self.seed, item.spec["index"]])
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = a @ a.conj().T
        return rho / np.trace(rho)

    def run(self, item):
        tl = self.tl
        p = _params(tl, *item.spec["params"])
        rho0 = self._rho0(item)
        target, emap = tl.map_system(p)
        model_a, model_b = tl.build_model(p), tl.build_model(target)
        u = emap.unitary
        report = tl.verify_equivalence(model_a, model_b, u, rho0, self.TIMES)
        reset_b = u @ P1 @ u.conj().T
        curves = [(f(model_a, self.TAUS), f(model_b, self.TAUS,
                                            reset_state=reset_b))
                  for f in (tl.g2, tl.waiting_time)]
        return model_a, model_b, u, rho0, report, curves

    def check(self, item, out):
        model_a, model_b, u, rho0, report, curves = out
        _require(report.passed and report.max_dist < self.TOL,
                 f"rotated-trajectory distance {report.max_dist:.3e}")
        for (a, b), what in zip(curves, ("g2", "waiting time")):
            d = _max_abs(a.values, b.values)
            _require(d < self.TOL, f"{what} pair differs by {d:.3e}")
        (g2a, g2b), _ = curves
        _require(abs(g2a.values[0]) < 1e-12 and abs(g2b.values[0]) < 1e-12,
                 f"g2(0) = {g2a.values[0]:.3e}, {g2b.values[0]:.3e}")
        # own propagation of both systems to the last time
        t_end = self.TIMES[-1]
        la = ind.liouvillian(*ind.model_parts(model_a))
        lb = ind.liouvillian(*ind.model_parts(model_b))
        rho_a = ind.evolve(la, rho0, t_end)
        rho_b = ind.evolve(lb, u @ rho0 @ u.conj().T, t_end)
        d = float(np.linalg.norm(u @ rho_a @ u.conj().T - rho_b))
        _require(d < self.TOL, f"own-expm rotated distance {d:.3e}")
        if item.spec["index"] % self.POPULATION_CHECK_EVERY == 0:
            pops = self.tl.populations(model_a, rho0, self.TIMES)
            got = np.column_stack([p.values for p in pops])
            d = _max_abs(got, ind.populations(la, rho0, self.TIMES))
            _require(d < 1e-9, f"populations differ from own expm by {d:.3e}")
        return {}

    def known_fault(self, item, err):
        return (isinstance(err, ValueError) and item.spec["params"][0] == "fig2a"
                and "waiting-time density integrates to" in str(err))


def _detectors(model_a, model_b, theta):
    det_b = (math.cos(theta) * model_b.collapse_ops[0]
             + math.sin(theta) * model_b.collapse_ops[1])
    return model_a.collapse_ops[0], det_b


class SpectrumScan(Workload):
    """Mapped fig(a)/fig(b) spectrum pairs along the shelving line."""

    OMEGAS = np.linspace(-6.0, 6.0, 401)
    SHELVING_G31 = np.logspace(-3.0, -1.0, 5)
    TOL = 1e-6

    def make_items(self):
        rows = [("fig2a", 1.0, float(g), 1.0, 0.08) for g in self.SHELVING_G31]
        rows += [("fig2a", 1.0, 0.1, 2.0, 0.6, 0.4, -0.7),
                 ("fig1a", 1.0, 0.3, 1.2, 0.7, 0.4, -0.6)]
        return [Item(f"{k}-{row[0]}-g{row[2]:.3g}", {"params": row})
                for k, row in enumerate(rows)]

    def run(self, item):
        tl = self.tl
        p = _params(tl, *item.spec["params"])
        target, emap = tl.map_system(p)
        model_a, model_b = tl.build_model(p), tl.build_model(target)
        det_a, det_b = _detectors(model_a, model_b, emap.theta)
        spec_a = tl.emission_spectrum(model_a, det_a, self.OMEGAS)
        spec_b = tl.emission_spectrum(model_b, det_b, self.OMEGAS)
        return model_a, det_a, spec_a, spec_b

    def check(self, item, out):
        model_a, det_a, spec_a, spec_b = out
        scale = float(np.max(np.abs(spec_a.values)))
        d = _max_abs(spec_a.values, spec_b.values) / scale
        _require(d < self.TOL, f"spectrum pair differs by {d:.3e} relative")
        own = ind.spectrum(ind.liouvillian(*ind.model_parts(model_a)), det_a,
                           self.OMEGAS)
        d = _max_abs(spec_a.values, own) / float(np.max(np.abs(own)))
        _require(d < self.TOL, f"spectrum differs from own resolvent by "
                               f"{d:.3e} relative")
        return {}


class TelegraphMc(Workload):
    """1000-trajectory ensembles of the shelving system and its twin."""

    N_TRAJ = 1000
    T_FINAL = 20.0
    SAMPLE = np.linspace(0.0, 20.0, 5)
    MC_SEEDS = (2025, 4050)
    Z_MAX = 4.0

    def make_items(self):
        p = _params(self.tl, "fig2a", 1.0, 0.005, 1.0, 0.08)
        target, _ = self.tl.map_system(p)
        self.models = {"fig2a": self.tl.build_model(p),
                       "fig2b": self.tl.build_model(target)}
        self.expected = {}
        return [Item(name, {"seed": s})
                for name, s in zip(self.models, self.MC_SEEDS)]

    def run(self, item):
        return self.tl.mc_trajectories(
            self.models[item.key], self.N_TRAJ, self.T_FINAL,
            item.spec["seed"], sample_times=self.SAMPLE)

    def _expected(self, key):
        if key not in self.expected:
            h, r, ops = ind.model_parts(self.models[key])
            l = ind.liouvillian(h, r, ops)
            self.expected[key] = (
                ind.populations(l, P1, self.SAMPLE),
                ind.expected_jumps(l, ind.feeding(r, ops), P1, self.T_FINAL))
        return self.expected[key]

    def check(self, item, out):
        pops, jumps = self._expected(item.key)
        _require(len(out.records) == self.N_TRAJ, "trajectory count")
        z = np.abs(out.populations - pops) / np.maximum(
            out.populations_stderr, 1e-12)
        _require(float(z.max()) < self.Z_MAX,
                 f"ensemble populations off by |z| = {z.max():.2f}")
        counts = np.array([r.times.size for r in out.records])
        zj = (counts.mean() - jumps) / (counts.std(ddof=1) / math.sqrt(counts.size))
        _require(abs(zj) < self.Z_MAX, f"jumps per trajectory {counts.mean():.3f}"
                                       f" vs {jumps:.3f} (z = {zj:.2f})")
        return {"jumps": int(counts.sum())}


class CliVerbs(Workload):
    """Every CLI verb on a small canonical scenario of each family."""

    SYSTEMS = {
        "fig1a": {"config": "fig1a", "gamma21": 1.0, "gamma23": 0.3,
                  "omega_a": 1.2, "omega_b": 0.7, "delta2": 0.4,
                  "delta3": -0.6},
        "fig2a": {"config": "fig2a", "gamma21": 1.0, "gamma31": 0.1,
                  "omega_a": 2.0, "omega_b": 0.6, "delta2": 0.4,
                  "delta3": -0.7},
    }
    TIME_GRID = [0.0, 20.0, 201]
    TAU_GRID = [0.0, 30.0, 301]
    N_TRAJ = 50
    # verb -> (extra scenario entries, data file, columns, rows)
    VERBS = {
        "simulate": ({"time_grid": TIME_GRID}, "populations.dat", 4, 201),
        "equiv-check": ({"time_grid": TIME_GRID}, "equivalence.dat", 2, 201),
        "spectrum": ({"omega_grid": [-6.0, 6.0, 201],
                      "options": {"compare_mapped": True}},
                     "spectrum.dat", 3, 201),
        "g2": ({"time_grid": TAU_GRID, "options": {"compare_mapped": True}},
               "g2.dat", 3, 301),
        "waiting-time": ({"time_grid": TAU_GRID,
                          "options": {"compare_mapped": True}},
                         "waiting_time.dat", 3, 301),
        "trajectories": ({"time_grid": TIME_GRID, "seed": 11,
                          "options": {"n_traj": N_TRAJ}}, "jumps.dat", 3, None),
        "describe-map": ({}, None, None, None),
    }

    def make_items(self):
        import trilevel.cli
        self.main = trilevel.cli.main
        items = []
        for verb, (extra, *_rest) in self.VERBS.items():
            for family, system in self.SYSTEMS.items():
                scenario = {"schema_version": 1,
                            "task": "simulate" if verb == "describe-map" else verb,
                            "system": system, **extra}
                name = f"{verb}-{family}"
                path = self.out_dir / "scenarios" / f"{name}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(scenario, indent=1))
                argv = [verb, "--config", str(path)]
                if verb != "describe-map":
                    argv += ["--out", str(self.out_dir / "out" / name)]
                items.append(Item(name, {"verb": verb, "family": family,
                                         "argv": argv}))
        return items

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(item.spec["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, item, out):
        code, stdout, stderr = out
        verb, family = item.spec["verb"], item.spec["family"]
        _, data_file, n_cols, n_rows = self.VERBS[verb]
        if verb == "describe-map":
            _require(code == 0, f"exit status {code}: {stderr.strip()}")
            twin = {"fig1a": "fig1b", "fig2a": "fig2b"}[family]
            _require(f"target configuration : {twin}" in stdout,
                     "describe-map output lacks the target configuration")
            return {}
        out_dir = Path(item.spec["argv"][-1])
        _require(code in (0, 1), f"exit status {code}: {stderr.strip()}")
        try:
            report = json.loads((out_dir / "report.json").read_text())
            data = np.loadtxt(out_dir / data_file, ndmin=2)
        except OSError as exc:
            raise CheckFailed(f"missing output: {exc}") from None
        finally:  # the next call must write both files anew
            for name in ("report.json", data_file):
                (out_dir / name).unlink(missing_ok=True)
        _require(data.shape[1] == n_cols, f"{data_file} has {data.shape[1]} "
                                          f"columns, expected {n_cols}")
        info = {}
        if n_rows is None:
            _require(data.shape[0] >= 1 and np.all(data[:, 0] >= 0)
                     and np.all(data[:, 0] < self.N_TRAJ),
                     f"{data_file} has no valid jump rows")
            info["jumps"] = int(data.shape[0])
        else:
            _require(data.shape[0] == n_rows, f"{data_file} has {data.shape[0]}"
                                              f" rows, expected {n_rows}")
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        if code != 0 or not report["passed"] or failed:
            # the twin of compare_mapped starts from the bare ground state
            # (README, fault 1): only fig1 has U|1> != |1>
            known = (code == 1 and family == "fig1a"
                     and verb in ("g2", "waiting-time")
                     and failed == [f"{verb}_mapped_pair_max_diff"])
            raise CheckFailed(f"exit status {code}, failed checks {failed}",
                              known=known)
        return info


WORKLOADS = {
    "equiv_sweep": EquivSweep,
    "spectrum_scan": SpectrumScan,
    "telegraph_mc": TelegraphMc,
    "cli_verbs": CliVerbs,
}
