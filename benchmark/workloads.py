"""The three workloads: what a round holds and what one unit of it does.

A run repeats rounds (``inputs.class_rounds``, ``inputs.sample_rounds``);
a unit is one input of a round, timed from its set-up to the last output
it writes, less the calibration tasks run inside it (``speed.Speed``):

- ``standin-sweep``: one (theta, Q) cell of the stand-in network, swept
  over the full lambda series by ``run_scenario`` and written out by
  ``emit_results``.  Its operations are the sweep's solves.
- ``grid``: one synthetic grid, parsed, given its route set and solved
  once, then checked with ``wardrop_check``.  Its operation is the solve.
- ``verify``: one ``oracle_report`` of the stand-in.  No equilibrium is
  solved; its operations are the Monte-Carlo estimates.

Every call into a layer goes through the attribute of the module that
defines it (``cmte.scenario.run_scenario``), so ``hooks.Hooks`` sees it.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import cmte
import cmte.montecarlo
import cmte.network
import cmte.scenario
import cmte.solver
from checks import (ANTT_RTOL_GRID, ANTT_RTOL_STANDIN, WARDROP_REL_TOL, check_claims,
                    check_results_file, check_solve, check_trend, route_lists,
                    routes_digest)
from hooks import Hooks, durations
from inputs import (ALPHA, CELL_DEMANDS, CELL_THETAS, GRID_INDICES, GRID_K,
                    GRID_PER_ROUND, LAMBDAS, SMOKE_GRID_K, STANDIN_NET, VERIFY_SAMPLES,
                    VERIFY_SEED_STRIDE, VERIFY_SEEDS_PER_RUN, cell_key, class_rounds,
                    grid_text, sample_rounds, scenario_json)
from speed import Speed

REFS_PATH = Path(__file__).resolve().parent / "references.json"

SETUP_REPEATS = 25  # set-ups before the first unit and after each unit
SMOKE_LAMBDAS = (0.0, 0.5, 1.0)
SMOKE_SAMPLES = 10 ** 4


@dataclass
class Tally:
    """What the units of a run measured and found.

    Times are raw seconds; ``setup_cal`` holds, for each set-up, the
    calibration time measured right after it.
    """

    speed: Speed = field(default_factory=Speed)
    setup_s: list[float] = field(default_factory=list)
    setup_cal: list[float] = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[tuple[str, bool]] = field(default_factory=list)

    def unit_time(self, start: float, spent: float) -> float:
        """Wall time since ``start`` less calibration since ``spent`` was read."""
        return time.perf_counter() - start - (self.speed.spent - spent)

    def add(self, failures: list[tuple[str, bool]]) -> None:
        """Count one attempted operation, failed if it has any failure."""
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += failures


def load_references() -> dict:
    return json.loads(REFS_PATH.read_text())


class StandinSweep:
    name = "standin-sweep"
    setup_repeats = SETUP_REPEATS
    calibrated = True  # solve times scale with the calibration task (speed.py)

    def __init__(self, seed: int, smoke: bool, out_dir: Path, refs: dict):
        self.refs = refs["standin"]
        self.routes = self.refs["routes"]
        self.text = STANDIN_NET.read_text()
        self.lambdas = SMOKE_LAMBDAS if smoke else LAMBDAS
        self.dest = out_dir / "standin-sweep"
        classes = self.refs["classes"][:1] if smoke else self.refs["classes"]
        self.rounds = class_rounds(classes, seed, stream=1)
        self.net = self.rs = None

    def setup(self) -> float:
        t = time.perf_counter()
        self.net = cmte.network.load_network(self.text)
        self.rs = cmte.network.build_route_set(self.net)
        cmte.scenario.Scenario.from_json(scenario_json((0.8,), (4000.0,), self.lambdas))
        return time.perf_counter() - t

    def run_unit(self, key: str, hooks: Hooks, tally: Tally) -> None:
        theta, demand = (float(x) for x in key.split("/"))
        mark = len(hooks.spans)
        spent, t = tally.speed.spent, time.perf_counter()
        sc = cmte.scenario.Scenario.from_json(scenario_json((theta,), (demand,),
                                                            self.lambdas))
        sweep = cmte.scenario.run_scenario(self.net, sc)
        cmte.scenario.emit_results(sweep, self.dest)
        tally.unit_s.append(tally.unit_time(t, spent))
        spans = hooks.since(mark)
        tally.op_s += durations(spans, "scenario.extragradient_solve")

        built = [s.note for s in spans if s.name == "scenario.build_route_set" and s.note]
        rs = built[-1] if built else self.rs
        routes_ok = route_lists(rs) == self.routes
        point = self.net.with_uniform_theta(theta).with_scaled_demand(
            demand / self.net.total_demand())
        file_failures = check_results_file(f"cell {key}", self.dest / "results.tsv",
                                           sweep.rows)
        for row in sweep.rows:
            name = f"cell {key} lambda {row.lam:g}"
            li = LAMBDAS.index(row.lam)
            found, a = check_solve(
                name, point, rs, cmte.RiskProfile(ALPHA, row.lam), row.flows, row.psi,
                row.converged, self.refs["cells"][key]["antt"][li], ANTT_RTOL_STANDIN,
                routes_ok, row.wardrop_ok, reported_antt=row.antt)
            found += check_trend(name, a, *self._neighbours(theta, demand, li))
            tally.add(found + file_failures)
            file_failures = []
        shutil.rmtree(self.dest, ignore_errors=True)

    def _neighbours(self, theta, demand, li):
        """Reference ANTT of the lattice cells next to (theta, demand).

        ANTT rises with demand and falls as theta (capacity kept) rises.
        """
        ti, qi = CELL_THETAS.index(theta), CELL_DEMANDS.index(demand)

        def ref(t, q):
            if 0 <= t < len(CELL_THETAS) and 0 <= q < len(CELL_DEMANDS):
                return [self.refs["cells"][cell_key(CELL_THETAS[t], CELL_DEMANDS[q])]
                        ["antt"][li]]
            return []

        return ref(ti, qi - 1) + ref(ti + 1, qi), ref(ti, qi + 1) + ref(ti - 1, qi)


class Grid:
    name = "grid"
    setup_repeats = 0  # every unit sets up its own grid
    calibrated = True

    def __init__(self, seed: int, smoke: bool, out_dir: Path, refs: dict):
        self.refs = refs["grid"]
        self.k = SMOKE_GRID_K if smoke else GRID_K
        self.rounds = (sample_rounds([0], 1, seed, stream=2) if smoke
                       else sample_rounds(GRID_INDICES, GRID_PER_ROUND, seed, stream=2))

    def run_unit(self, index: int, hooks: Hooks, tally: Tally) -> None:
        ref = self.refs["grids"][f"{self.k}/{index}"]
        text, lam = grid_text(self.k, index)
        profile = cmte.RiskProfile(ALPHA, lam)
        spent, t0 = tally.speed.spent, time.perf_counter()
        net = cmte.network.load_network(text)
        rs = cmte.network.build_route_set(net)
        tally.setup_s.append(time.perf_counter() - t0)
        tally.setup_cal.append(tally.speed.sample())
        t1 = time.perf_counter()
        res = cmte.solver.extragradient_solve(net, rs, cmte.BprParams(), profile)
        tally.op_s.append(time.perf_counter() - t1)
        report = cmte.solver.wardrop_check(res, net, rs, rel_tol=WARDROP_REL_TOL)
        tally.unit_s.append(tally.unit_time(t0, spent))

        lists = route_lists(rs)
        routes_ok = (routes_digest(lists) == ref["routes_sha256"]
                     and [len(od) for od in lists] == ref["routes_per_od"])
        found, _ = check_solve(f"grid {self.k}/{index}", net, rs, profile, res.f_star,
                               res.cmtt_per_route, res.converged, ref["antt"],
                               ANTT_RTOL_GRID, routes_ok, report.passed,
                               known_gap=ref["default_wardrop_gap"])
        tally.add(found)


class Verify:
    name = "verify"
    setup_repeats = SETUP_REPEATS
    # Vectorised sampling over 1e6 draws does not follow the calibration
    # task's speed (scaling doubled its spreads; README.md), so only the
    # set-ups of this workload are scaled.
    calibrated = False

    def __init__(self, seed: int, smoke: bool, out_dir: Path, refs: dict):
        self.claims = refs["verify"]["claims"]
        self.text = STANDIN_NET.read_text()
        self.samples = SMOKE_SAMPLES if smoke else VERIFY_SAMPLES
        first = seed * VERIFY_SEEDS_PER_RUN
        self.rounds = ([(first + r) * VERIFY_SEED_STRIDE]
                       for r in range(VERIFY_SEEDS_PER_RUN))
        self.net = None

    def setup(self) -> float:
        t = time.perf_counter()
        self.net = cmte.network.load_network(self.text)
        return time.perf_counter() - t

    def run_unit(self, base_seed: int, hooks: Hooks, tally: Tally) -> None:
        mark = len(hooks.spans)
        spent, t = tally.speed.spent, time.perf_counter()
        rows, all_pass = cmte.montecarlo.oracle_report(
            self.net, cmte.BprParams(), cmte.McConfig(samples=self.samples, seed=base_seed))
        wall = tally.unit_time(t, spent)
        tally.unit_s.append(wall)
        estimates = durations(hooks.since(mark), "montecarlo.mc_link_moments",
                              "montecarlo.mc_tail_means")
        tally.op_s += estimates or [wall]
        found = check_claims(rows, all_pass, self.claims)
        tally.attempted += len(rows)
        tally.failed += min(len(found), len(rows))
        tally.failures += found


WORKLOADS = {w.name: w for w in (StandinSweep, Grid, Verify)}
