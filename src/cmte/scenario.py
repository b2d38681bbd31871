"""Scenario sweeps over optimism weight, demand level and degradation level.

A :class:`Scenario` fixes the confidence level and the three sweep grids
(lambda, total demand Q, uniform degradation Theta).  ``run_scenario``
solves the equilibrium at every grid point and collects one
:class:`SweepRow` per point; ``emit_results`` writes the result table,
per-solve convergence logs and plot-ready ANTT-vs-lambda series.

Within one (Theta, Q) cell the lambda series is solved as a
continuation: each solve starts from the route flows of the last
converged solve before it in the series, since the equilibrium moves
little between neighbouring lambda values, and ``extragradient_solve``
tries a face-Newton step from there at once.  The first solve of each
cell starts cold, from the equal split, and tries its first Newton step
after a few extra-gradient steps (see ``cmte.solver``), so a cell's rows
do not depend on which other cells the sweep holds.

ANTT (average network travel time) is the demand-weighted mean route
travel time sum_k f_k * mu_k / sum_od q.  Each row reads it, with its
``wardrop_ok``, from its solve's own result: the last entry of the ANTT
history belongs to the returned flows, and a converged solve has passed
``wardrop_check``'s gap test at its default tolerance.

Within a cell only the risk coefficient changes with lambda, so the
cell's problem is compiled once (``solver.compile_problem``) and each
solve sets its own coefficient on it.  The route set, with its per-OD
route indices, is built once per sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bpr import BprParams
from .indices import IndexKind, RiskProfile
from .network import Network, build_route_set
from .solver import SolverConfig, compile_problem, extragradient_solve

# unused here, but benchmark/hooks.py times these scenario.* names and
# reports each one this module lacks as absent
from .bpr import link_moments_vector, route_moments  # noqa: F401
from .network import link_flows  # noqa: F401
from .solver import wardrop_check  # noqa: F401

__all__ = ["Scenario", "SweepRow", "SweepResult", "ScenarioError",
           "run_scenario", "emit_results", "fmt_float"]


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


def fmt_float(x: float) -> str:
    """Deterministic float formatting for output files."""
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class Scenario:
    alpha: float = 0.9
    lambda_grid: tuple[float, ...] = (0.5,)
    demand_grid: tuple[float, ...] = (4000.0,)
    theta_grid: tuple[float, ...] = (0.8,)
    bpr: BprParams = BprParams()
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ScenarioError(f"alpha must be in (0, 1), got {self.alpha}")
        for name, grid in (("lambda_grid", self.lambda_grid),
                           ("demand_grid", self.demand_grid),
                           ("theta_grid", self.theta_grid)):
            if len(grid) == 0:
                raise ScenarioError(f"{name} must be nonempty")
        if any(not 0.0 <= lam <= 1.0 for lam in self.lambda_grid):
            raise ScenarioError("lambda values must lie in [0, 1]")
        if any(not 0 < q < math.inf for q in self.demand_grid):
            raise ScenarioError("demand values must be finite and > 0")
        if any(not 0.0 < t <= 1.0 for t in self.theta_grid):
            raise ScenarioError("theta values must lie in (0, 1]")

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Build from a JSON document mirroring the fields of this type.

        Recognized keys: alpha, lambda_grid, demand_grid, theta_grid,
        bpr {beta, n}, solver {tol, max_iter}.  Missing keys fall back to
        defaults; any other key, at the top level or inside bpr or solver,
        raises ScenarioError.
        """
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ScenarioError("scenario config must be a JSON object")
        known = {"alpha", "lambda_grid", "demand_grid", "theta_grid", "bpr", "solver"}
        unknown = set(raw) - known
        if unknown:
            raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
        kwargs = {}
        try:
            if "alpha" in raw:
                kwargs["alpha"] = float(raw["alpha"])
            for key in ("lambda_grid", "demand_grid", "theta_grid"):
                if key in raw:
                    kwargs[key] = tuple(float(x) for x in raw[key])
            if "bpr" in raw:
                kwargs["bpr"] = BprParams(**raw["bpr"])
            if "solver" in raw:
                kwargs["solver"] = SolverConfig(**raw["solver"])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(str(exc)) from exc


@dataclass(frozen=True)
class SweepRow:
    lam: float
    demand: float
    theta: float
    antt: float
    iterations: int
    residual: float
    converged: bool
    wardrop_ok: bool
    flows: np.ndarray
    psi: np.ndarray
    residual_history: np.ndarray = field(repr=False)
    antt_history: np.ndarray = field(repr=False)
    step_history: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def run_scenario(net: Network, sc: Scenario) -> SweepResult:
    """Solve every (theta, demand, lambda) grid point in deterministic order.

    For each point the base network gets a uniform theta and its OD
    demands scaled so they total the grid demand.  Along each cell's
    lambda series a solve is warm-started from the last converged flows
    (see the module docstring).  A row's ANTT and wardrop_ok are its
    solve's (see the module docstring).  Failed solves are recorded with
    converged=False, never dropped.
    """
    base_q = net.total_demand()
    if base_q <= 0:
        raise ScenarioError("network must carry positive total demand")
    rs = build_route_set(net)
    rows = []
    for theta in sc.theta_grid:
        for q in sc.demand_grid:
            point_net = net.with_uniform_theta(theta).with_scaled_demand(q / base_q)
            prob = compile_problem(point_net, rs, sc.bpr)
            f0 = None
            for lam in sc.lambda_grid:
                profile = RiskProfile(sc.alpha, lam)
                res = extragradient_solve(point_net, rs, sc.bpr, profile, sc.solver,
                                          f0=f0, kind=IndexKind.CMTT, problem=prob)
                if res.converged:
                    f0 = res.f_star
                rows.append(SweepRow(
                    lam=lam, demand=q, theta=theta,
                    antt=float(res.antt_history[-1]),
                    iterations=res.iterations,
                    residual=float(res.residual_history[-1]),
                    converged=res.converged, wardrop_ok=res.converged,
                    flows=res.f_star, psi=res.cmtt_per_route,
                    residual_history=res.residual_history,
                    antt_history=res.antt_history,
                    step_history=res.step_history))
    return SweepResult(tuple(rows))


def emit_results(res: SweepResult, dest: str | Path) -> list[Path]:
    """Write results table, convergence logs and ANTT series under dest.

    Layout::

        results.tsv                         one row per grid point
        convergence/point_####.tsv          per-iteration log per solve
        series/antt_vs_lambda__Q*_T*.tsv    one series per (Q, Theta)

    All files are tab-separated with a header row and written with
    fixed formatting, so identical sweeps produce byte-identical files.
    """
    dest = Path(dest)
    try:
        dest.mkdir(parents=True, exist_ok=True)
        (dest / "convergence").mkdir(exist_ok=True)
        (dest / "series").mkdir(exist_ok=True)
        written = []

        table = dest / "results.tsv"
        with table.open("w", newline="\n") as fh:
            fh.write("lambda\tdemand\ttheta\tantt\titerations\tresidual\t"
                     "converged\twardrop_ok\tflows\tpsi\n")
            for row in res.rows:
                flows = ";".join(fmt_float(x) for x in row.flows)
                psi = ";".join(fmt_float(x) for x in row.psi)
                fh.write(f"{fmt_float(row.lam)}\t{fmt_float(row.demand)}\t"
                         f"{fmt_float(row.theta)}\t{fmt_float(row.antt)}\t"
                         f"{row.iterations}\t{fmt_float(row.residual)}\t"
                         f"{int(row.converged)}\t{int(row.wardrop_ok)}\t{flows}\t{psi}\n")
        written.append(table)

        for i, row in enumerate(res.rows):
            log = dest / "convergence" / f"point_{i:04d}.tsv"
            with log.open("w", newline="\n") as fh:
                fh.write("iteration\tresidual\tantt\tstep\n")
                for it, (r, a, s) in enumerate(zip(row.residual_history,
                                                   row.antt_history,
                                                   row.step_history)):
                    fh.write(f"{it}\t{fmt_float(r)}\t{fmt_float(a)}\t{fmt_float(s)}\n")
            written.append(log)

        groups: dict[tuple[float, float], list[SweepRow]] = {}
        for row in res.rows:
            groups.setdefault((row.demand, row.theta), []).append(row)
        for (q, theta), rows in sorted(groups.items()):
            series = dest / "series" / f"antt_vs_lambda__Q{q:g}_T{theta:g}.tsv"
            with series.open("w", newline="\n") as fh:
                fh.write("lambda\tantt\n")
                for row in sorted(rows, key=lambda r: r.lam):
                    fh.write(f"{fmt_float(row.lam)}\t{fmt_float(row.antt)}\n")
            written.append(series)
        return written
    except OSError as exc:
        raise OSError(f"failed writing results under {dest}: {exc}") from exc
