"""The benchmark's stand-in pool as a regression test.

Every (theta, Q) cell of the 7 x 7 lattice stored in
``benchmark/references.json`` is swept over lambda = 0, 0.1, ..., 1 at
alpha = 0.9 with the default solver.  Each row must converge, pass the
Wardrop check and stay within 1e-3 (relative) of the stored ANTT, and
every warm row (lambda > 0) converges in one iteration.  The cold
lambda = 0 solves of the 49 cells stay within an iteration budget, in
total and each.
"""

import json
from pathlib import Path

import pytest

from cmte.bpr import BprParams
from cmte.indices import RiskProfile
from cmte.network import build_route_set, load_network
from cmte.scenario import Scenario, run_scenario
from cmte.solver import extragradient_solve

ROOT = Path(__file__).resolve().parent.parent
CELLS = json.loads((ROOT / "benchmark" / "references.json").read_text())["standin"]["cells"]
LAMBDAS = tuple(round(0.1 * i, 1) for i in range(11))
ANTT_RTOL = 1e-3
# the 49 cold solves take 236 iterations (at most 5 each) with minimum-norm
# face-Newton tries, 699 (at most 149) with Levenberg-damped ones and 14,063
# with extra-gradient steps alone
COLD_ITERATION_BUDGET = 300
COLD_SOLVE_BUDGET = 20  # iterations of any one cold solve


@pytest.fixture(scope="module")
def standin():
    return load_network((ROOT / "networks" / "standin.net").read_text())


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_matches_reference(standin, cell):
    theta, demand = (float(x) for x in cell.split("/"))
    sc = Scenario(alpha=0.9, lambda_grid=LAMBDAS, demand_grid=(demand,),
                  theta_grid=(theta,))
    rows = run_scenario(standin, sc).rows
    assert len(rows) == len(CELLS[cell]["antt"])
    for row, ref in zip(rows, CELLS[cell]["antt"]):
        assert row.converged and row.wardrop_ok, f"lambda {row.lam}"
        assert row.antt == pytest.approx(ref, rel=ANTT_RTOL), f"lambda {row.lam}"
    assert [row.iterations for row in rows[1:]] == [1] * (len(rows) - 1)


def test_cold_solves_within_budget(standin):
    rs = build_route_set(standin)
    total = 0
    for cell in CELLS:
        theta, demand = (float(x) for x in cell.split("/"))
        net = standin.with_uniform_theta(theta).with_scaled_demand(
            demand / standin.total_demand())
        res = extragradient_solve(net, rs, BprParams(), RiskProfile(0.9, 0.0))
        assert res.converged, cell
        assert res.iterations <= COLD_SOLVE_BUDGET, cell
        total += res.iterations
    assert total <= COLD_ITERATION_BUDGET
