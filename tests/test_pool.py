"""The benchmark's stand-in pool as a regression test.

Every (theta, Q) cell of the 7 x 7 lattice stored in
``benchmark/references.json`` is swept over lambda = 0, 0.1, ..., 1 at
alpha = 0.9 with the default solver.  Each row must converge, pass the
Wardrop check and stay within 1e-3 (relative) of the stored ANTT, each
step of a cell's ANTT along lambda must go the stored step's way, and
every warm row (lambda > 0) converges in one iteration.  The warm solves
of the 49 sweeps stay within an F-evaluation and a face-Newton try
budget.  The cold lambda = 0 solves of the 49 cells stay within an
iteration budget, in total and each, and within an F-evaluation budget
in total.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cmte.bpr import BprParams
from cmte.indices import RiskProfile
from cmte.network import build_route_set, load_network
from cmte.scenario import Scenario, run_scenario
from cmte.solver import extragradient_solve
import cmte.scenario

ROOT = Path(__file__).resolve().parent.parent
CELLS = json.loads((ROOT / "benchmark" / "references.json").read_text())["standin"]["cells"]
LAMBDAS = tuple(round(0.1 * i, 1) for i in range(11))
ANTT_RTOL = 1e-3
# the 49 cold solves take 138 iterations (at most 3 each) and 187 F
# evaluations when the first face-Newton try comes at iteration 0 and a kept
# try ends its iteration; 236 iterations (at most 5) and 561 F evaluations
# when the first try waited two extra-gradient steps and each kept try was
# followed by one; 699 (at most 149) with Levenberg-damped tries and 14,063
# with extra-gradient steps alone
COLD_ITERATION_BUDGET = 152
COLD_SOLVE_BUDGET = 4  # iterations of any one cold solve
COLD_F_EVAL_BUDGET = 206
# the 490 warm solves take 650 F evaluations and 160 tries when each starts
# on its cell's secant and a start within the stopping test START_MARGIN
# times over makes no try; 980 and 490 from the last converged flows, with
# a try in every solve
WARM_F_EVAL_BUDGET = 715
WARM_TRY_BUDGET = 176


@pytest.fixture(scope="module")
def standin():
    return load_network((ROOT / "networks" / "standin.net").read_text())


@pytest.fixture(scope="module")
def sweep(standin):
    """A cell's rows and solve results, each cell swept once per module."""
    done = {}

    def swept(cell):
        if cell not in done:
            theta, demand = (float(x) for x in cell.split("/"))
            sc = Scenario(alpha=0.9, lambda_grid=LAMBDAS, demand_grid=(demand,),
                          theta_grid=(theta,))
            results = []
            solve = cmte.scenario.extragradient_solve

            def recording(*args, **kwargs):
                results.append(solve(*args, **kwargs))
                return results[-1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cmte.scenario, "extragradient_solve", recording)
                done[cell] = run_scenario(standin, sc).rows, results
        return done[cell]

    return swept


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_matches_reference(sweep, cell):
    rows, _ = sweep(cell)
    assert len(rows) == len(CELLS[cell]["antt"])
    for row, ref in zip(rows, CELLS[cell]["antt"]):
        assert row.converged and row.wardrop_ok, f"lambda {row.lam}"
        assert row.antt == pytest.approx(ref, rel=ANTT_RTOL), f"lambda {row.lam}"
    # the stored steps along lambda are 6e-7 to 2e-4 relative (median 8e-6),
    # far below ANTT_RTOL, so their signs are checked on their own
    steps = np.sign(np.diff([row.antt for row in rows]))
    assert steps.tolist() == np.sign(np.diff(CELLS[cell]["antt"])).tolist()
    assert [row.iterations for row in rows[1:]] == [1] * (len(rows) - 1)


def test_warm_solves_within_budget(sweep):
    warm = [res for cell in sorted(CELLS) for res in sweep(cell)[1][1:]]
    assert len(warm) == 490
    assert sum(res.f_evals for res in warm) <= WARM_F_EVAL_BUDGET
    assert sum(res.newton_tried for res in warm) <= WARM_TRY_BUDGET


def test_cold_solves_within_budget(standin):
    rs = build_route_set(standin)
    total = f_evals = 0
    for cell in CELLS:
        theta, demand = (float(x) for x in cell.split("/"))
        net = standin.with_uniform_theta(theta).with_scaled_demand(
            demand / standin.total_demand())
        res = extragradient_solve(net, rs, BprParams(), RiskProfile(0.9, 0.0))
        assert res.converged, cell
        assert res.iterations <= COLD_SOLVE_BUDGET, cell
        total += res.iterations
        f_evals += res.f_evals
    assert total <= COLD_ITERATION_BUDGET
    assert f_evals <= COLD_F_EVAL_BUDGET
