"""The benchmark's stand-in pool as a regression test.

Every (theta, Q) cell of the 7 x 7 lattice stored in
``benchmark/references.json`` is swept over lambda = 0, 0.1, ..., 1 at
alpha = 0.9 with the default solver.  Each row must converge, pass the
Wardrop check and stay within 1e-3 (relative) of the stored ANTT.
"""

import json
from pathlib import Path

import pytest

from cmte.network import load_network
from cmte.scenario import Scenario, run_scenario

ROOT = Path(__file__).resolve().parent.parent
CELLS = json.loads((ROOT / "benchmark" / "references.json").read_text())["standin"]["cells"]
LAMBDAS = tuple(round(0.1 * i, 1) for i in range(11))
ANTT_RTOL = 1e-3


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
