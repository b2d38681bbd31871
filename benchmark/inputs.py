"""Seeded inputs of the three workloads.

Every input a run can draw comes from a finite pool, so that each one has
a stored reference in ``references.json``:

- ``standin-sweep``: (theta, Q) cells of the bundled stand-in network on a
  7 x 7 lattice over the acceptance-criterion-8 ranges, theta in
  [0.6, 0.9] and Q in [3000, 6000], each swept over the full lambda series.
- ``grid``: synthetic k x k grids with two-way links; t0, capacity and
  degradation degree are drawn per link, OD demands and lambda per grid
  (a fixed list of grid indices, ``GRID_INDICES``).
- ``verify``: the oracle suite on the stand-in; its closed forms do not
  depend on the seed, so any base seed can be used.

The seed given to the benchmark only chooses which pool members a run
solves and in what order (see ``class_rounds`` and ``sample_rounds``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STANDIN_NET = ROOT / "networks" / "standin.net"

ALPHA = 0.9
LAMBDAS = tuple(round(0.1 * i, 1) for i in range(11))
CELL_THETAS = (0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)
CELL_DEMANDS = (3000.0, 3500.0, 4000.0, 4500.0, 5000.0, 5500.0, 6000.0)
CELLS = tuple((t, q) for t in CELL_THETAS for q in CELL_DEMANDS)

# Cost classes (see cost_classes): how many, and members per class.
STANDIN_CLASSES = (3, 4)
GRID_K = 5
GRID_INDICES = (0, 1, 4, 7, 11, 14, 21, 23, 26, 34, 39, 57)
GRID_PER_ROUND = 4
SMOKE_GRID_K = 3
VERIFY_SAMPLES = 10 ** 6
# oracle_report draws one stream per claim group (84 on the stand-in),
# numbered upward from its base seed; spacing base seeds by 100 keeps
# the reports of one run and of neighbouring benchmark seeds disjoint.
VERIFY_SEED_STRIDE = 100
VERIFY_SEEDS_PER_RUN = 1000


def use_checkout_source() -> None:
    """Import ``cmte`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cmte" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {src / 'cmte'}")
    sys.path.insert(0, str(src))


def cell_key(theta: float, demand: float) -> str:
    return f"{theta:g}/{demand:g}"


def scenario_json(thetas, demands, lambdas=LAMBDAS) -> str:
    """Scenario document for ``Scenario.from_json`` (default BPR and solver)."""
    return json.dumps({"alpha": ALPHA, "lambda_grid": list(lambdas),
                       "demand_grid": list(demands), "theta_grid": list(thetas)})


def grid_ods(k: int) -> tuple[tuple[int, int], ...]:
    """Both diagonals corner to corner, one of them in both directions."""
    return ((1, k * k), (k, k * k - k + 1), (k * k, 1))


def grid_text(k: int, index: int) -> tuple[str, float]:
    """Network document of grid ``index`` of size k x k, and its lambda.

    Nodes are numbered row-major from 1; every pair of neighbours is
    joined by two opposite links (2 * 2 * k * (k - 1) links in all).
    """
    rng = np.random.default_rng([k, index])
    lines = ["[links]", "# id  tail  head  t0_min  cap_pcu_h  theta"]
    lid = 0
    for r in range(k):
        for c in range(k):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 >= k or c2 >= k:
                    continue
                a, b = r * k + c + 1, r2 * k + c2 + 1
                for tail, head in ((a, b), (b, a)):
                    lid += 1
                    lines.append(f"{lid} {tail} {head} {rng.uniform(2.0, 8.0):.6f} "
                                 f"{rng.uniform(800.0, 2000.0):.3f} "
                                 f"{rng.uniform(0.6, 0.9):.4f}")
    lines += ["", "[od]", "# origin  destination  demand_pcu_h"]
    for o, d in grid_ods(k):
        lines.append(f"{o} {d} {rng.uniform(800.0, 1500.0):.3f}")
    lam = round(float(rng.uniform(0.0, 1.0)), 3)
    return "\n".join(lines) + "\n", lam


def cost_classes(costs: dict, n: int, per_class: int) -> list[list]:
    """Pool members grouped into ``n`` narrow classes by reference cost.

    Class c holds the ``per_class`` members, not already taken, whose
    cost lies nearest the (c + 1/2) / n quantile of all costs, so the
    classes span the cost range while each stays narrow and a round's
    cost hardly depends on the seed.
    """
    ordered = sorted(costs.values())
    free = dict(costs)
    classes = []
    for c in range(n):
        target = ordered[int((c + 0.5) / n * len(ordered))]
        pick = sorted(free, key=lambda m: (abs(free[m] - target), m))[:per_class]
        for m in pick:
            del free[m]
        classes.append(sorted(pick))
    return classes


def class_rounds(classes: list[list], seed: int, stream: int):
    """Endless rounds, each holding one member of every cost class.

    ``classes`` groups pool members by their reference cost, so every
    round, and so every run of whole rounds, has the same mix of cheap
    and costly inputs whatever the seed.  Which member of each class and
    the order within the round come from the seed.
    """
    rng = np.random.default_rng([seed, stream])
    while True:
        picks = [c[int(rng.integers(len(c)))] for c in classes]
        yield [picks[i] for i in rng.permutation(len(picks))]


def sample_rounds(pool: list, per_round: int, seed: int, stream: int):
    """Endless rounds of ``per_round`` distinct pool members drawn by seed."""
    rng = np.random.default_rng([seed, stream])
    while True:
        yield [pool[i] for i in rng.choice(len(pool), per_round, replace=False)]
