"""Regenerate ``references.json``, the stored answers the benchmark checks.

Run from the repository root (about 15 minutes for the stand-in on a
2-vCPU Xeon; each part is merged into the existing file when it ends)::

    python3 benchmark/make_refs.py --part standin
    python3 benchmark/make_refs.py --part grid
    python3 benchmark/make_refs.py --part verify

Each reference ANTT comes from a solve to natural residual 1e-6 (100x
tighter than the default), warm-started from the default solve, so it is
the equilibrium's ANTT rather than one iterate path's.  The default
solve's iteration count is stored too: on the stand-in it sorts the cells
into the cost classes ``standin-sweep`` draws from
(``inputs.cost_classes``).  Every stand-in cell keeps its reference,
classed or not, because the trend check compares a solved cell with its
lattice neighbours.  For each grid the default solve's Wardrop gap is
stored as well: the known defect's size at that grid.
"""

from __future__ import annotations

import argparse
import json
import time

from inputs import (ALPHA, CELLS, GRID_INDICES, GRID_K, LAMBDAS, ROOT, SMOKE_GRID_K,
                    STANDIN_CLASSES, STANDIN_NET, cell_key, cost_classes, grid_text,
                    scenario_json, use_checkout_source)

use_checkout_source()

import cmte  # noqa: E402
from checks import antt, route_lists, routes_digest, wardrop_gap  # noqa: E402

REFS = ROOT / "benchmark" / "references.json"
TIGHT = cmte.SolverConfig(tol=1e-6, max_iter=200_000)


def _tight_antt(net, rs, profile, f0):
    res = cmte.extragradient_solve(net, rs, cmte.BprParams(), profile, TIGHT, f0=f0)
    if not res.converged:
        raise RuntimeError("reference solve did not converge")
    return antt(net, rs, res.f_star, profile)


def standin_refs():
    net = cmte.load_network(STANDIN_NET.read_text())
    rs = cmte.build_route_set(net)
    cells, worst = {}, 0.0
    for theta, demand in CELLS:
        t = time.perf_counter()
        sweep = cmte.run_scenario(net, cmte.Scenario.from_json(
            scenario_json((theta,), (demand,))))
        point = net.with_uniform_theta(theta).with_scaled_demand(
            demand / net.total_demand())
        ref, iters = [], []
        for lam, row in zip(LAMBDAS, sweep.rows):
            profile = cmte.RiskProfile(ALPHA, lam)
            a = _tight_antt(point, rs, profile, row.flows)
            worst = max(worst, abs(row.antt - a) / a)
            ref.append(a)
            iters.append(row.iterations)
        cells[cell_key(theta, demand)] = {"antt": ref, "iterations": iters}
        print(f"cell {theta:g}/{demand:g}: {sum(iters)} iterations, "
              f"{time.perf_counter() - t:.1f} s", flush=True)
    costs = {key: sum(cell["iterations"]) for key, cell in cells.items()}
    return {"routes": route_lists(rs), "cells": cells,
            "classes": cost_classes(costs, *STANDIN_CLASSES),
            "max_default_antt_rel_dev": worst}


def _grid_ref(k, index):
    text, lam = grid_text(k, index)
    net = cmte.load_network(text)
    rs = cmte.build_route_set(net)
    profile = cmte.RiskProfile(ALPHA, lam)
    res = cmte.extragradient_solve(net, rs, cmte.BprParams(), profile)
    a = _tight_antt(net, rs, profile, res.f_star)
    lists = route_lists(rs)
    return {"routes_sha256": routes_digest(lists),
            "routes_per_od": [len(od) for od in lists],
            "antt": a, "iterations": res.iterations,
            "default_antt_rel_dev": abs(antt(net, rs, res.f_star, profile) - a) / a,
            "default_wardrop_gap": wardrop_gap(net, rs, res.f_star, res.cmtt_per_route)}


def grid_refs():
    members = {f"{SMOKE_GRID_K}/0": _grid_ref(SMOKE_GRID_K, 0)}
    for index in GRID_INDICES:
        t = time.perf_counter()
        members[f"{GRID_K}/{index}"] = _grid_ref(GRID_K, index)
        print(f"grid {GRID_K}/{index}: {time.perf_counter() - t:.1f} s", flush=True)
    return {"grids": members,
            "max_default_antt_rel_dev": max(m["default_antt_rel_dev"]
                                            for m in members.values())}


def verify_refs():
    net = cmte.load_network(STANDIN_NET.read_text())
    rows, _ = cmte.montecarlo.oracle_report(net, cmte.BprParams(),
                                            cmte.McConfig(samples=10 ** 4, seed=0))
    return {"claims": [[r[0], r[1]] for r in rows]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", choices=("standin", "grid", "verify"), required=True)
    args = ap.parse_args()
    part = {"standin": standin_refs, "grid": grid_refs, "verify": verify_refs}[args.part]()
    refs = json.loads(REFS.read_text()) if REFS.exists() else {}
    refs[args.part] = part
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
