"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math
import time

import numpy as np
import pytest

from cmte.bpr import BprParams, bpr_time, link_mean, link_var, route_moments
from cmte.indices import (IndexKind, RiskProfile, cmtt, mbtt, mett,
                          risk_coefficient)
from cmte.montecarlo import McConfig, mc_link_moments, mc_tail_means
from cmte.network import build_route_set, check_feasible, link_flows
from cmte.presets import standin_network, three_route_toy
from cmte.scenario import Scenario, emit_results, run_scenario
from cmte.solver import SolverConfig, extragradient_solve, wardrop_check

P = BprParams()
ALPHA_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
MU_GRID = [1.0, 10.0, 100.0]
SIGMA_GRID = [0.0, 1.0, 10.0]


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def _report(criterion, ok, timer, limit):
    status = "PASS" if ok and timer.elapsed < limit else "FAIL"
    print(f"[{status}] criterion {criterion} ({timer.elapsed:.2f}s / limit {limit}s)")
    assert ok
    assert timer.elapsed < limit, f"criterion {criterion} exceeded {limit}s"


def test_criterion_1_recombination_identity():
    with _Timer() as t:
        ok = all(
            abs(a * mbtt(mu, s, a) + (1 - a) * mett(mu, s, a) - mu) <= 1e-10
            for mu in MU_GRID for s in SIGMA_GRID for a in ALPHA_GRID)
    _report(1, ok, t, 1.0)


def test_criterion_2_coefficient_anchors():
    with _Timer() as t:
        c = math.sqrt(2.0 / math.pi)
        half = RiskProfile(0.5, 0.5)
        ok = abs(risk_coefficient(IndexKind.MBTT, half) + c) <= 1e-12
        ok &= abs(risk_coefficient(IndexKind.METT, half) - c) <= 1e-12
        for mu in MU_GRID:
            for s in SIGMA_GRID:
                for a in ALPHA_GRID:
                    ok &= abs(cmtt(mu, s, RiskProfile(a, a)) - mu) <= 1e-12
    _report(2, ok, t, 1.0)


def test_criterion_3_tail_mean_oracle():
    with _Timer() as t:
        ok = True
        for seed, (mu, sigma, alpha) in enumerate(
                [(20.0, 3.0, 0.9), (15.0, 5.0, 0.8), (30.0, 1.0, 0.95)]):
            est = mc_tail_means(mu, sigma, alpha,
                                McConfig(samples=10 ** 7, seed=1000 + seed))
            ok &= abs(mbtt(mu, sigma, alpha) - est.below_mean) <= 3 * est.below_se
            ok &= abs(mett(mu, sigma, alpha) - est.excess_mean) <= 3 * est.excess_se
    _report(3, ok, t, 30.0)


def test_criterion_4_link_moment_oracle():
    from dataclasses import replace
    with _Timer() as t:
        ok = True
        seed = 2100
        for link in standin_network().links:
            for theta in (0.6, 0.8):
                lk = replace(link, theta=theta)
                for frac in (0.5, 1.0, 1.5):
                    v = frac * link.cap_design
                    est = mc_link_moments(lk, v, P, McConfig(samples=10 ** 6, seed=seed))
                    seed += 1
                    ok &= abs(link_mean(lk, v, P) - est.mean) <= 3 * est.mean_se
                    ok &= abs(link_var(lk, v, P) - est.var) <= 3 * est.var_se
            near_one = replace(link, theta=1.0 - 1e-6)
            det = replace(link, theta=1.0)
            v = link.cap_design
            plain = bpr_time(link, v, link.cap_design, P)
            ok &= abs(link_mean(near_one, v, P) - plain) / plain <= 1e-4
            ok &= link_var(det, v, P) == 0.0
    _report(4, ok, t, 60.0)


def test_criterion_5_solver_certificate():
    with _Timer() as t:
        net = standin_network(theta=0.8, demand=4000.0)
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, RiskProfile(0.9, 0.5))
        ok = res.converged
        ok &= res.residual_history[-1] <= 1e-4
        ok &= res.iterations <= 10_000
        ok &= wardrop_check(res, net, rs, rel_tol=1e-3).passed
        rep = check_feasible(rs, res.f_star, net, tol=1e-6 * 4000.0)
        ok &= rep.feasible
    _report(5, ok, t, 10.0)


def _brute_force_equilibrium(net, profile, kind, q, step):
    """Exhaustive demand-simplex grid search minimizing the Wardrop gap.

    Independent of the solver: evaluates the per-route index at every
    grid point (f1, f2, q - f1 - f2) and returns the point where used
    routes are most equalized against the overall minimum.
    """
    links = net.links
    c = risk_coefficient(kind, profile)
    best_gap, best_f = np.inf, None
    f1_values = np.arange(0.0, q + step / 2, step)
    for f1 in f1_values:
        f2 = np.arange(0.0, q - f1 + step / 2, step)
        f3 = q - f1 - f2
        psi = np.empty((3, f2.size))
        for i, flows in enumerate((np.full(f2.size, f1), f2, f3)):
            mu = link_mean(links[i], flows, P)
            sigma = np.sqrt(link_var(links[i], flows, P))
            psi[i] = mu + c * sigma
        fmat = np.vstack([np.full(f2.size, f1), f2, f3])
        used = fmat > 0.0
        pmin = psi.min(axis=0)
        gaps = np.where(used, psi - pmin, 0.0).max(axis=0)
        j = int(np.argmin(gaps))
        if gaps[j] < best_gap:
            best_gap = gaps[j]
            best_f = fmat[:, j].copy()
    return best_f


def test_criterion_6_brute_force_equivalence():
    with _Timer() as t:
        net = three_route_toy(demand=1000.0)
        rs = build_route_set(net)
        ok = True
        cfg = SolverConfig(tol=1e-6)  # toy cost scale needs a tight residual
        for lam in (0.0, 0.5, 1.0):
            profile = RiskProfile(0.9, lam)
            res = extragradient_solve(net, rs, P, profile, cfg)
            ok &= res.converged
            ref = _brute_force_equilibrium(net, profile, IndexKind.CMTT,
                                           1000.0, step=0.5)
            ok &= bool(np.all(np.abs(res.f_star - ref) <= 0.01 * 1000.0))
    _report(6, ok, t, 60.0)


def test_criterion_7_risk_neutral_equivalence():
    with _Timer() as t:
        net = standin_network(theta=0.8, demand=4000.0)
        rs = build_route_set(net)
        neutral = extragradient_solve(net, rs, P, RiskProfile(0.9, 0.9))
        mean_only = extragradient_solve(net, rs, P, RiskProfile(0.9, 0.5),
                                        kind=IndexKind.MTT)
        ok = neutral.converged and mean_only.converged
        scale = np.maximum(np.abs(mean_only.f_star), 1.0)
        ok &= bool(np.all(np.abs(neutral.f_star - mean_only.f_star) / scale <= 1e-3))
    _report(7, ok, t, 10.0)


def test_criterion_8_antt_trends():
    with _Timer() as t:
        net = standin_network()
        lam_grid = tuple(round(0.1 * i, 1) for i in range(11))
        demand_sweep = run_scenario(net, Scenario(
            lambda_grid=lam_grid, demand_grid=(3000.0, 4000.0, 5000.0, 6000.0),
            theta_grid=(0.8,)))
        theta_sweep = run_scenario(net, Scenario(
            lambda_grid=lam_grid, demand_grid=(4000.0,),
            theta_grid=(0.6, 0.7, 0.8, 0.9)))
        ok = all(r.converged for r in demand_sweep.rows)
        ok &= all(r.converged for r in theta_sweep.rows)
        for lam in lam_grid:
            by_q = [r.antt for r in demand_sweep.rows if r.lam == lam]
            ok &= all(a <= b for a, b in zip(by_q, by_q[1:]))
            by_theta = [r.antt for r in sorted(
                (r for r in theta_sweep.rows if r.lam == lam),
                key=lambda r: r.theta)]
            ok &= all(a >= b for a, b in zip(by_theta, by_theta[1:]))
    _report(8, ok, t, 300.0)


def test_criterion_9_sweep_determinism(tmp_path):
    with _Timer() as t:
        net = standin_network()
        sc = Scenario(lambda_grid=(0.0, 0.5, 1.0), demand_grid=(4000.0,),
                      theta_grid=(0.8,))
        emit_results(run_scenario(net, sc), tmp_path / "a")
        emit_results(run_scenario(net, sc), tmp_path / "b")
        a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
        ok = [p.name for p in a] == [p.name for p in b]
        ok &= all(pa.read_bytes() == pb.read_bytes() for pa, pb in zip(a, b))
    _report(9, ok, t, 300.0)
