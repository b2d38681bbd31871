import numpy as np
import pytest

from cmte.bpr import BprParams, route_moments
from cmte.indices import IndexKind, RiskProfile
from cmte import solver
from cmte.network import Link, Network, ODPair, build_route_set, check_feasible, link_flows
from cmte.presets import parallel_links_network, standin_network, three_route_toy
from cmte.solver import (SolverConfig, assemble_F, compile_problem, extragradient_solve,
                         natural_residual, project, route_costs, wardrop_check)

P = BprParams()
PROFILE = RiskProfile(0.9, 0.5)


class TestProject:
    def test_clips_negatives(self):
        assert np.array_equal(project(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_identity_on_nonnegative(self):
        u = np.array([0.0, 1.0, 5.0])
        assert np.array_equal(project(u), u)

    def test_idempotent(self):
        u = np.array([-3.0, 0.5, -0.1, 7.0])
        assert np.array_equal(project(project(u)), project(u))


def compiled(net):
    rs = build_route_set(net)
    return rs, compile_problem(net, rs, P, PROFILE)


class TestAssembleF:
    def test_single_route_fixed_point(self):
        net = parallel_links_network(n_links=1, demand=500.0)
        rs, prob = compiled(net)
        f = np.array([500.0])
        psi = route_costs(f, net, rs, P, PROFILE)
        F, mu = assemble_F(np.concatenate([f, psi]), prob)
        assert np.allclose(F, 0.0, atol=1e-12)
        assert np.allclose(mu, route_moments(net, rs, link_flows(rs, f), P).mu)

    def test_zero_point(self):
        net = parallel_links_network(n_links=2, demand=500.0)
        rs, prob = compiled(net)
        F, _ = assemble_F(np.zeros(3), prob)
        psi0 = route_costs(np.zeros(2), net, rs, P, PROFILE)
        assert np.allclose(F[:2], psi0)
        assert F[2] == pytest.approx(-500.0)

    def test_dimension_mismatch(self):
        _, prob = compiled(parallel_links_network(n_links=2))
        with pytest.raises(ValueError):
            assemble_F(np.zeros(4), prob)


class TestNaturalResidual:
    def test_zero_at_fixed_point(self):
        net = parallel_links_network(n_links=1, demand=500.0)
        rs, prob = compiled(net)
        f = np.array([500.0])
        u = np.concatenate([f, route_costs(f, net, rs, P, PROFILE)])
        F, _ = assemble_F(u, prob)
        assert natural_residual(u, F) == pytest.approx(0.0, abs=1e-14)

    def test_positive_at_origin(self):
        _, prob = compiled(parallel_links_network(n_links=2, demand=500.0))
        u = np.zeros(3)
        F, _ = assemble_F(u, prob)
        assert natural_residual(u, F) > 0.0


class TestExtragradient:
    def test_two_identical_routes_split_evenly(self):
        net = parallel_links_network(n_links=2, demand=2000.0)
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE)
        assert res.converged
        assert res.f_star == pytest.approx([1000.0, 1000.0], abs=1e-3 * 2000)

    def test_single_route(self):
        net = parallel_links_network(n_links=1, demand=700.0)
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE)
        assert res.converged
        assert res.f_star[0] == pytest.approx(700.0, rel=1e-3)
        psi = route_costs(res.f_star, net, rs, P, PROFILE)
        assert res.pi_star[0] == pytest.approx(psi[0], rel=1e-3)

    def test_feasible_at_convergence(self):
        net = three_route_toy()
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE)
        assert res.converged
        rep = check_feasible(rs, res.f_star, net,
                             tol=res.residual_history[-1] * (1 + 1000.0))
        assert rep.feasible
        assert np.all(res.f_star >= 0.0)

    def test_residual_history_clean(self):
        net = three_route_toy()
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE)
        assert np.all(np.isfinite(res.residual_history))
        assert res.residual_history[-1] <= 1e-4
        assert len(res.residual_history) == res.iterations

    def test_max_iter_reports_nonconvergence(self):
        net = standin_network()
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE, SolverConfig(max_iter=5))
        assert not res.converged
        assert res.iterations == 5
        assert len(res.residual_history) == 5

    def test_risk_neutral_matches_mean_only(self):
        # lambda = alpha makes the combined index collapse to the mean
        net = three_route_toy()
        rs = build_route_set(net)
        neutral = extragradient_solve(net, rs, P, RiskProfile(0.9, 0.9))
        mean_only = extragradient_solve(net, rs, P, RiskProfile(0.9, 0.5),
                                        kind=IndexKind.MTT)
        assert neutral.converged and mean_only.converged
        assert neutral.f_star == pytest.approx(mean_only.f_star, rel=1e-3, abs=1.0)

    def test_warm_start(self):
        net = three_route_toy()
        rs = build_route_set(net)
        cold = extragradient_solve(net, rs, P, PROFILE)
        warm = extragradient_solve(net, rs, P, PROFILE, f0=cold.f_star)
        assert warm.converged
        assert warm.iterations <= cold.iterations


class TestTwoOdSolve:
    # two OD pairs, 1->4 and 2->4, sharing the links 5 and 6 into node 4
    NET = Network((Link(1, 1, 3, 8.0, 900.0, 0.8), Link(2, 1, 3, 10.0, 1100.0, 0.7),
                   Link(3, 2, 3, 6.0, 800.0, 0.9), Link(4, 2, 4, 20.0, 700.0, 0.6),
                   Link(5, 3, 4, 9.0, 1200.0, 0.8), Link(6, 3, 4, 11.0, 1000.0, 1.0)),
                  (ODPair(1, 4, 1200.0), ODPair(2, 4, 800.0)))

    def test_each_od_demand_met(self, monkeypatch):
        rs = build_route_set(self.NET)
        res = extragradient_solve(self.NET, rs, P, PROFILE)
        assert res.converged
        assert rs.lambda_inc @ res.f_star == pytest.approx([1200.0, 800.0], rel=1e-12)
        # the iterate itself, before the polish rescales it, is within tolerance
        monkeypatch.setattr(solver, "_polish_demand", lambda f, prob: f)
        res = extragradient_solve(self.NET, rs, P, PROFILE)
        assert rs.lambda_inc @ res.f_star == pytest.approx([1200.0, 800.0], rel=1e-3)

    def test_wardrop_gap_is_the_checks_largest_od_gap(self):
        rs = build_route_set(self.NET)
        res = extragradient_solve(self.NET, rs, P, PROFILE)
        report = wardrop_check(res, self.NET, rs)
        assert len(report.od_gaps) == 2
        assert res.wardrop_gap == report.od_gaps.max()

    def test_antt_history_ends_at_the_final_iterate(self, monkeypatch):
        # without the demand polish, f_star is the iterate of the last residual
        monkeypatch.setattr(solver, "_polish_demand", lambda f, prob: f)
        rs = build_route_set(self.NET)
        res = extragradient_solve(self.NET, rs, P, PROFILE)
        assert res.converged
        mom = route_moments(self.NET, rs, link_flows(rs, res.f_star), P)
        assert res.antt_history[-1] == pytest.approx(res.f_star @ mom.mu / 2000.0,
                                                     rel=1e-12)


class TestWardropCheck:
    def test_symmetric_solution_passes(self):
        net = parallel_links_network(n_links=2, demand=2000.0)
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE)
        assert wardrop_check(res, net, rs, rel_tol=1e-3).passed

    def test_single_route_vacuous_pass(self):
        net = parallel_links_network(n_links=1, demand=500.0)
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE)
        assert wardrop_check(res, net, rs).passed

    def test_perturbation_fails(self):
        # the toy's cost scale (~13 min) needs a tighter residual than the
        # default for a 1e-3 relative gap
        net = three_route_toy()
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE, SolverConfig(tol=1e-6))
        assert wardrop_check(res, net, rs).passed
        # shift 10% of demand between used routes and re-evaluate costs
        f = res.f_star.copy()
        f[0] += 100.0
        f[1] -= 100.0
        res.f_star = f
        res.cmtt_per_route = route_costs(f, net, rs, P, PROFILE)
        assert not wardrop_check(res, net, rs, rel_tol=1e-3).passed
