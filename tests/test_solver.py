import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmte.bpr import BprParams, route_moments
from cmte.indices import IndexKind, RiskProfile
from cmte.network import Link, Network, ODPair, build_route_set, check_feasible, link_flows
from cmte.presets import parallel_links_network, standin_network, three_route_toy
from cmte.solver import (DomainError, SolverConfig, assemble_F, compile_problem,
                         extragradient_solve, natural_residual, project, route_costs,
                         wardrop_check)

P = BprParams()
PROFILE = RiskProfile(0.9, 0.5)


def compiled(net, profile=PROFILE):
    rs = build_route_set(net)
    return rs, compile_problem(net, rs, P, profile)


def od_network(route_counts, demands):
    """One OD pair per entry: node pair (2i+1, 2i+2) joined by parallel links."""
    links, ods, lid = [], [], 1
    for i, (count, q) in enumerate(zip(route_counts, demands)):
        for _ in range(count):
            links.append(Link(lid, 2 * i + 1, 2 * i + 2, 10.0, 1000.0, 0.8))
            lid += 1
        ods.append(ODPair(2 * i + 1, 2 * i + 2, q))
    return Network(tuple(links), tuple(ods))


class TestProject:
    def test_clips_negatives(self):
        _, prob = compiled(parallel_links_network(n_links=2, demand=1.0))
        assert np.array_equal(project(np.array([-1.0, 2.0]), prob), [0.0, 1.0])

    def test_identity_on_nonnegative(self):
        # a point already on the demand simplex stays where it is
        _, prob = compiled(parallel_links_network(n_links=3, demand=6.0))
        u = np.array([0.0, 1.0, 5.0])
        assert np.array_equal(project(u, prob), u)

    def test_idempotent(self):
        _, prob = compiled(od_network((3, 1), (5.0, 2.0)))
        x = project(np.array([-3.0, 0.5, -0.1, 7.0]), prob)
        assert np.allclose(project(x, prob), x, rtol=1e-12, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_characterises_the_simplex_projection(self, data):
        counts = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        demands = data.draw(st.lists(st.floats(1e-3, 1e4), min_size=len(counts),
                                     max_size=len(counts)))
        rs, prob = compiled(od_network(counts, demands))
        y = np.array(data.draw(st.lists(st.floats(-1e4, 1e4), min_size=sum(counts),
                                        max_size=sum(counts))))
        x = project(y, prob)
        assert np.all(x >= 0.0)
        assert rs.lambda_inc @ x == pytest.approx(demands, rel=1e-12)
        # x is the projection iff <y - x, z - x> <= 0 for every z in the set;
        # the vertices q * e_k of each OD's simplex suffice
        for ks, q in zip(prob.od_routes, demands):
            scale = (1.0 + np.abs(y[ks]).max() + q) * q
            for vertex in q * np.eye(ks.size):
                assert (y[ks] - x[ks]) @ (vertex - x[ks]) <= 1e-9 * scale


class TestAssembleF:
    def test_single_route_fixed_point(self):
        net = parallel_links_network(n_links=1, demand=500.0)
        rs, prob = compiled(net)
        f = np.array([500.0])
        F, mu = assemble_F(f, prob)
        assert np.allclose(F, route_costs(f, net, rs, P, PROFILE), rtol=1e-12)
        assert np.allclose(mu, route_moments(net, rs, link_flows(rs, f), P).mu,
                           rtol=1e-12)

    def test_zero_point(self):
        net = parallel_links_network(n_links=2, demand=500.0)
        rs, prob = compiled(net)
        F, mu = assemble_F(np.zeros(2), prob)
        assert np.allclose(F, route_costs(np.zeros(2), net, rs, P, PROFILE), rtol=1e-12)
        assert np.allclose(mu, [net.links[0].t0, net.links[1].t0], rtol=1e-12)

    def test_matches_route_costs_off_equilibrium(self):
        net = three_route_toy()
        rs, prob = compiled(net)
        f = np.array([700.0, 200.0, 100.0])
        F, mu = assemble_F(f, prob)
        assert np.allclose(F, route_costs(f, net, rs, P, PROFILE), rtol=1e-12)
        assert np.allclose(mu, route_moments(net, rs, link_flows(rs, f), P).mu,
                           rtol=1e-12)

    def test_dimension_mismatch(self):
        _, prob = compiled(parallel_links_network(n_links=2))
        with pytest.raises(ValueError):
            assemble_F(np.zeros(3), prob)


class TestNaturalResidual:
    def test_zero_at_fixed_point(self):
        _, prob = compiled(parallel_links_network(n_links=1, demand=500.0))
        u = np.array([500.0])
        F, _ = assemble_F(u, prob)
        assert natural_residual(u, F, prob) == pytest.approx(0.0, abs=1e-14)

    def test_positive_at_origin(self):
        _, prob = compiled(parallel_links_network(n_links=2, demand=500.0))
        u = np.zeros(2)
        F, _ = assemble_F(u, prob)
        assert natural_residual(u, F, prob) > 0.0

    def test_positive_off_equilibrium(self):
        # all demand on one of two identical routes: feasible, not Wardrop
        _, prob = compiled(parallel_links_network(n_links=2, demand=500.0))
        u = np.array([500.0, 0.0])
        F, _ = assemble_F(u, prob)
        assert natural_residual(u, F, prob) > 0.0


class TestDomain:
    def test_non_monotone_point_rejected(self):
        # heavy degradation with an optimistic index: the mean coefficient
        # no longer covers |c| times the standard-deviation coefficient
        net = standin_network().with_uniform_theta(0.3)
        with pytest.raises(DomainError, match="link 1:.* < "):
            compiled(net, RiskProfile(0.5, 1.0))

    def test_rejected_before_iterating(self):
        net = standin_network().with_uniform_theta(0.3)
        with pytest.raises(ValueError, match="not monotone"):
            extragradient_solve(net, build_route_set(net), P, RiskProfile(0.5, 1.0))

    @pytest.mark.parametrize("theta, cap", [(1e-300, 1000.0), (0.8, 1e-80)])
    def test_non_finite_coefficients_rejected(self, theta, cap):
        # both overflow the moment coefficients; a NaN must not reach the solve
        net = Network((Link(1, 1, 2, 10.0, cap, theta), Link(2, 1, 2, 12.0, 600.0, 0.8)),
                      (ODPair(1, 2, 1000.0),))
        with pytest.raises(DomainError, match="link 1 are not finite"):
            compiled(net)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_benchmark_range_accepted(self, lam):
        net = standin_network().with_uniform_theta(0.6)
        compiled(net, RiskProfile(0.9, lam))


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
        assert res.f_star[0] == pytest.approx(700.0, rel=1e-12)
        # pi_star is the OD's minimum index at f_star: here the one route's
        psi = route_costs(res.f_star, net, rs, P, PROFILE)
        assert res.pi_star[0] == pytest.approx(psi[0], rel=1e-12)

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

    def test_theta_next_to_one_solves(self):
        # the variance closed form must not cancel to a negative value here
        net = standin_network(theta=1.0 - 1e-7)
        res = extragradient_solve(net, build_route_set(net), P, PROFILE)
        assert res.converged
        assert wardrop_check(res, net, build_route_set(net)).passed

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

    def test_each_od_demand_met(self):
        # every iterate lies on the demand simplices, so no rescale is needed
        rs = build_route_set(self.NET)
        res = extragradient_solve(self.NET, rs, P, PROFILE)
        assert res.converged
        assert rs.lambda_inc @ res.f_star == pytest.approx([1200.0, 800.0], rel=1e-12)
        assert np.all(res.f_star >= 0.0)

    def test_pi_star_is_each_ods_minimum_index(self):
        rs = build_route_set(self.NET)
        res = extragradient_solve(self.NET, rs, P, PROFILE)
        psi = route_costs(res.f_star, self.NET, rs, P, PROFILE)
        mins = [psi[rs.lambda_inc[i] > 0].min() for i in range(2)]
        assert res.pi_star == pytest.approx(mins, rel=1e-12)
        assert np.array_equal(res.pi_star, wardrop_check(res, self.NET, rs).min_costs)

    def test_wardrop_gap_is_the_checks_largest_od_gap(self):
        rs = build_route_set(self.NET)
        res = extragradient_solve(self.NET, rs, P, PROFILE)
        report = wardrop_check(res, self.NET, rs)
        assert len(report.od_gaps) == 2
        assert res.wardrop_gap == report.od_gaps.max()

    def test_antt_history_ends_at_the_final_iterate(self):
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

    def test_non_finite_index_fails(self):
        # NaN flows leave no route counted as used; the NaN minimum still fails
        net = parallel_links_network(n_links=2, demand=2000.0)
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE)
        res.f_star = np.full(2, np.nan)
        res.cmtt_per_route = np.full(2, np.nan)
        report = wardrop_check(res, net, rs)
        assert not report.passed
        assert np.isnan(report.od_gaps[0])

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
