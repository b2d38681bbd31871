from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmte.bpr import BprParams, route_moments
from cmte.indices import IndexKind, RiskProfile, risk_coefficient
from cmte.network import Link, Network, ODPair, build_route_set, check_feasible, link_flows
from cmte.presets import parallel_links_network, standin_network, three_route_toy
import cmte.bpr
import cmte.solver
from cmte.solver import (GAP_TOL, START_MARGIN, DomainError, Problem, SolverConfig,
                         SolverError, _face_newton, assemble_F, compile_problem,
                         extragradient_solve, natural_residual, project, route_costs,
                         wardrop_check)

P = BprParams()
PROFILE = RiskProfile(0.9, 0.5)


def compiled(net, profile=PROFILE):
    rs = build_route_set(net)
    return rs, compile_problem(net, rs, P).with_risk(profile)


def od_network(route_counts, demands):
    """One OD pair per entry: node pair (2i+1, 2i+2) joined by parallel links."""
    links, ods, lid = [], [], 1
    for i, (count, q) in enumerate(zip(route_counts, demands)):
        for _ in range(count):
            links.append(Link(lid, 2 * i + 1, 2 * i + 2, 10.0, 1000.0, 0.8))
            lid += 1
        ods.append(ODPair(2 * i + 1, 2 * i + 2, q))
    return Network(tuple(links), tuple(ods))


def grid_network(k, seed):
    """k x k grid, two opposite links between neighbours, OD pairs corner to
    corner on both diagonals; t0, capacity, theta and demands drawn from seed."""
    rng = np.random.default_rng(seed)
    links = []
    for r in range(k):
        for c in range(k):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < k and c2 < k:
                    a, b = r * k + c + 1, r2 * k + c2 + 1
                    for tail, head in ((a, b), (b, a)):
                        links.append(Link(len(links) + 1, tail, head,
                                          round(rng.uniform(2, 8), 3),
                                          round(rng.uniform(800, 2000)),
                                          round(rng.uniform(0.6, 0.9), 2)))
    ods = (ODPair(1, k * k, round(rng.uniform(800, 1500))),
           ODPair(k, k * k - k + 1, round(rng.uniform(800, 1500))))
    return Network(tuple(links), ods)


def overshoot_network():
    """Two parallel links, the first cheap and narrow: the face-Newton try
    from the equal split overshoots, does not lower the residual and is
    rejected, so iteration 0 takes an extra-gradient step (18 iterations)."""
    return Network((Link(1, 1, 2, 1.0, 100.0, 0.8), Link(2, 1, 2, 20.0, 1000.0, 0.8)),
                   (ODPair(1, 2, 400.0),))


def reference_project(u, prob):
    """``project`` as a plain loop over each OD's route indices."""
    x = np.zeros_like(u)
    for ks, q in zip(prob.od_routes, prob.q):
        if q <= 0:
            continue
        y = u[ks]
        y -= y.max()
        s = np.sort(y)[::-1]
        excess = np.cumsum(s) - q
        rho = np.flatnonzero(s * np.arange(1, s.size + 1) > excess)[-1]
        x[ks] = np.maximum(y - excess[rho] / (rho + 1), 0.0)
    return x


def jacobian(prob, f):
    """``Problem.jacobian`` at route flows f, from F's evaluation there."""
    _, _, v, sigma = assemble_F(f, prob)
    return prob.jacobian(v, sigma)


def numeric_jacobian(prob, f, h):
    """Central differences of assemble_F; second-order one-sided ones where
    f - h would cross the kink of max(f, 0) at zero flow."""
    cols = []
    for j in range(f.size):
        e = np.zeros(f.size)
        e[j] = h
        F = lambda x: assemble_F(x, prob)[0]  # noqa: E731
        if f[j] >= h:
            cols.append((F(f + e) - F(f - e)) / (2 * h))
        else:
            cols.append((4 * F(f + e) - F(f + 2 * e) - 3 * F(f)) / (2 * h))
    return np.column_stack(cols)


class TestSolverConfig:
    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=max_iter)


class TestJacobian:
    @settings(max_examples=60, deadline=None)
    @given(thetas=st.lists(st.one_of(st.just(1.0), st.floats(0.6, 1.0)),
                           min_size=13, max_size=13),
           flows=st.lists(st.one_of(st.just(0.0), st.floats(1.0, 3000.0)),
                          min_size=6, max_size=6),
           lam=st.floats(0.0, 1.0))
    def test_matches_differences_of_F(self, thetas, flows, lam):
        base = standin_network()
        net = replace(base, links=tuple(replace(l, theta=t)
                                         for l, t in zip(base.links, thetas)))
        _, prob = compiled(net, RiskProfile(0.9, lam))
        f = np.array(flows)
        J = jacobian(prob, f)
        assert np.allclose(J, numeric_jacobian(prob, f, 1e-2), rtol=1e-5,
                           atol=1e-7 * np.abs(J).max(initial=1.0))

    def test_rows_without_deviation_read_the_mean_part(self):
        # routes 0 and 2 carry no flow on links of their own: sigma = 0 there
        _, prob = compiled(parallel_links_network(n_links=3, demand=500.0))
        f = np.array([0.0, 500.0, 0.0])
        J = jacobian(prob, f)
        assert np.array_equal(J[[0, 2]], np.zeros((2, 3)))
        assert J[1, 1] > 0.0
        assert np.allclose(J, numeric_jacobian(prob, f, 1e-2), rtol=1e-5, atol=1e-12)

    def test_undegradable_links_leave_the_symmetric_mean_part(self):
        # theta = 1 everywhere: sigma = 0 on every route and psi = mu, a
        # gradient map, so J is symmetric
        _, prob = compiled(standin_network(theta=1.0))
        f = np.full(6, 4000.0 / 6)
        J = jacobian(prob, f)
        assert np.allclose(J, J.T, rtol=1e-14, atol=0.0)
        assert np.allclose(J, numeric_jacobian(prob, f, 1e-2), rtol=1e-6, atol=0.0)


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

    def test_meets_demand_when_flows_dwarf_it(self):
        # a threshold taken from the raw flows, 8192.675, carries the rounding
        # of 8193 and misses the demand by 2.2e-12 relative
        _, prob = compiled(od_network((2,), (0.65,)))
        assert np.array_equal(project(np.array([8193.0, 8193.0]), prob), [0.325, 0.325])

    def test_flows_beyond_rounding_of_the_demand(self):
        # 1e20 - 1 rounds to 1e20: from the raw flows no threshold qualifies
        _, prob = compiled(od_network((3,), (1.0,)))
        assert np.array_equal(project(np.array([1e20, 1e20, 0.0]), prob), [0.5, 0.5, 0.0])
        assert np.array_equal(project(np.array([-1e20, 3.0, 1e20]), prob), [0.0, 0.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_plain_loop(self, data):
        # explicit routes in any order within each OD pair
        counts = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        demands = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
                                     min_size=len(counts), max_size=len(counts)))
        net = od_network(counts, demands)
        routes = [(l.id,) for l in net.links]
        order = data.draw(st.permutations(range(len(routes))))
        net = replace(net, preset_routes=tuple(routes[i] for i in order))
        _, prob = compiled(net)
        y = np.array(data.draw(st.lists(st.floats(-1e4, 1e4), min_size=len(routes),
                                        max_size=len(routes))))
        assert np.array_equal(project(y, prob), reference_project(y, prob))

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
        F, mu, *_ = assemble_F(f, prob)
        assert np.allclose(F, route_costs(f, net, rs, P, PROFILE), rtol=1e-12)
        assert np.allclose(mu, route_moments(net, rs, link_flows(rs, f), P).mu,
                           rtol=1e-12)

    def test_zero_point(self):
        net = parallel_links_network(n_links=2, demand=500.0)
        rs, prob = compiled(net)
        F, mu, *_ = assemble_F(np.zeros(2), prob)
        assert np.allclose(F, route_costs(np.zeros(2), net, rs, P, PROFILE), rtol=1e-12)
        assert np.allclose(mu, [net.links[0].t0, net.links[1].t0], rtol=1e-12)

    def test_matches_route_costs_off_equilibrium(self):
        net = three_route_toy()
        rs, prob = compiled(net)
        f = np.array([700.0, 200.0, 100.0])
        F, mu, v, sigma = assemble_F(f, prob)
        assert np.allclose(F, route_costs(f, net, rs, P, PROFILE), rtol=1e-12)
        mom = route_moments(net, rs, link_flows(rs, f), P)
        assert np.allclose(mu, mom.mu, rtol=1e-12)
        assert np.array_equal(v, link_flows(rs, f))
        assert np.allclose(sigma, mom.sigma, rtol=1e-12)

    def test_dimension_mismatch(self):
        _, prob = compiled(parallel_links_network(n_links=2))
        with pytest.raises(ValueError):
            assemble_F(np.zeros(3), prob)


class TestNaturalResidual:
    def test_zero_at_fixed_point(self):
        _, prob = compiled(parallel_links_network(n_links=1, demand=500.0))
        u = np.array([500.0])
        F, *_ = assemble_F(u, prob)
        assert natural_residual(u, F, prob) == pytest.approx(0.0, abs=1e-14)

    def test_positive_at_origin(self):
        _, prob = compiled(parallel_links_network(n_links=2, demand=500.0))
        u = np.zeros(2)
        F, *_ = assemble_F(u, prob)
        assert natural_residual(u, F, prob) > 0.0

    def test_positive_off_equilibrium(self):
        # all demand on one of two identical routes: feasible, not Wardrop
        _, prob = compiled(parallel_links_network(n_links=2, demand=500.0))
        u = np.array([500.0, 0.0])
        F, *_ = assemble_F(u, prob)
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

    def test_with_risk_rejects_as_a_solve_does(self):
        # a compiled problem (c = 0) takes each c through the check a solve
        # runs, and the rejected c leaves it unchanged
        net = standin_network().with_uniform_theta(0.3)
        rs = build_route_set(net)
        prob = compile_problem(net, rs, P)
        with pytest.raises(DomainError) as solving:
            extragradient_solve(net, rs, P, RiskProfile(0.5, 1.0))
        with pytest.raises(DomainError) as setting:
            prob.with_risk(RiskProfile(0.5, 1.0))
        assert str(setting.value) == str(solving.value)
        assert prob.c == 0.0
        assert prob.with_risk(PROFILE).c == risk_coefficient(IndexKind.CMTT, PROFILE)

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
        assert res.converged and res.stop_reason == "converged"
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
        net = grid_network(3, seed=1)  # converges in 165 iterations
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE, SolverConfig(max_iter=5))
        assert not res.converged and res.stop_reason == "max_iter"
        assert res.iterations == 5
        assert len(res.residual_history) == 5

    def test_nonconverged_histories_end_at_f_star(self):
        net = grid_network(3, seed=1)
        rs, prob = compiled(net)
        res = extragradient_solve(net, rs, P, PROFILE, SolverConfig(max_iter=5))
        assert not res.converged
        F, mu, *_ = assemble_F(res.f_star, prob)
        assert np.array_equal(res.cmtt_per_route, F)
        assert res.residual_history[-1] == natural_residual(res.f_star, F, prob)
        assert res.antt_history[-1] == pytest.approx(
            res.f_star @ mu / net.total_demand(), rel=1e-12)

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

    def test_converged_certifies_the_wardrop_gap(self):
        # here the residual meets tol at iteration 5, the gap only at 6
        net = grid_network(3, seed=2)
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE)
        assert res.converged and res.wardrop_gap <= GAP_TOL
        assert wardrop_check(res, net, rs).passed
        # where the residual alone first met tol, the gap was still too wide
        tol = SolverConfig().tol
        first = int(np.argmax(res.residual_history <= tol))
        assert first < res.iterations - 1
        cut = extragradient_solve(net, rs, P, PROFILE, SolverConfig(max_iter=first + 1))
        assert cut.residual_history[-1] <= tol
        assert cut.wardrop_gap > GAP_TOL
        assert not cut.converged
        assert not wardrop_check(cut, net, rs).passed


class TestNewtonWarmStart:
    def test_step_on_a_singular_face_is_finite(self):
        # the stand-in's routes share links, so route flows are not unique and
        # the Jacobian on the used routes is singular at an equilibrium
        net = standin_network()
        rs, prob = compiled(net, RiskProfile(0.9, 0.6))
        u = extragradient_solve(net, rs, P, RiskProfile(0.9, 0.5)).f_star
        used = np.flatnonzero(u > 1e-4 * net.total_demand())
        J = jacobian(prob, u)[np.ix_(used, used)]
        assert np.linalg.matrix_rank(J) < used.size
        F, mu, *_ = assemble_F(u, prob)
        w = u - project(u - F, prob)
        u_new, at_new, w_new = _face_newton(u, F, w, jacobian(prob, u), prob)
        F_new = at_new[0]
        assert np.all(np.isfinite(u_new))
        assert rs.lambda_inc @ u_new == pytest.approx([net.total_demand()], rel=1e-12)
        assert natural_residual(u_new, F_new, prob) < natural_residual(u, F, prob)
        assert all(np.array_equal(a, b) for a, b in zip(at_new, assemble_F(u_new, prob)))
        assert np.array_equal(w_new, u_new - project(u_new - F_new, prob))

    def test_non_finite_system_is_not_solved(self):
        # at capacities this small psi is finite at the equal split but its
        # Jacobian overflows; LAPACK's least-squares solver raises or never
        # returns on NaN or inf input, so that try is skipped and not counted
        net = Network(tuple(Link(i, 1, 2, 10.0, 5.6e-39, 0.8) for i in (1, 2)),
                      (ODPair(1, 2, 4.0),))
        rs, prob = compiled(net)
        u = np.array([2.0, 2.0])
        with np.errstate(all="ignore"):
            F, *_ = assemble_F(u, prob)
            assert np.all(np.isfinite(F)) and not np.all(np.isfinite(jacobian(prob, u)))
            assert _face_newton(u, F, u - project(u - F, prob), jacobian(prob, u),
                                prob) is None
            res = extragradient_solve(net, rs, P, PROFILE, f0=u)
        assert res.converged and res.newton_tried == 0

    def test_step_that_does_not_help_is_dropped(self):
        # a start that meets tol but not START_MARGIN times over is tried;
        # with the narrow link's cost this flat the step overshoots, so it
        # does not lower the residual and the start point stays
        net = Network((Link(1, 1, 2, 10.0, 100.0, 0.8), Link(2, 1, 2, 10.0, 5000.0, 0.8)),
                      (ODPair(1, 2, 400.0),))
        rs, prob = compiled(net)
        u = np.array([1.0, 399.0])
        F, *_ = assemble_F(u, prob)
        cfg = SolverConfig(tol=1e-6)
        assert cfg.tol / START_MARGIN < natural_residual(u, F, prob) <= cfg.tol
        res = extragradient_solve(net, rs, P, PROFILE, cfg, f0=u)
        assert (res.newton_tried, res.newton_kept) == (1, 0)
        assert np.array_equal(res.f_star, u) and res.iterations == 1

    def test_final_start_makes_no_try(self):
        # an exact solution meets the stopping test with any margin: the
        # solve returns its projected start after F's one evaluation
        net = parallel_links_network(n_links=2, demand=2000.0)
        rs, prob = compiled(net)
        u = np.array([1000.0, 1000.0])
        F, *_ = assemble_F(u, prob)
        assert natural_residual(u, F, prob) == 0.0
        res = extragradient_solve(net, rs, P, PROFILE, f0=u)
        assert (res.iterations, res.newton_tried, res.f_evals) == (1, 0, 1)
        assert res.converged and res.stop_reason == "converged"
        assert np.array_equal(res.f_star, project(u, prob))
        assert res.residual_history.tolist() == [0.0]

    def test_cold_start_tries_at_iteration_0(self):
        # a cold solve tries a face-Newton step from the equal split at once
        net = standin_network()
        rs, prob = compiled(net)
        split = np.full(6, 4000.0 / 6)
        cold = extragradient_solve(net, rs, P, PROFILE, SolverConfig(max_iter=1))
        F, _, v, sigma = assemble_F(split, prob)
        w = split - project(split - F, prob)
        u_new = _face_newton(split, F, w, prob.jacobian(v, sigma), prob)[0]
        assert (cold.newton_tried, cold.newton_kept) == (1, 1)
        assert np.array_equal(cold.f_star, u_new)
        assert cold.residual_history[0] < natural_residual(split, F, prob)


class TestFaceNewtonSchedule:
    def test_kept_steps_lower_the_residual(self, monkeypatch):
        # every step a try evaluates is recorded with the residual before it;
        # a kept one is the iterate of its iteration, so its residual is in
        # the history, exactly as the candidate's was computed
        tries = []

        def recorded(u, Fu, w, J, prob):
            step = _face_newton(u, Fu, w, J, prob)
            if step is not None:
                tries.append((natural_residual(u, Fu, prob),
                              natural_residual(step[0], step[1][0], prob)))
            return step

        monkeypatch.setattr(cmte.solver, "_face_newton", recorded)
        rejected = 0
        for net in (standin_network(), grid_network(3, seed=1), TestTwoOdSolve.NET):
            tries.clear()
            res = extragradient_solve(net, build_route_set(net), P, PROFILE)
            assert res.converged and res.newton_tried == len(tries)
            kept = [(before, after) for before, after in tries
                    if after in res.residual_history]
            assert len(kept) == res.newton_kept > 0
            assert all(after < before for before, after in kept)
            rejected += res.newton_tried - res.newton_kept
        assert rejected > 0  # the back-off was exercised too

    @pytest.mark.parametrize("warm", [False, True])
    def test_f_evals_add_up(self, warm):
        # one F(u0), one F per Newton try, and per extra-gradient step its
        # backtracking trials and the F(u) of the step; an iteration takes a
        # step unless it is the last or its try was kept, and only a step
        # changes tau, so the steps are the changes in the step history
        net = grid_network(3, seed=1)
        rs = build_route_set(net)
        q = np.array([od.demand for od in net.od_pairs])
        split = rs.lambda_inc.T @ (q / rs.lambda_inc.sum(axis=1))
        f0 = split if warm else None
        res = extragradient_solve(net, rs, P, PROFILE, f0=f0)
        steps = np.count_nonzero(np.diff(res.step_history))
        trials = steps + res.backtracks
        assert res.f_evals == 1 + res.newton_tried + trials + steps
        kept_before_last = res.iterations - 1 - steps
        assert res.newton_kept - kept_before_last in (0, 1)
        assert res.newton_tried > res.newton_kept >= 1
        assert steps >= 1 and res.backtracks >= 1

    def test_warm_solve_tries_first(self):
        net = standin_network()
        rs = build_route_set(net)
        cold = extragradient_solve(net, rs, P, PROFILE, SolverConfig(max_iter=3))
        # another lambda's solution misses START_MARGIN, so it is tried
        other = extragradient_solve(net, rs, P, RiskProfile(0.9, 0.4)).f_star
        warm = extragradient_solve(net, rs, P, PROFILE, SolverConfig(max_iter=1),
                                   f0=other)
        assert cold.newton_tried == 3  # from the equal split on, each one kept
        assert warm.newton_tried == 1

    def test_rejected_try_takes_a_step(self):
        # the iteration of a rejected try evaluates its candidate, then the
        # extra-gradient trial point and step, and grows tau
        net = overshoot_network()
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE, SolverConfig(max_iter=2))
        assert (res.newton_tried, res.newton_kept, res.backtracks) == (1, 0, 0)
        assert res.f_evals == 1 + 1 + 2
        assert res.step_history[1] == res.step_history[0] * 1.1

    def test_kept_try_ends_its_iteration(self):
        # every try is kept, so the next iteration tries again and no
        # iteration evaluates a backtracking trial or takes a step
        net = standin_network()
        rs = build_route_set(net)
        res = extragradient_solve(net, rs, P, PROFILE, SolverConfig(max_iter=2))
        assert res.newton_tried == res.newton_kept == 2
        assert res.f_evals == 1 + 2 and res.backtracks == 0
        assert res.step_history[1] == res.step_history[0]


class TestWarmSolveWork:
    def test_a_compiled_warm_solve_derives_nothing_again(self, monkeypatch):
        # given the cell's compiled problem, a warm lambda solve reads its
        # link coefficients, and its one face-Newton try builds the Jacobian
        # from the link flows and sigma of F's evaluation at the iterate
        net = standin_network()
        rs = build_route_set(net)
        prob = compile_problem(net, rs, P)
        f0 = extragradient_solve(net, rs, P, RiskProfile(0.9, 0.4), problem=prob).f_star
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (cmte.solver, cmte.bpr):
            monkeypatch.setattr(module, "link_coefficients",
                                counted("link_coefficients", module.link_coefficients))
        monkeypatch.setattr(Problem, "jacobian", counted("jacobian", Problem.jacobian))
        monkeypatch.setattr(Problem, "link_flows", counted("link_flows", Problem.link_flows))
        res = extragradient_solve(net, rs, P, PROFILE, f0=f0, problem=prob)
        assert res.converged and res.iterations == 1
        assert res.newton_tried == res.newton_kept == 1
        assert calls == {"jacobian": 1, "link_flows": res.f_evals}

    def test_four_positional_call_matches_the_compiled_one(self):
        net = grid_network(3, seed=2)
        rs = build_route_set(net)
        prob = compile_problem(net, rs, P).with_risk(RiskProfile(0.9, 0.1))
        a = extragradient_solve(net, rs, P, PROFILE)
        b = extragradient_solve(net, rs, P, PROFILE, problem=prob)
        assert (a.iterations, a.f_evals, a.backtracks, a.newton_tried, a.newton_kept) == (
            b.iterations, b.f_evals, b.backtracks, b.newton_tried, b.newton_kept)
        assert np.array_equal(a.f_star, b.f_star)
        assert np.array_equal(a.residual_history, b.residual_history)

    def test_a_problem_compiled_from_other_inputs_is_refused(self):
        # a scaled-demand copy keeps the network's link tuple, so the
        # demands must be compared as well as the links
        net = standin_network()
        rs = build_route_set(net)
        prob = compile_problem(net, rs, P)
        other_links = net.with_uniform_theta(0.7)
        for args in ((net.with_scaled_demand(1.5), rs, P),
                     (other_links, rs, P),
                     (net, build_route_set(net), P),
                     (net, rs, BprParams(beta=0.2))):
            with pytest.raises(ValueError, match="not compiled from"):
                extragradient_solve(*args, PROFILE, problem=prob)
        assert extragradient_solve(net, rs, P, PROFILE, problem=prob).converged


class TestSolverError:
    def test_non_finite_iterate(self, monkeypatch):
        calls = []

        def poisoned(u, prob):
            calls.append(None)
            F, *rest = assemble_F(u, prob)
            return (F * np.nan, *rest) if len(calls) == 4 else (F, *rest)

        # after F(u0), the rejected Newton candidate and the trial point, the
        # 4th evaluation is F at the first accepted step
        monkeypatch.setattr(cmte.solver, "assemble_F", poisoned)
        net = overshoot_network()
        with pytest.raises(SolverError, match="iteration 1") as info:
            extragradient_solve(net, build_route_set(net), P, PROFILE)
        assert info.value.reason == "non_finite"
        assert len(info.value.residual_history) == 1

    def test_step_underflow(self, monkeypatch):
        # no step can pass the backtracking test with this acceptance factor
        monkeypatch.setattr(cmte.solver, "NU", 1e-300)
        net = overshoot_network()
        with pytest.raises(SolverError, match="underflow at iteration 0") as info:
            extragradient_solve(net, build_route_set(net), P, PROFILE)
        assert info.value.reason == "step_underflow"
        assert len(info.value.residual_history) == 1


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
