import dataclasses
import filecmp
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmte.bpr import BprParams, link_moments_vector, route_moments
from cmte.indices import RiskProfile
from cmte.network import Link, Network, ODPair, build_route_set, link_flows
from cmte.presets import standin_network, three_route_toy
import cmte.bpr
import cmte.scenario
import cmte.solver
from cmte.scenario import Scenario, ScenarioError, SweepResult, emit_results, run_scenario
from cmte.solver import (DomainError, SolverConfig, SolverError, extragradient_solve,
                         route_costs, wardrop_check)

FAST_SOLVER = SolverConfig(tol=1e-4, max_iter=10_000)


class TestScenarioConfig:
    def test_defaults(self):
        sc = Scenario()
        assert sc.alpha == 0.9
        assert sc.bpr.beta == 0.15

    def test_empty_grid_rejected(self):
        with pytest.raises(ScenarioError, match="lambda_grid"):
            Scenario(lambda_grid=())

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=1.0), dict(lambda_grid=(1.5,)), dict(demand_grid=(0.0,)),
        dict(theta_grid=(0.0,))])
    def test_invalid_values(self, kwargs):
        with pytest.raises(ScenarioError):
            Scenario(**kwargs)

    def test_from_json(self):
        sc = Scenario.from_json(
            '{"alpha": 0.9, "lambda_grid": [0.0, 0.5, 1.0], '
            '"demand_grid": [3000, 4000], "theta_grid": [0.8], '
            '"bpr": {"beta": 0.15, "n": 4}, "solver": {"tol": 1e-4}}')
        assert sc.lambda_grid == (0.0, 0.5, 1.0)
        assert sc.solver.tol == 1e-4

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ScenarioError, match="unknown"):
            Scenario.from_json('{"alphas": 0.9}')

    def test_from_json_rejects_unknown_solver_keys(self):
        # the backtracking constants are not settings
        with pytest.raises(ScenarioError, match="nu"):
            Scenario.from_json('{"solver": {"nu": 0.9}}')

    def test_from_json_rejects_max_iter_below_one(self):
        with pytest.raises(ScenarioError, match="max_iter"):
            Scenario.from_json('{"solver": {"max_iter": 0}}')

    def test_from_json_rejects_bad_json(self):
        with pytest.raises(ScenarioError):
            Scenario.from_json("not json")


class TestRunScenario:
    def test_single_point(self):
        sc = Scenario(solver=FAST_SOLVER)
        res = run_scenario(standin_network(), sc)
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row.converged
        assert row.residual <= 1e-4
        assert row.wardrop_ok
        assert row.antt > 0

    def test_grid_row_counts(self):
        sc = Scenario(lambda_grid=(0.0, 0.5, 1.0), demand_grid=(3000.0, 4000.0),
                      theta_grid=(0.8,), solver=FAST_SOLVER)
        res = run_scenario(three_route_toy(demand=4000.0), sc)
        assert len(res.rows) == 6

    def test_row_order_theta_then_demand_then_lambda(self):
        sc = Scenario(lambda_grid=(0.0, 1.0), demand_grid=(500.0, 800.0),
                      theta_grid=(0.7, 0.9), solver=FAST_SOLVER)
        res = run_scenario(three_route_toy(), sc)
        keys = [(r.theta, r.demand, r.lam) for r in res.rows]
        assert keys == sorted(keys)

    def test_demand_scaling(self):
        sc = Scenario(demand_grid=(500.0,), solver=FAST_SOLVER)
        res = run_scenario(three_route_toy(demand=1000.0), sc)
        assert res.rows[0].flows.sum() == pytest.approx(500.0, rel=1e-3)

    def test_antt_forms_agree(self):
        # the solve's ANTT, against the route and link forms from the
        # independent moments at the row's flows
        net = three_route_toy()
        row = run_scenario(net, Scenario(solver=FAST_SOLVER)).rows[0]
        point = net.with_uniform_theta(row.theta).with_scaled_demand(
            row.demand / net.total_demand())
        assert_antt_forms_agree(row, point, build_route_set(net), BprParams())


class TestContinuation:
    LAMBDAS = tuple(round(0.1 * i, 1) for i in range(11))
    THETA, DEMAND = 0.8, 4000.0

    def cell(self, thetas):
        sc = Scenario(lambda_grid=self.LAMBDAS, demand_grid=(self.DEMAND,),
                      theta_grid=thetas, solver=FAST_SOLVER)
        return [r for r in run_scenario(standin_network(), sc).rows
                if r.theta == self.THETA]

    def test_cell_rows_independent_of_other_cells(self):
        alone = self.cell((self.THETA,))
        beside = self.cell((0.7, self.THETA))  # another cell is swept first
        assert len(alone) == len(beside) == len(self.LAMBDAS)
        for a, b in zip(alone, beside):
            assert a.iterations == b.iterations
            assert a.antt == b.antt
            assert np.array_equal(a.flows, b.flows)
            assert np.array_equal(a.residual_history, b.residual_history)

    def test_warm_rows_match_cold_solves_at_lower_cost(self):
        base = standin_network()
        point = base.with_uniform_theta(self.THETA).with_scaled_demand(
            self.DEMAND / base.total_demand())
        rs = build_route_set(point)
        warm = self.cell((self.THETA,))
        cold_iterations = 0
        for row in warm:
            profile = RiskProfile(0.9, row.lam)
            cold = extragradient_solve(point, rs, BprParams(), profile, FAST_SOLVER)
            assert cold.converged and row.converged and row.wardrop_ok
            cold_iterations += cold.iterations
            psi = route_costs(row.flows, point, rs, BprParams(), profile)
            at_row = SimpleNamespace(f_star=row.flows, cmtt_per_route=psi)
            assert wardrop_check(at_row, point, rs, rel_tol=1e-3).passed
            assert row.antt == pytest.approx(cold.antt_history[-1], rel=1e-3)
        assert sum(r.iterations for r in warm) < cold_iterations

    def test_cell_computes_link_coefficients_once(self, monkeypatch):
        # two cells: each compiles its problem once, and its rows derive nothing
        calls = []
        compute = cmte.bpr.link_coefficients

        def counted(*args):
            calls.append(args)
            return compute(*args)

        for module in (cmte.solver, cmte.bpr):
            monkeypatch.setattr(module, "link_coefficients", counted)
        assert len(self.cell((0.7, self.THETA))) == len(self.LAMBDAS)
        assert len(calls) == 2

    @pytest.mark.parametrize("lambdas", [(0.0, 0.5, 0.2), (1.0, 0.9, 0.5),
                                         (0.5, 0.6, 0.6), (0.5, 0.5, 0.6)],
                             ids=["step_back", "step_widens", "repeat", "repeat_first"])
    def test_start_falls_back_to_the_last_flows(self, lambdas):
        # a step back (unsorted), a step wider than the last (here descending)
        # or a repeated lambda starts from the last converged flows; an evenly
        # spaced series starts from the secant
        def starts(lambdas):
            sc = Scenario(lambda_grid=lambdas, demand_grid=(self.DEMAND,),
                          theta_grid=(self.THETA,), solver=FAST_SOLVER)
            results, rows, err = recorded_sweep(standin_network(), sc, f0s)
            assert err is None and all(r.converged for r in results)
            return results

        f0s = []
        results = starts(lambdas)
        assert f0s[0] is None
        assert np.array_equal(f0s[1], results[0].f_star)
        assert np.array_equal(f0s[2], results[1].f_star)
        f0s.clear()
        results = starts((0.4, 0.5, 0.6))
        f_a, f_b = results[0].f_star, results[1].f_star
        assert f0s[2] == pytest.approx(2 * f_b - f_a, rel=1e-12)

    def test_warm_rows_converge_after_the_newton_step(self):
        rows = self.cell((self.THETA,))
        for row in rows[1:]:
            assert row.converged and row.wardrop_ok
            assert row.iterations <= 3


def recorded_sweep(net, sc, f0s=None):
    """``run_scenario``'s solve results in order, its rows (None if a
    solve raised DomainError or SolverError) and that error; each solve's
    start is appended to f0s if given."""
    results = []
    solve = cmte.scenario.extragradient_solve

    def recording(*args, **kwargs):
        if f0s is not None:
            f0s.append(kwargs["f0"])
        results.append(solve(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cmte.scenario, "extragradient_solve", recording)
        try:
            return results, run_scenario(net, sc).rows, None
        except (DomainError, SolverError) as exc:
            return results, None, exc


def fresh_chain(net, sc):
    """The solves of ``run_scenario`` in order, each compiling its own
    problem; and the DomainError or SolverError that ended them, if one
    did.  A cell's first solve starts cold, and each later one from the
    cell's last two converged solves (lam_a, f_a), (lam_b, f_b): from the
    secant f_b + r (f_b - f_a), r = (lam - lam_b) / (lam_b - lam_a), when
    0 < r <= 1 (up to rounding of the lambda differences), else from f_b."""
    rs = build_route_set(net)
    results = []
    for theta in sc.theta_grid:
        for q in sc.demand_grid:
            point = net.with_uniform_theta(theta).with_scaled_demand(
                q / net.total_demand())
            converged = []
            for lam in sc.lambda_grid:
                f0 = converged[-1][1] if converged else None
                if len(converged) >= 2 and converged[-2][0] != converged[-1][0]:
                    (lam_a, f_a), (lam_b, f_b) = converged[-2:]
                    r = (lam - lam_b) / (lam_b - lam_a)
                    if 0.0 < r <= 1.0 + 1e-9:
                        f0 = f_b + r * (f_b - f_a)
                try:
                    res = extragradient_solve(point, rs, sc.bpr, RiskProfile(sc.alpha, lam),
                                              sc.solver, f0=f0)
                except (DomainError, SolverError) as exc:
                    return results, exc
                results.append(res)
                if res.converged:
                    converged.append((lam, res.f_star))
    return results, None


def assert_antt_forms_agree(row, point, rs, p):
    """The row's ANTT is the route form sum_k f_k mu_k / sum_od q and the
    link form sum_a v_a E[T_a] / sum_od q at its flows, to rounding."""
    v = link_flows(rs, row.flows)
    route_form = row.flows @ route_moments(point, rs, v, p).mu / point.total_demand()
    link_form = v @ link_moments_vector(point, v, p)[0] / point.total_demand()
    assert route_form == pytest.approx(row.antt, rel=1e-12, abs=0.0)
    assert link_form == pytest.approx(row.antt, rel=1e-12, abs=0.0)


def assert_reuse_matches_fresh(net, sc):
    """Each sweep solve equals the solve that compiles its own problem, and
    each row reads its ANTT and Wardrop verdict off that solve."""
    results, rows, err = recorded_sweep(net, sc)
    fresh, fresh_err = fresh_chain(net, sc)
    assert len(results) == len(fresh)
    for a, b in zip(results, fresh):  # flows, psi, histories and every counter
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name
    assert type(err) is type(fresh_err) and str(err) == str(fresh_err)
    if rows is not None:
        rs = build_route_set(net)
        for row, b in zip(rows, fresh, strict=True):
            assert (row.iterations, row.converged) == (b.iterations, b.converged)
            for x, y in ((row.flows, b.f_star), (row.psi, b.cmtt_per_route),
                         (row.residual_history, b.residual_history),
                         (row.antt_history, b.antt_history),
                         (row.step_history, b.step_history)):
                assert np.array_equal(x, y)
            point = net.with_uniform_theta(row.theta).with_scaled_demand(
                row.demand / net.total_demand())
            assert row.antt == b.antt_history[-1]
            # a converged solve passes wardrop_check; a row that did not
            # converge reads False whatever the check says
            assert row.wardrop_ok == b.converged
            assert wardrop_check(b, point, rs).passed or not b.converged
            assert_antt_forms_agree(row, point, rs, sc.bpr)
    return results, err


# a small acyclic network from node 1 to node 4: links 1->2 and 2->4 always,
# each other arc (or a parallel copy) when drawn; the sweep sets theta
_ARCS = ((1, 2), (2, 4), (1, 3), (3, 4), (2, 3), (1, 4), (1, 2), (3, 4))
_LINK_DATA = st.tuples(st.booleans(), st.floats(1.0, 20.0), st.floats(100.0, 2000.0))


class TestCompiledOnce:
    """A cell compiles its problem once and sets c per lambda; every row
    must equal the solve that compiles its own."""

    def test_standin_cells(self):
        sc = Scenario(lambda_grid=TestContinuation.LAMBDAS, demand_grid=(3000.0, 6000.0),
                      theta_grid=(0.6, 0.9), solver=FAST_SOLVER)
        results, err = assert_reuse_matches_fresh(standin_network(), sc)
        assert err is None and len(results) == 44

    def test_domain_break_at_the_same_lambda(self):
        # alpha 0.6 and theta 0.1: c < 0 once lambda > alpha, and the mean
        # coefficient stops covering |c| times the deviation one at 0.8
        sc = Scenario(alpha=0.6, lambda_grid=(0.5, 0.6, 0.7, 0.8, 0.9),
                      demand_grid=(4000.0,), theta_grid=(0.1,), solver=FAST_SOLVER)
        results, err = assert_reuse_matches_fresh(standin_network(), sc)
        assert isinstance(err, DomainError) and "not monotone" in str(err)
        assert len(results) == 3

    @settings(max_examples=25, deadline=None)
    @given(links=st.lists(_LINK_DATA, min_size=len(_ARCS), max_size=len(_ARCS)),
           demand=st.floats(100.0, 3000.0), second_od=st.floats(0.0, 1000.0),
           alpha=st.sampled_from([0.6, 0.9]),
           lambdas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           thetas=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=2))
    def test_small_networks(self, links, demand, second_od, alpha, lambdas, thetas):
        net = Network(tuple(Link(i + 1, tail, head, t0, cap, 1.0)
                            for i, ((tail, head), (drawn, t0, cap))
                            in enumerate(zip(_ARCS, links)) if i < 2 or drawn),
                      (ODPair(1, 4, demand), ODPair(2, 4, second_od)))
        sc = Scenario(alpha=alpha, lambda_grid=tuple(sorted(lambdas)),
                      demand_grid=(demand,), theta_grid=tuple(thetas),
                      solver=SolverConfig(max_iter=500))
        assert_reuse_matches_fresh(net, sc)


class TestEmitResults:
    def _small_sweep(self):
        sc = Scenario(lambda_grid=(0.0, 0.5, 1.0), demand_grid=(500.0, 800.0),
                      theta_grid=(0.8,), solver=FAST_SOLVER)
        return run_scenario(three_route_toy(), sc)

    def test_file_layout(self, tmp_path):
        res = self._small_sweep()
        written = emit_results(res, tmp_path / "out")
        names = {p.relative_to(tmp_path / "out").as_posix() for p in written}
        assert "results.tsv" in names
        assert sum(1 for n in names if n.startswith("convergence/")) == 6
        series = [n for n in names if n.startswith("series/")]
        assert len(series) == 2  # one ANTT-vs-lambda series per demand level

    def test_results_header_and_rows(self, tmp_path):
        res = self._small_sweep()
        emit_results(res, tmp_path / "out")
        lines = (tmp_path / "out" / "results.tsv").read_text().splitlines()
        assert lines[0].startswith("lambda\tdemand\ttheta\tantt")
        assert len(lines) == 1 + 6

    def test_rerun_byte_identical(self, tmp_path):
        res1 = self._small_sweep()
        res2 = self._small_sweep()
        emit_results(res1, tmp_path / "a")
        emit_results(res2, tmp_path / "b")
        a_files = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        b_files = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert [p.name for p in a_files] == [p.name for p in b_files]
        for pa, pb in zip(a_files, b_files):
            assert pa.read_bytes() == pb.read_bytes()
