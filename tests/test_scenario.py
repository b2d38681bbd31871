import filecmp
from types import SimpleNamespace

import numpy as np
import pytest

from cmte.bpr import BprParams, route_moments
from cmte.indices import RiskProfile
from cmte.network import build_route_set, link_flows
from cmte.presets import standin_network, three_route_toy
import cmte.scenario
from cmte.scenario import (Scenario, ScenarioError, SweepResult, antt,
                           emit_results, run_scenario)
from cmte.solver import SolverConfig, extragradient_solve, route_costs, wardrop_check

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


class TestAntt:
    def test_single_route(self):
        net = three_route_toy()
        rs = build_route_set(net)
        f = np.array([1000.0, 0.0, 0.0])
        mom = route_moments(net, rs, link_flows(rs, f), BprParams())
        assert antt(f, rs, mom, 1000.0) == pytest.approx(mom.mu[0])

    def test_equal_flows_average(self):
        net = three_route_toy()
        rs = build_route_set(net)

        class FakeMoments:
            mu = np.array([10.0, 20.0, 30.0])

        f = np.array([500.0, 500.0, 0.0])
        assert antt(f, rs, FakeMoments(), 1000.0) == pytest.approx(15.0)

    def test_zero_demand_guard(self):
        net = three_route_toy()
        rs = build_route_set(net)
        mom = route_moments(net, rs, np.zeros(3), BprParams())
        with pytest.raises(ZeroDivisionError):
            antt(np.zeros(3), rs, mom, 0.0)


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
        # the route form from the link means, against the independent route
        # moments at the row's flows
        net = three_route_toy()
        rs = build_route_set(net)
        row = run_scenario(net, Scenario(solver=FAST_SOLVER)).rows[0]
        point = net.with_uniform_theta(row.theta).with_scaled_demand(
            row.demand / net.total_demand())
        mom = route_moments(point, rs, link_flows(rs, row.flows), BprParams())
        assert row.antt == pytest.approx(antt(row.flows, rs, mom, row.demand), rel=1e-12)

    def test_antt_cross_check_catches_broken_flow_conservation(self, monkeypatch):
        # link flows that do not belong to the route flows split the two forms
        monkeypatch.setattr(cmte.scenario, "link_flows", lambda rs, f: 1.1 * (rs.delta @ f))
        with pytest.raises(RuntimeError, match="ANTT cross-check"):
            run_scenario(three_route_toy(), Scenario(solver=FAST_SOLVER))


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
            mom = route_moments(point, rs, link_flows(rs, cold.f_star), BprParams())
            assert row.antt == pytest.approx(antt(cold.f_star, rs, mom, self.DEMAND),
                                             rel=1e-3)
        assert sum(r.iterations for r in warm) < cold_iterations

    def test_warm_rows_converge_after_the_newton_step(self):
        rows = self.cell((self.THETA,))
        for row in rows[1:]:
            assert row.converged and row.wardrop_ok
            assert row.iterations <= 3


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
