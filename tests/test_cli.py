import json
import threading
import warnings

import numpy as np
import pytest

from cmte.cli import main
from cmte.presets import standin_network_text, three_route_toy


@pytest.fixture
def toy_net(tmp_path):
    path = tmp_path / "toy.net"
    path.write_text("[links]\n"
                    "1 1 2 10 500 0.8\n"
                    "2 1 2 12 600 0.8\n"
                    "3 1 2 15 700 0.8\n"
                    "[od]\n"
                    "1 2 1000\n")
    return path


@pytest.fixture
def overshoot_net(tmp_path):
    # the face-Newton try from the equal split overshoots and is rejected, so
    # iteration 0 takes an extra-gradient step; converges in 34 iterations
    path = tmp_path / "overshoot.net"
    path.write_text("[links]\n"
                    "1 1 2 1 1000 0.8\n"
                    "2 1 2 20 10000 0.8\n"
                    "[od]\n"
                    "1 2 4000\n")
    return path


@pytest.fixture
def standin_net(tmp_path):
    path = tmp_path / "standin.net"
    path.write_text(standin_network_text())
    return path


def test_solve_exit_ok(toy_net, capsys):
    assert main(["solve", "--network", str(toy_net)]) == 0
    out = capsys.readouterr().out
    assert "converged=True" in out


def test_solve_writes_outputs(toy_net, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--network", str(toy_net), "--out", str(out)]) == 0
    assert (out / "results.tsv").exists()


def test_solve_nonconvergence_exit_code(overshoot_net):
    assert main(["solve", "--network", str(overshoot_net), "--max-iter", "2"]) == 2


def test_solver_breakdown_exit_code(overshoot_net, capsys, monkeypatch):
    # no step can pass the backtracking test with this acceptance factor
    monkeypatch.setattr("cmte.solver.NU", 1e-300)
    assert main(["solve", "--network", str(overshoot_net)]) == 2
    assert "solver error (step_underflow): step size underflow" in capsys.readouterr().err


@pytest.mark.parametrize("max_iter", ["0", "-3"])
def test_max_iter_below_one_exit_code(toy_net, capsys, max_iter):
    assert main(["solve", "--network", str(toy_net), "--max-iter", max_iter]) == 1
    assert "config error: max_iter must be >= 1" in capsys.readouterr().err


def test_non_monotone_point_exit_code(standin_net, tmp_path, capsys):
    # heavy degradation with an optimistic index is outside the model's domain
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"alpha": 0.5, "lambda_grid": [1.0], "theta_grid": [0.3]}))
    assert main(["solve", "--network", str(standin_net), "--scenario", str(sc)]) == 1
    assert "not monotone on link" in capsys.readouterr().err


def test_sweep_with_scenario(toy_net, tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"lambda_grid": [0.0, 0.5, 1.0],
                              "demand_grid": [500, 800], "theta_grid": [0.8]}))
    out = tmp_path / "sweep_out"
    code = main(["sweep", "--network", str(toy_net), "--scenario", str(sc),
                 "--out", str(out)])
    assert code == 0
    lines = (out / "results.tsv").read_text().splitlines()
    assert len(lines) == 1 + 6


def test_sweep_determinism(toy_net, tmp_path):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"lambda_grid": [0.0, 1.0], "demand_grid": [500],
                              "theta_grid": [0.8]}))
    for name in ("a", "b"):
        assert main(["sweep", "--network", str(toy_net), "--scenario", str(sc),
                     "--out", str(tmp_path / name)]) == 0
    a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert [x.read_bytes() for x in a] == [x.read_bytes() for x in b]


def test_verify(toy_net, tmp_path, capsys):
    out = tmp_path / "verify_out"
    code = main(["verify", "--network", str(toy_net), "--out", str(out),
                 "--seed", "0", "--samples", "100000"])
    assert code == 0
    report = (out / "oracle_report.tsv").read_text()
    assert "pass" in report and "fail" not in report.replace("pass/fail", "")


def test_verify_rejects_a_negative_seed(toy_net, capsys):
    assert main(["verify", "--network", str(toy_net), "--seed", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: seed")


def test_verify_out_of_memory_is_a_config_error(toy_net, capsys, monkeypatch):
    # the report allocates its sample buffers before any thread starts; a
    # sample count that does not fit fails there with one line, no traceback
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if np.prod(shape) > 10 ** 9:
            raise MemoryError("no room")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    threads = threading.active_count()
    assert main(["verify", "--network", str(toy_net), "--samples", "1000000000000"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "1000000000000" in err[0] and "Traceback" not in captured.err
    assert captured.out == ""
    assert threading.active_count() == threads


def test_routes(standin_net, capsys):
    assert main(["routes", "--network", str(standin_net)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("route\t")
    assert len(out) == 1 + 6


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("[links]\n1 1 2 10 1000 0\n[od]\n1 2 100\n")  # theta = 0
    assert main(["solve", "--network", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_routeless_od_exit_code(tmp_path, capsys):
    net = tmp_path / "routeless.net"
    net.write_text("[links]\n1 1 2 10 1000 0.8\n2 1 2 12 1000 0.8\n3 3 2 10 1000 0.8\n"
                   "[od]\n1 2 500\n3 2 400\n[routes]\n1\n2\n")
    assert main(["solve", "--network", str(net)]) == 1
    assert "no route" in capsys.readouterr().err


def test_od_listed_twice_with_explicit_routes_solves(tmp_path, capsys):
    net = tmp_path / "twice.net"
    net.write_text("[links]\n1 1 2 10 1000 0.8\n2 1 2 12 1000 0.8\n"
                   "[od]\n1 2 500\n1 2 300\n[routes]\n1\n2\n")
    assert main(["solve", "--network", str(net)]) == 0
    assert "converged=True" in capsys.readouterr().out


def test_route_with_missing_link_exit_code(tmp_path, capsys):
    net = tmp_path / "missing_link.net"
    net.write_text("[links]\n1 1 2 10 1000 0.8\n2 1 2 12 1000 0.8\n"
                   "[od]\n1 2 500\n[routes]\n1\n7\n")
    assert main(["solve", "--network", str(net)]) == 1
    assert "names link 7" in capsys.readouterr().err


@pytest.mark.parametrize("links, od, routes, reason", [
    ("1 1 2\n2 2 3\n3 3 4\n", "1 4", "1 2 3\n1 3\n", "route (1, 3) is not contiguous"),
    ("1 1 2\n2 2 1\n3 1 3\n", "1 3", "3\n1 2 3\n", "route (1, 2, 3) repeats a node"),
    ("1 1 2\n2 2 3\n", "1 3", "1 2\n1\n",
     "explicit route (1,) connects 1->2, not a listed OD pair"),
], ids=["gap", "repeated_node", "unlisted_end_nodes"])
def test_bad_explicit_route_exit_code(tmp_path, capsys, links, od, routes, reason):
    net = tmp_path / "bad_route.net"
    rows = "".join(f"{row} 10 1000 0.8\n" for row in links.splitlines())
    net.write_text(f"[links]\n{rows}[od]\n{od} 500\n[routes]\n{routes}")
    assert main(["solve", "--network", str(net)]) == 1
    assert capsys.readouterr().err == f"config error: {reason}\n"


def test_od_to_itself_exit_code(tmp_path, capsys):
    net = tmp_path / "loop_od.net"
    net.write_text("[links]\n1 1 2 10 1000 0.8\n[od]\n1 1 100\n")
    assert main(["solve", "--network", str(net)]) == 1
    assert "origin and destination must differ" in capsys.readouterr().err


def test_bad_scenario_exit_code(toy_net, tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text('{"lambda_grid": []}')
    assert main(["solve", "--network", str(toy_net), "--scenario", str(sc)]) == 1


def test_unknown_solver_key_exit_code(toy_net, tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text('{"solver": {"nu": 0.9}}')
    assert main(["solve", "--network", str(toy_net), "--scenario", str(sc)]) == 1
    assert "config error" in capsys.readouterr().err


def test_non_finite_coefficients_exit_code(tmp_path, capsys):
    net = tmp_path / "tiny_cap.net"
    net.write_text("[links]\n1 1 2 10 1e-80 0.8\n2 1 2 12 600 0.8\n[od]\n1 2 1000\n")
    assert main(["solve", "--network", str(net)]) == 1
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_underflowing_capacity_is_a_config_error(tmp_path, capsys, command):
    # 1e-300 ** 4 underflows to 0, so the coefficients divide by zero: both
    # commands stop at them with one line, verify before it samples, where
    # it once printed NaN closed forms and failed claims
    net = tmp_path / "tiny_cap.net"
    net.write_text("[links]\n1 1 2 10 1e-300 0.8\n2 1 2 12 1000 0.8\n[od]\n1 2 400\n")
    argv = [command, "--network", str(net)]
    if command == "verify":
        argv += ["--samples", "10000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ("config error: moment coefficients of link 1 are not finite: "
                            "t0 10, mean inf, variance inf\n")
    assert captured.out == ""


_TOY_LINKS = "[links]\n1 1 2 10 500 0.8\n2 1 2 12 600 0.8\n"


@pytest.mark.parametrize("command, links, demand, scenario, reason", [
    ("solve", _TOY_LINKS, "1000", {"solver": {"max_iter": 1.5}}, "max_iter must be an integer"),
    ("solve", _TOY_LINKS, "1000", {"bpr": {"n": 520}}, "n = 520 is too large"),
    ("solve", _TOY_LINKS, "nan", None, "demand must be finite"),
    ("solve", _TOY_LINKS, "inf", None, "demand must be finite"),
    ("solve", _TOY_LINKS, "1000", {"demand_grid": [float("nan")]}, "demand values must be finite"),
    ("solve", _TOY_LINKS, "1000", {"demand_grid": ["inf"]}, "demand values must be finite"),
    ("solve", _TOY_LINKS, "1000", {"solver": {"tol": float("nan")}}, "tol must be finite"),
    ("routes", "[links]\n1 1 2 nan 500 0.8\n", "1000", None, "t0 must be finite"),
], ids=["fractional_max_iter", "overflowing_n", "nan_od_demand", "inf_od_demand",
        "nan_grid_demand", "inf_grid_demand", "nan_tol", "nan_t0"])
def test_non_finite_or_non_integer_input_is_a_config_error(
        tmp_path, capsys, command, links, demand, scenario, reason):
    # each was accepted by its validator and ended in a traceback, a numpy
    # warning, a wrong reason or a silent NaN; no warning may escape now
    net = tmp_path / "in.net"
    net.write_text(f"{links}[od]\n1 2 {demand}\n")
    argv = [command, "--network", str(net)]
    if scenario is not None:
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(scenario))  # float("nan") is written as NaN
        argv += ["--scenario", str(sc)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and reason in err
    assert "Traceback" not in err


def test_missing_network_is_io_error(tmp_path, capsys):
    code = main(["solve", "--network", str(tmp_path / "nope.net")])
    assert code == 3
