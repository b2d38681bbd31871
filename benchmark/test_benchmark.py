"""Smoke-size checks of the benchmark itself; the whole file runs in seconds.

Run from the repository root: ``python3 -m pytest -q benchmark``.
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from inputs import ROOT, use_checkout_source

use_checkout_source()

import cmte.scenario  # noqa: E402
import cmte.solver  # noqa: E402
import hooks  # noqa: E402
from run import measure  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402
from workloads import Tally  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["standin-sweep", "grid", "verify"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result, _ = measure(workload, 0, 1.0, trace, smoke=True, out_dir=tmp_path)
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs}
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if not trace:
        # At smoke size only verify has more than ten operations, so a tail.
        assert (values.pop("solve_s_tail") is None) == (workload != "verify")
        assert all(v > 0 for v in values.values())
    assert all(isinstance(v, (int, float)) for v in values.values())
    assert result["correct"] and result["attempted"] >= 1


def _perturbed(solve):
    def wrapper(*args, **kwargs):
        res = solve(*args, **kwargs)
        f = res.f_star.copy()
        shift = 0.05 * f[0]
        f[0] -= shift
        f[-1] += shift
        return dataclasses.replace(res, f_star=f)
    return wrapper


def _one_route_dropped(build):
    def wrapper(net, *args, **kwargs):
        rs = build(net, *args, **kwargs)
        kept = tuple(r.link_ids for r in rs.routes[:-1])
        return build(dataclasses.replace(net, preset_routes=kept))
    return wrapper


@pytest.mark.parametrize("workload, module, attr, corrupt", [
    ("standin-sweep", cmte.scenario, "extragradient_solve", _perturbed),
    ("standin-sweep", cmte.scenario, "build_route_set", _one_route_dropped),
    ("grid", cmte.solver, "extragradient_solve", _perturbed),
])
def test_corrupted_output_counts_as_failed(workload, module, attr, corrupt, monkeypatch,
                                           tmp_path):
    intact, _ = measure(workload, 0, 1.0, False, smoke=True, out_dir=tmp_path)
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    result, lines = measure(workload, 0, 1.0, False, smoke=True, out_dir=tmp_path)
    assert intact["correct"] and not result["correct"]
    assert any(line.startswith("  BREAKS ") for line in lines)
    assert result["failed"] == result["attempted"] == intact["attempted"] >= 1
    # Every grid solve already fails the Wardrop check (a known defect), so
    # on grid only the verdict can show the corruption.
    assert result["failed"] > intact["failed"] or workload == "grid"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_at_a_fixed_seed(workload, tmp_path):
    counts = ("solver.iterations", "solver.F_evals", "network.routes",
              "montecarlo.claims_failed")
    runs = [measure(workload, 3, 1.0, True, smoke=True, out_dir=tmp_path)[0]
            for _ in range(2)]
    assert [[r["metrics"][c]["value"] for c in counts] for r in runs] == [
        [runs[0]["metrics"][c]["value"] for c in counts]] * 2


def test_a_name_the_package_lacks_reads_as_none(monkeypatch, tmp_path):
    # As after assemble_F(f, pi) is replaced: its metrics read None, the
    # run goes on, and a hooked name missing from the package is skipped.
    monkeypatch.delitem(hooks.LAYER_HOOKS, "solver.assemble_F")
    monkeypatch.setitem(hooks.LAYER_HOOKS, "solver.no_such_function", None)
    result, lines = measure("grid", 0, 1.0, True, smoke=True, out_dir=tmp_path)
    assert "absent from the package: solver.no_such_function" in lines
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["solver.F_evals"] is None and metrics["solver.backtracks"] is None
    assert metrics["solver.moments_per_F"] is None
    assert metrics["solver.iterations"] > 0 and result["correct"]


def test_claims_outside_three_se_fail_without_breaking(tmp_path):
    result, lines = measure("verify", 0, 1.0, False, smoke=True, out_dir=tmp_path)
    failures = lines[lines.index(next(line for line in lines
                                      if line.startswith("failures ("))) + 1:]
    assert result["correct"] and result["attempted"] == 162
    assert len(failures) == result["failed"]
    assert not any(line.startswith("  BREAKS ") for line in failures)


def test_calibration_scales_by_the_mean_and_stays_out_of_wall_times():
    assert Speed(samples=[0.002, 0.006]).scale() == pytest.approx(REFERENCE_S / 0.004)
    tally = Tally()
    spent, start = tally.speed.spent, time.perf_counter()
    tally.speed.sample()
    assert 0.0 <= tally.unit_time(start, spent) < tally.speed.samples[-1]
