"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 benchmark/run.py --workload standin-sweep --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs the three workloads in turn and ends with one
such object per workload, keyed by name.
The lines before it repeat every metric by name and unit, with sample
counts and the failures found.  End-to-end times are in reference
seconds: scaled by the host's speed as calibration tasks run between the
operations measured it (see ``speed.py``; on ``verify`` only set-ups are
scaled).  See README.md for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

from inputs import ROOT, use_checkout_source
from speed import REFERENCE_S

END_TO_END = {"setup_s": "s", "wall_s": "s", "solve_s_p50": "s", "solve_s_tail": "s",
              "peak_rss_mb": "MB"}
MODULES = ("bpr", "cli", "indices", "montecarlo", "network", "presets", "scenario",
           "solver")
PER_LAYER = {
    "solver.iterations": "count", "solver.F_evals": "count",
    "solver.backtracks": "count", "solver.step_accept_ratio": "ratio",
    "solver.moments_per_F": "ratio", "solver.assemble_F_self_s": "s",
    "solver.project_s": "s", "solver.natural_residual_s": "s",
    "solver.wardrop_check_s": "s",
    "bpr.route_moments_s": "s", "bpr.link_moments_vector_s": "s",
    "bpr.route_moments_calls": "count",
    "indices.risk_coefficient_calls": "count",
    "network.load_network_s": "s", "network.build_route_set_s": "s",
    "network.link_flows_s": "s", "network.routes": "count", "network.links": "count",
    "scenario.run_scenario_self_s": "s", "scenario.emit_results_s": "s",
    "scenario.bytes_written": "bytes",
    "montecarlo.mc_link_moments_s": "s", "montecarlo.mc_tail_means_s": "s",
    "montecarlo.samples": "count", "montecarlo.claims_failed": "count",
    **{f"{m}.sloc": "lines" for m in MODULES}, "cmte.sloc": "lines",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}
OUT_DIR = ROOT / ".bench_out"


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; (None, None) with ten samples or fewer."""
    xs = sorted(values)
    if len(xs) <= 10:
        return None, None
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def sloc() -> dict[str, int | None]:
    """Source lines (not blank, not comment-only) of each module."""
    src = ROOT / "src" / "cmte"

    def count(path):
        return sum(1 for line in path.read_text().splitlines()
                   if line.strip() and not line.lstrip().startswith("#"))

    out = {f"{m}.sloc": count(src / f"{m}.py") if (src / f"{m}.py").is_file() else None
           for m in MODULES}
    out["cmte.sloc"] = sum(count(p) for p in sorted(src.glob("*.py")))
    return out


def set_up(workload, tally, times: int) -> None:
    """``times`` set-ups, then one calibration task that they are paired with."""
    if times:
        tally.setup_s += [workload.setup() for _ in range(times)]
        tally.setup_cal += [tally.speed.sample()] * times


def run_round(workload, units, hooks, tally, setups: int = 0) -> float:
    """Run the units of a round, each followed by ``setups`` set-ups.

    Set-up takes well under a millisecond, so its batches are spread over
    the run to sample the machine's speed at several moments, not one.
    Records the round's wall time, its units back to back, and returns
    the time the round took with everything run between its units.
    """
    t, first = time.perf_counter(), len(tally.unit_s)
    for unit in units:
        workload.run_unit(unit, hooks, tally)
        if workload.calibrated:
            tally.speed.tick()
        set_up(workload, tally, setups)
    tally.round_s.append(sum(tally.unit_s[first:]))
    return time.perf_counter() - t


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            out_dir: Path = OUT_DIR) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and a printable report."""
    from hooks import LAYER_HOOKS, OPERATION_HOOKS, Hooks, layer_metrics
    from workloads import WORKLOADS, Tally, load_references

    workload = WORKLOADS[name](seed, smoke, out_dir, load_references())
    tally = Tally()
    set_up(workload, tally, workload.setup_repeats)
    lines = []
    if not trace:
        start = time.perf_counter()
        tick = tally.speed.tick if workload.calibrated else None
        with Hooks(OPERATION_HOOKS, after=tick) as hooks:
            while True:
                last = run_round(workload, next(workload.rounds), hooks, tally,
                                 workload.setup_repeats)
                if smoke or time.perf_counter() - start + last > seconds:
                    break
        scale = tally.speed.scale() if workload.calibrated else 1.0
        value, pct = tail(tally.op_s)
        metrics = {
            "setup_s": statistics.median(s * REFERENCE_S / c
                                         for s, c in zip(tally.setup_s, tally.setup_cal)),
            "wall_s": statistics.median(tally.round_s) * scale,
            "solve_s_p50": statistics.median(tally.op_s) * scale,
            "solve_s_tail": None if value is None else value * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        lines.append(f"samples: setup {len(tally.setup_s)}, rounds {len(tally.round_s)} "
                     f"of {len(tally.unit_s)} units, operations {len(tally.op_s)}; "
                     + (f"tail is p{pct:.1f}" if pct else "no tail (ten or fewer)"))
        lines.append(f"speed: {len(tally.speed.samples)} calibration tasks, mean "
                     f"{statistics.fmean(tally.speed.samples) * 1e3:.4g} ms against "
                     f"{REFERENCE_S * 1e3:g} ms; wall and operation times below are raw "
                     f"times x {scale:.4g}, each set-up is scaled by the task after "
                     f"its batch")
    else:
        # The same round twice: untraced, then traced with one more set-up.
        units_of_round = next(workload.rounds)
        with Hooks(OPERATION_HOOKS) as hooks:
            run_round(workload, units_of_round, hooks, tally)
        plain = tally.round_s[0]
        traced_tally = Tally()
        with Hooks(OPERATION_HOOKS | LAYER_HOOKS) as hooks:
            set_up(workload, traced_tally, min(workload.setup_repeats, 1))
            run_round(workload, units_of_round, hooks, traced_tally)
        traced = traced_tally.round_s[0]
        metrics = {**layer_metrics(hooks), **sloc(),
                   "trace.overhead_s": traced - plain,
                   "trace.overhead_share": (traced - plain) / plain}
        units = PER_LAYER
        tally.attempted += traced_tally.attempted
        tally.failed += traced_tally.failed
        tally.failures += traced_tally.failures
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"spans_{name}_{seed}.json.gz"
        hooks.write(spans_path)
        lines.append(f"round wall: untraced {plain:.6g} s, traced {traced:.6g} s; "
                     f"{len(hooks.spans)} spans written to {spans_path.name}")
        if hooks.absent:
            lines.append(f"absent from the package: {', '.join(sorted(hooks.absent))}")

    correct = tally.attempted > 0 and not any(breaks for _, breaks in tally.failures)
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    share = tally.failed / tally.attempted if tally.attempted else float("nan")
    lines += [f"{k:32s} {'absent' if v is None else f'{v:.6g}':>14s} {units[k]}"
              for k, v in ((k, metrics[k]) for k in units)]
    lines.append(f"{'failed_share':32s} {share:14.6g} ratio "
                 f"({tally.failed} of {tally.attempted} failed)")
    lines.append(f"correct: {'yes' if correct else 'no'}")
    labels = [f"  {'BREAKS ' if breaks else ''}{label}" for label, breaks in tally.failures]
    lines += [f"failures ({len(labels)}):"] + labels[:40]
    if len(labels) > 40:
        lines.append(f"  ... {len(labels) - 40} more")
    return result, lines


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("standin-sweep", "grid", "verify", "all"),
                    help="all: run each workload in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    use_checkout_source()
    names = (["standin-sweep", "grid", "verify"] if args.workload == "all"
             else [args.workload])
    results = {}
    for name in names:
        results[name], lines = measure(name, args.seed, args.seconds, bool(args.trace))
        print(f"workload {name}, seed {args.seed}, trace {args.trace}")
        print("\n".join(lines), flush=True)
    print(json.dumps(results if args.workload == "all" else results[args.workload]),
          flush=True)


if __name__ == "__main__":
    main()
