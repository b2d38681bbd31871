"""Batch command-line interface.

Subcommands:

- ``solve``   single equilibrium at the scenario's first grid point
- ``sweep``   full Cartesian sweep over the scenario grids
- ``verify``  Monte-Carlo verification of every closed-form formula
- ``routes``  dump the enumerated route set

Exit codes: 0 success, 1 configuration error, 2 solver non-convergence,
3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bpr import BprParams
from .montecarlo import RNG_ALGORITHM, McConfig, oracle_report
from .network import Network, build_route_set, load_network
from .scenario import Scenario, emit_results, fmt_float, run_scenario
from .solver import SolverError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmte",
        description="Alpha-reliable combined-mean traffic equilibrium solver")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="solve a single equilibrium point")
    sweep = sub.add_parser("sweep", help="run the full scenario sweep")
    verify = sub.add_parser("verify", help="run the Monte-Carlo oracle suite")
    routes = sub.add_parser("routes", help="dump the enumerated routes")
    for p in (solve, sweep, verify, routes):
        p.add_argument("--network", required=True, help="network file path")
    for p in (solve, sweep, verify):
        p.add_argument("--scenario", help="scenario JSON path (defaults used if omitted)")
        p.add_argument("--out", help="output directory (default: print summary)")
    for p in (solve, sweep):
        p.add_argument("--max-iter", type=int, help="override solver iteration cap")
        p.add_argument("--tol", type=float, help="override solver tolerance")
    verify.add_argument("--seed", type=int, default=0, help="RNG seed")
    verify.add_argument("--samples", type=int, default=10 ** 6,
                        help="Monte-Carlo sample count per claim")
    return parser


def _load_inputs(args) -> tuple[Network, Scenario]:
    """Network and scenario, with any --max-iter/--tol override applied."""
    net = load_network(Path(args.network).read_text())
    sc = Scenario.from_json(Path(args.scenario).read_text()) if args.scenario else Scenario()
    overrides = {key: value for key in ("max_iter", "tol")
                 if (value := getattr(args, key, None)) is not None}
    return net, replace(sc, solver=replace(sc.solver, **overrides))


def _cmd_solve(args) -> int:
    net, sc = _load_inputs(args)
    single = replace(sc, lambda_grid=sc.lambda_grid[:1],
                     demand_grid=sc.demand_grid[:1], theta_grid=sc.theta_grid[:1])
    res = run_scenario(net, single)
    row = res.rows[0]
    if args.out:
        emit_results(res, args.out)
    print(f"lambda={fmt_float(row.lam)} Q={fmt_float(row.demand)} "
          f"Theta={fmt_float(row.theta)} ANTT={fmt_float(row.antt)} iters={row.iterations} "
          f"residual={fmt_float(row.residual)} converged={row.converged}")
    return EXIT_OK if row.converged else EXIT_NO_CONVERGENCE


def _cmd_sweep(args) -> int:
    net, sc = _load_inputs(args)
    res = run_scenario(net, sc)
    if args.out:
        emit_results(res, args.out)
    else:
        for row in res.rows:
            print(f"lambda={fmt_float(row.lam)} Q={fmt_float(row.demand)} "
                  f"Theta={fmt_float(row.theta)} ANTT={fmt_float(row.antt)} "
                  f"converged={row.converged}")
    failed = sum(1 for row in res.rows if not row.converged)
    if failed:
        print(f"{failed}/{len(res.rows)} grid points did not converge",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_verify(args) -> int:
    net, sc = _load_inputs(args)
    cfg = McConfig(samples=args.samples, seed=args.seed)
    try:
        rows, ok = oracle_report(net, sc.bpr, cfg)
    except MemoryError:
        print(f"config error: not enough memory for {args.samples} samples per estimate",
              file=sys.stderr)
        return EXIT_CONFIG
    lines = [f"# rng={RNG_ALGORITHM} seed={args.seed} samples={args.samples}",
             "claim\tclosed_form\testimate\tstandard_error\tstatus"]
    lines += [f"{claim}\t{fmt_float(cf)}\t{fmt_float(est)}\t{fmt_float(se)}\t{status}"
              for claim, cf, est, se, status in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "oracle_report.tsv").write_text(text)
    else:
        sys.stdout.write(text)
    print(f"{sum(1 for r in rows if r[4] == 'pass')}/{len(rows)} claims pass")
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


def _cmd_routes(args) -> int:
    net = load_network(Path(args.network).read_text())
    rs = build_route_set(net)
    print("route\torigin\tdestination\tlinks\tfree_flow_min")
    for k, r in enumerate(rs.routes):
        od = net.od_pairs[r.od_index]
        t0 = sum(net.link_by_id(lid).t0 for lid in r.link_ids)
        links = "-".join(str(lid) for lid in r.link_ids)
        print(f"{k}\t{od.origin}\t{od.destination}\t{links}\t{fmt_float(t0)}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"solve": _cmd_solve, "sweep": _cmd_sweep,
                "verify": _cmd_verify, "routes": _cmd_routes}
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # the network, scenario and domain errors subclass it
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error ({exc.reason}): {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
