"""Correctness checks on the program's outputs.

Every check reads only what the program returned (route flows, reported
index values, the route set, the files written) and recomputes the rest
with public functions of the package, so a corrupted output cannot vouch
for itself.  Numbers are compared with tolerances, never byte for byte,
so a solver that reaches the same equilibrium along another iterate path
still passes.

Each check returns failures as (label, breaks_correctness) pairs.  A
failure that breaks correctness contradicts a stored reference or an
invariant.  The others are the known defects the benchmark counts in
``failed`` without calling the run incorrect: a grid solve whose Wardrop
gap exceeds 1e-3 but not the gap the baseline solver left on that grid,
and an oracle claim between 3 and 6 standard errors off.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import cmte

# ANTT of a converged solve against the reference ANTT, which was solved
# to a natural residual of 1e-6 (100x tighter than the default solver).
# At the default tolerance the baseline sits at most 2.2e-4 (relative)
# from it on the stand-in cells and 1.7e-3 on the grids; see
# "max_default_antt_rel_dev" in references.json.  Each tolerance leaves
# room for another iterate path to the same equilibrium.
ANTT_RTOL_STANDIN = 1e-3
ANTT_RTOL_GRID = 5e-3
WARDROP_REL_TOL = 1e-3
# A grid solve may exceed WARDROP_REL_TOL without breaking correctness as
# long as its gap stays within this factor of the gap the baseline solver
# left on that grid ("default_wardrop_gap" in references.json).
KNOWN_GAP_SLACK = 1.25
USED_THRESHOLD = 1e-4
FEASIBLE_TOL_PER_PCU = 1e-6
REPORTED_RTOL = 1e-6
FILE_RTOL = 1e-9
CLOSED_FORM_RTOL = 1e-9
ORACLE_SE = 3.0
# A claim this many standard errors off is no sampling accident (about
# 2e-9 per claim for a correct closed form): the formula is wrong.
ORACLE_SE_BROKEN = 6.0


def route_lists(rs) -> list[list[list[int]]]:
    """Routes as link-id lists grouped by OD pair, in the program's order."""
    groups: dict[int, list[list[int]]] = {}
    for r in rs.routes:
        groups.setdefault(r.od_index, []).append(list(r.link_ids))
    return [groups.get(i, []) for i in range(max(groups, default=-1) + 1)]


def routes_digest(lists) -> str:
    text = "\n".join(";".join("-".join(map(str, r)) for r in od) for od in lists)
    return hashlib.sha256(text.encode()).hexdigest()


def route_index_values(net, rs, flows, profile):
    """(mu, psi) per route at the given route flows, recomputed."""
    v = cmte.link_flows(rs, np.maximum(flows, 0.0))
    mom = cmte.route_moments(net, rs, v, cmte.BprParams())
    c = cmte.risk_coefficient(cmte.IndexKind.CMTT, profile)
    return mom.mu, mom.mu + c * mom.sigma


def wardrop_gap(net, rs, flows, psi) -> float:
    """Largest relative index gap of a used route to its OD minimum.

    Same rule as ``wardrop_check``: a route counts as used when it carries
    more than 1e-4 of its OD demand.
    """
    gap = 0.0
    for oi, od in enumerate(net.od_pairs):
        ks = [k for k, r in enumerate(rs.routes) if r.od_index == oi]
        if not ks:
            continue
        pmin = min(psi[k] for k in ks)
        scale = abs(pmin) if pmin != 0 else 1.0
        used = [k for k in ks if flows[k] > USED_THRESHOLD * max(od.demand, 1.0)]
        gap = max([gap] + [abs(psi[k] - pmin) / scale for k in used])
    return float(gap)


def antt(net, rs, flows, profile) -> float:
    mu, _ = route_index_values(net, rs, flows, profile)
    return float(np.asarray(flows) @ mu / net.total_demand())


def check_solve(name, net, rs, profile, flows, psi, converged, ref_antt, antt_rtol,
                routes_ok, wardrop_ok, known_gap=0.0, reported_antt=None):
    """Failures of one solve.

    ``wardrop_ok`` is the program's own ``wardrop_check`` verdict; the gap
    is also recomputed from the flows, and either one failing counts.  The
    failure breaks correctness unless the gap is within KNOWN_GAP_SLACK of
    ``known_gap``, the known defect's gap at this input (0: none known).
    Returns the failures and the solve's recomputed ANTT.
    """
    out = []
    flows = np.asarray(flows, dtype=float)
    if not converged:
        out.append((f"{name}: not converged", True))
    q = net.total_demand()
    if not cmte.check_feasible(rs, flows, net, tol=FEASIBLE_TOL_PER_PCU * q).feasible:
        out.append((f"{name}: demand not conserved", True))
    mu, psi_chk = route_index_values(net, rs, flows, profile)
    if psi is not None and not np.allclose(psi, psi_chk, rtol=REPORTED_RTOL, atol=0.0):
        out.append((f"{name}: reported index values do not match the flows", True))
    gap = wardrop_gap(net, rs, flows, psi_chk)
    if gap > WARDROP_REL_TOL or not wardrop_ok:
        out.append((f"{name}: wardrop gap {gap:.3g} > {WARDROP_REL_TOL:g}",
                    not known_gap or gap > KNOWN_GAP_SLACK * known_gap))
    a = float(flows @ mu / q)
    if reported_antt is not None and not math.isclose(a, reported_antt,
                                                      rel_tol=REPORTED_RTOL):
        out.append((f"{name}: reported ANTT {reported_antt!r} != {a!r}", True))
    if not math.isclose(a, ref_antt, rel_tol=antt_rtol):
        out.append((f"{name}: ANTT {a:.6g} off reference {ref_antt:.6g}", True))
    if not routes_ok:
        out.append((f"{name}: route list differs from reference", True))
    return out, a


def check_trend(name, a, lower, upper):
    """Criterion 8: ANTT lies between the references of the lattice cells
    that must not exceed it (less demand, more capacity left) and that it
    must not exceed (more demand, more degradation)."""
    out = []
    for ref in lower:
        if a < ref * (1.0 - ANTT_RTOL_STANDIN):
            out.append((f"{name}: ANTT {a:.6g} below neighbour reference {ref:.6g}", True))
    for ref in upper:
        if a > ref * (1.0 + ANTT_RTOL_STANDIN):
            out.append((f"{name}: ANTT {a:.6g} above neighbour reference {ref:.6g}", True))
    return out


def check_results_file(name, path, rows):
    """results.tsv holds one line per grid point with the reported ANTT."""
    lines = path.read_text().splitlines()[1:] if path.is_file() else []
    if len(lines) != len(rows):
        return [(f"{name}: results.tsv has {len(lines)} rows, expected {len(rows)}", True)]
    for line, row in zip(lines, rows):
        if not math.isclose(float(line.split("\t")[3]), row.antt, rel_tol=FILE_RTOL):
            return [(f"{name}: results.tsv ANTT differs from the sweep", True)]
    return []


def check_claims(rows, all_pass, ref_claims):
    """Failures of one oracle report, one entry per failed claim."""
    ids = [r[0] for r in rows]
    if ids != [c for c, _ in ref_claims]:
        return [("oracle claims differ from reference", True)] * max(len(rows), 1)
    out = []
    for (claim, closed, est, se, verdict), (_, ref) in zip(rows, ref_claims):
        z = abs(closed - est) / se if se > 0 else math.inf
        if not math.isclose(closed, ref, rel_tol=CLOSED_FORM_RTOL):
            out.append((f"{claim}: closed form {closed!r} off reference {ref!r}", True))
        elif not math.isfinite(z) or z > ORACLE_SE_BROKEN:
            out.append((f"{claim}: estimate {est!r} with SE {se!r}", True))
        elif (z > ORACLE_SE) != (verdict == "fail"):
            out.append((f"{claim}: verdict {verdict!r} at z = {z:.2f}", True))
        elif z > ORACLE_SE:
            out.append((f"{claim}: z = {z:.2f} > {ORACLE_SE:g}", False))
    if all_pass != all(r[4] == "pass" for r in rows):
        out.append(("oracle report: overall verdict contradicts its rows", True))
    return out
