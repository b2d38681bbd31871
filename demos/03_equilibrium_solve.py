"""Solving one equilibrium on the bundled stand-in network.

Loads the 10-node / 13-link network, enumerates its six routes, runs
the extra-gradient solver for a moderately pessimistic traveller
population (alpha = 0.9, lambda = 0.5), and inspects the converged
point: used routes share the minimal combined index, demand is met
exactly, and the residual history shows the convergence path.
"""

import numpy as np

from cmte import (BprParams, RiskProfile, build_route_set, check_feasible,
                  extragradient_solve, standin_network, wardrop_check)

net = standin_network(theta=0.8, demand=4000.0)
rs = build_route_set(net)

print("routes (link-id sequences), ranked by free-flow time:")
for k, r in enumerate(rs.routes):
    t0 = sum(net.link_by_id(l).t0 for l in r.link_ids)
    print(f"  route {k}: {'-'.join(map(str, r.link_ids))}  (free-flow {t0:g} min)")

res = extragradient_solve(net, rs, BprParams(), RiskProfile(alpha=0.9, lam=0.5))
print(f"\nconverged: {res.converged} after {res.iterations} iterations "
      f"(final residual {res.residual_history[-1]:.2e})")

print("\nequilibrium route flows and combined index values:")
for k in range(rs.n_routes):
    used = "used" if res.f_star[k] > 1.0 else "    "
    print(f"  route {k}: f = {res.f_star[k]:8.2f} pcu/h   psi = "
          f"{res.cmtt_per_route[k]:8.3f} min  {used}")

rep = wardrop_check(res, net, rs, rel_tol=1e-3)
feas = check_feasible(rs, res.f_star, net, tol=1e-6 * 4000)
print(f"\nWardrop conditions hold: {rep.passed} (max relative gap {rep.od_gaps.max():.2e})")
print(f"demand met exactly: {feas.feasible}")

# the solve records ANTT, sum_k f_k mu_k / Q, at every iterate; the last is f_star's
print(f"average network travel time: {res.antt_history[-1]:.2f} min")

h = res.residual_history
marks = np.unique(np.geomspace(1, len(h), 12).astype(int)) - 1
print("\nresidual history (log-spaced samples):")
for i in marks:
    print(f"  iter {i + 1:5d}: residual {h[i]:.3e}")
