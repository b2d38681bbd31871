"""Alpha-reliable combined-mean traffic equilibrium toolkit.

Computes Wardrop equilibria on stochastic road networks with degradable
link capacities under a family of reliability-based route indices, and
verifies every closed-form formula against Monte-Carlo sampling.
"""

from .bpr import BprParams, RouteMoments, bpr_time, link_mean, link_var, route_moments
from .indices import (IndexKind, RiskProfile, cmtt, mbtt, mett, risk_coefficient,
                      std_normal_quantile, ttb)
from .montecarlo import McConfig, mc_link_moments, mc_tail_means
from .network import (Link, Network, ODPair, Route, RouteSet, build_route_set,
                      check_feasible, enumerate_routes, link_flows, load_network)
from .presets import parallel_links_network, standin_network, three_route_toy
from .scenario import Scenario, SweepResult, emit_results, run_scenario
from .solver import (EquilibriumResult, SolverConfig, assemble_F,
                     extragradient_solve, natural_residual, project,
                     wardrop_check)

__version__ = "0.1.0"
