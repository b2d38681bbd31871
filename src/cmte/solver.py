"""Route-based equilibrium as a variational inequality, solved by
extra-gradient projection.

The unknown is u = (f, pi): route flows stacked with one multiplier per
OD pair (the realized minimum generalized cost).  The mapping is

    F(u) = ( psi(f) - Lambda^T pi ,  Lambda f - Q )

over the nonnegative orthant, where psi is the per-route risk index
(mean + coefficient * standard deviation), Lambda the OD-route
incidence and Q the demand vector.  A zero of the natural residual
u - P(u - F(u)) is exactly a Wardrop point: used routes share the
minimal index value, unused routes cost at least as much, and demand is
conserved.

Each solve compiles its inputs once into a :class:`Problem` (link
coefficients from ``bpr.link_coefficients``, delta, Lambda, Q, the risk
coefficient c, each OD pair's routes) that every step reads.

The solver is the classic two-projection extra-gradient iteration with
backtracking on the step size: tau is halved until
tau * ||F(u) - F(u_bar)|| <= nu * ||u - u_bar|| and grown again after
accepted steps, so no Lipschitz constant is needed up front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpr import BprParams, link_coefficients, route_moments
from .indices import IndexKind, RiskProfile, risk_coefficient
from .network import Network, RouteSet, link_flows

__all__ = ["SolverConfig", "EquilibriumResult", "WardropReport", "SolverError",
           "Problem", "compile_problem", "assemble_F", "project", "natural_residual",
           "extragradient_solve", "wardrop_check", "route_costs"]


class SolverError(RuntimeError):
    """Numerical breakdown (NaN/overflow) during a solve."""


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-4
    max_iter: int = 10_000
    step_init: float | None = None  # default 1 / (1 + ||F(u0)||_inf)
    step_shrink: float = 0.5
    step_grow: float = 1.1
    nu: float = 0.9  # backtracking acceptance factor

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if not 0.0 < self.step_shrink < 1.0 < self.step_grow:
            raise ValueError("need 0 < step_shrink < 1 < step_grow")


@dataclass
class EquilibriumResult:
    f_star: np.ndarray
    pi_star: np.ndarray
    iterations: int
    residual_history: np.ndarray
    antt_history: np.ndarray
    step_history: np.ndarray
    cmtt_per_route: np.ndarray
    wardrop_gap: float
    converged: bool


@dataclass(frozen=True)
class WardropReport:
    passed: bool
    od_gaps: np.ndarray      # per OD: max used-route index deviation / min index
    min_costs: np.ndarray    # per OD minimum index value
    unused_ok: bool          # unused routes never undercut the minimum


@dataclass(frozen=True)
class Problem:
    """One solve's inputs as arrays (see the module docstring)."""
    t0: np.ndarray          # (|A|,) free-flow times
    a_mean: np.ndarray      # (|A|,) E[T_a] = t0 + a_mean * v^n
    a_var: np.ndarray       # (|A|,) Var[T_a] = a_var * v^(2n)
    n: int
    delta: np.ndarray       # (|A|, m) link-route incidence
    lambda_inc: np.ndarray  # (w, m) OD-route incidence
    q: np.ndarray           # (w,) OD demands
    c: float                # risk coefficient: psi = mu + c * sigma
    od_routes: tuple[np.ndarray, ...]  # route indices of each OD pair

    def moments(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Route (mu, sigma) at route flows f (negative flows count as 0)."""
        v = self.delta @ np.maximum(f, 0.0)
        mu = self.delta.T @ (self.t0 + self.a_mean * v ** self.n)
        sigma = np.sqrt(self.delta.T @ (self.a_var * v ** (2 * self.n)))
        return mu, sigma

    def psi(self, f: np.ndarray) -> np.ndarray:
        mu, sigma = self.moments(f)
        return mu + self.c * sigma


def _od_routes(lambda_inc: np.ndarray) -> tuple[np.ndarray, ...]:
    return tuple(np.flatnonzero(row) for row in lambda_inc)


def compile_problem(net: Network, rs: RouteSet, p: BprParams, profile: RiskProfile,
                    kind: IndexKind = IndexKind.CMTT) -> Problem:
    """Compile a solve's network, route set, BPR form and index into arrays."""
    t0, a_mean, a_var = link_coefficients(net.links, p)
    return Problem(t0=t0, a_mean=a_mean, a_var=a_var, n=p.n, delta=rs.delta,
                   lambda_inc=rs.lambda_inc,
                   q=np.array([od.demand for od in net.od_pairs], dtype=float),
                   c=risk_coefficient(kind, profile), od_routes=_od_routes(rs.lambda_inc))


def route_costs(f: np.ndarray, net: Network, rs: RouteSet, p: BprParams,
                profile: RiskProfile, kind: IndexKind = IndexKind.CMTT) -> np.ndarray:
    """Per-route index values psi(f) at the given route flows."""
    v = link_flows(rs, np.maximum(f, 0.0))
    mom = route_moments(net, rs, v, p)
    return mom.mu + risk_coefficient(kind, profile) * mom.sigma


def assemble_F(u: np.ndarray, prob: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Stacked mapping (psi(f) - Lambda^T pi, Lambda f - Q) at u = (f, pi),
    returned with the route means mu(f) it was built from."""
    m = prob.delta.shape[1]
    if u.shape != (m + len(prob.q),):
        raise ValueError("dimension mismatch between (f, pi) and (routes, OD pairs)")
    f, pi = u[:m], u[m:]
    mu, sigma = prob.moments(f)
    return np.concatenate([mu + prob.c * sigma - prob.lambda_inc.T @ pi,
                           prob.lambda_inc @ f - prob.q]), mu


def project(u: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the nonnegative orthant."""
    return np.maximum(u, 0.0)


def natural_residual(u: np.ndarray, F_u: np.ndarray) -> float:
    """||u - P(u - F(u))||_inf / (1 + ||u||_inf); zero exactly at solutions."""
    r = np.abs(u - project(u - F_u)).max()
    return float(r / (1.0 + np.abs(u).max()))


def extragradient_solve(net: Network, rs: RouteSet, p: BprParams,
                        profile: RiskProfile, cfg: SolverConfig = SolverConfig(),
                        f0: np.ndarray | None = None,
                        kind: IndexKind = IndexKind.CMTT) -> EquilibriumResult:
    """Run the extra-gradient iteration until the natural residual meets tol.

    Starts from f0 (projected; default: each OD's demand split equally over
    its routes) with each multiplier at its OD's minimum index.  Returns a
    result flagged ``converged=False`` (with full residual history) if
    max_iter is exhausted; raises SolverError on NaN or overflow.
    """
    prob = compile_problem(net, rs, p, profile, kind)
    m = rs.n_routes
    total_q = prob.q.sum()
    if f0 is None:
        f0 = prob.lambda_inc.T @ (prob.q / np.maximum(prob.lambda_inc.sum(axis=1), 1.0))
    f0 = project(np.asarray(f0, dtype=float))
    psi0 = prob.psi(f0)
    pi0 = [psi0[ks].min() if ks.size else 0.0 for ks in prob.od_routes]
    u = np.concatenate([f0, pi0])

    Fu, mu = assemble_F(u, prob)
    tau = cfg.step_init if cfg.step_init is not None else 1.0 / (1.0 + np.abs(Fu).max())
    residuals, antts, steps = [], [], []
    converged = False

    for it in range(cfg.max_iter):
        if not np.all(np.isfinite(u)) or not np.all(np.isfinite(Fu)):
            raise SolverError(f"non-finite iterate at iteration {it}")
        res = natural_residual(u, Fu)
        residuals.append(res)
        antts.append(float(u[:m] @ mu / total_q) if total_q > 0 else 0.0)
        steps.append(tau)
        if res <= cfg.tol:
            converged = True
            break
        # backtracking: shrink tau until the Lipschitz-proxy inequality holds
        while True:
            u_bar = project(u - tau * Fu)
            F_bar, _ = assemble_F(u_bar, prob)
            lhs = tau * np.linalg.norm(Fu - F_bar)
            rhs = cfg.nu * np.linalg.norm(u - u_bar)
            if lhs <= rhs or rhs == 0.0:
                break
            tau *= cfg.step_shrink
            if tau < 1e-14:
                raise SolverError(f"step size underflow at iteration {it}")
        u = project(u - tau * F_bar)
        Fu, mu = assemble_F(u, prob)
        tau *= cfg.step_grow

    f_star, pi_star = u[:m], u[m:]
    if converged:
        f_star = _polish_demand(f_star, prob)
    psi = prob.psi(f_star)
    gaps, _ = _od_gaps(f_star, psi, prob.od_routes, prob.q)
    return EquilibriumResult(
        f_star=f_star, pi_star=pi_star, iterations=len(residuals),
        residual_history=np.array(residuals), antt_history=np.array(antts),
        step_history=np.array(steps), cmtt_per_route=psi,
        wardrop_gap=float(gaps.max(initial=0.0)), converged=converged)


def _polish_demand(f: np.ndarray, prob: Problem) -> np.ndarray:
    """Rescale each OD's route flows so demand is met exactly.

    The stopping rule leaves demand residuals on the order of
    tol * (1 + ||u||), far coarser than the flows themselves; a
    proportional rescale removes them without moving the flow pattern.
    """
    f = f.copy()
    for ks, q in zip(prob.od_routes, prob.q):
        total = f[ks].sum()
        if total > 0:
            f[ks] = f[ks] * (q / total)
    return f


def _od_gaps(f: np.ndarray, psi: np.ndarray, od_routes: tuple[np.ndarray, ...],
             q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per OD: the largest index gap of a route carrying over 1e-4 of the OD
    demand to the OD minimum, relative to |minimum| (absolute when it is 0),
    and the minimum."""
    gaps, min_costs = np.zeros(len(od_routes)), np.zeros(len(od_routes))
    for oi, ks in enumerate(od_routes):
        if not ks.size:
            continue
        pmin = psi[ks].min()
        used = ks[f[ks] > 1e-4 * max(q[oi], 1.0)]
        gaps[oi] = np.abs(psi[used] - pmin).max(initial=0.0) / (abs(pmin) or 1.0)
        min_costs[oi] = pmin
    return gaps, min_costs


def wardrop_check(result: EquilibriumResult, net: Network, rs: RouteSet,
                  rel_tol: float = 1e-3) -> WardropReport:
    """Verify equalized-cost conditions at a converged point.

    Used routes (flow above 1e-4 of OD demand) must have index values
    within rel_tol (relative) of the OD minimum; no route may undercut
    that minimum by more than rel_tol relative.
    """
    psi = result.cmtt_per_route
    od_routes = _od_routes(rs.lambda_inc)
    gaps, min_costs = _od_gaps(result.f_star, psi, od_routes,
                               np.array([od.demand for od in net.od_pairs]))
    unused_ok = all(np.all(psi[ks] >= pmin - rel_tol * (abs(pmin) or 1.0))
                    for ks, pmin in zip(od_routes, min_costs))
    return WardropReport(bool(np.all(gaps <= rel_tol)) and unused_ok, gaps, min_costs,
                         unused_ok)
