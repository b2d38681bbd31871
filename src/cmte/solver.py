"""Route-based equilibrium as a variational inequality, solved by
extra-gradient projection.

The unknown is the route-flow vector f, confined to the product of
scaled simplices K = {f >= 0, Lambda f = Q}: each OD pair's route flows
are nonnegative and sum to its demand.  The mapping is F(f) = psi(f),
the per-route risk index (mean + coefficient * standard deviation), and
a zero of the natural residual f - P_K(f - psi(f)) is exactly a Wardrop
point: used routes share the minimal index value of their OD pair and
unused routes cost at least as much.  The projection P_K works OD by OD
with the sort-based projection onto a simplex (Duchi et al., ICML 2008),
so every iterate meets demand to rounding and no step is needed to
restore it after the solve.  The realized minimum index of each OD pair,
the multiplier of its demand constraint, is read off the final flows
(``EquilibriumResult.pi_star``).

Each solve compiles its inputs once into a :class:`Problem` (link
coefficients from ``bpr.link_coefficients``, delta, Lambda, Q, the risk
coefficient c, each OD pair's routes) that every step reads.
``compile_problem`` also rejects points where the index could fall as
flow rises (:class:`DomainError`).

The solver is the classic two-projection extra-gradient iteration with
backtracking on the step size, so no Lipschitz constant is needed up
front.  It starts from tau = 1 / (1 + ||F(u0)||_inf); tau is multiplied
by STEP_SHRINK = 0.5 until tau * ||F(u) - F(u_bar)|| <= NU * ||u - u_bar||
(NU = 0.9) and by STEP_GROW = 1.1 after each accepted step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpr import BprParams, link_coefficients, route_moments
from .indices import IndexKind, RiskProfile, risk_coefficient
from .network import Network, RouteSet, link_flows

__all__ = ["SolverConfig", "EquilibriumResult", "WardropReport", "SolverError",
           "DomainError", "Problem", "compile_problem", "assemble_F", "project",
           "natural_residual", "extragradient_solve", "wardrop_check", "route_costs"]

STEP_SHRINK = 0.5  # backtracking: tau *= STEP_SHRINK until the test holds
STEP_GROW = 1.1    # tau *= STEP_GROW after each accepted step
NU = 0.9           # acceptance factor of the backtracking test


class SolverError(RuntimeError):
    """Numerical breakdown (NaN/overflow) during a solve."""


class DomainError(ValueError):
    """A point where the index is not guaranteed positive and nondecreasing."""


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-4
    max_iter: int = 10_000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


@dataclass
class EquilibriumResult:
    f_star: np.ndarray
    pi_star: np.ndarray  # per OD: minimum route index at f_star
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


def _od_routes(lambda_inc: np.ndarray) -> tuple[np.ndarray, ...]:
    return tuple(np.flatnonzero(row) for row in lambda_inc)


def compile_problem(net: Network, rs: RouteSet, p: BprParams, profile: RiskProfile,
                    kind: IndexKind = IndexKind.CMTT) -> Problem:
    """Compile a solve's network, route set, BPR form and index into arrays.

    Raises DomainError unless every link's coefficients are finite (a
    degradation degree or capacity so small that they overflow is outside
    the model's domain) and a_mean >= max(-c, 0) * sqrt(a_var) on every
    link.  Since a route's sigma is at most the sum of its links'
    sqrt(a_var) * v^n, this keeps every route index positive and
    nondecreasing in each link flow, so the mapping is monotone.
    """
    t0, a_mean, a_var = link_coefficients(net.links, p)
    bad = np.flatnonzero(~(np.isfinite(t0) & np.isfinite(a_mean) & np.isfinite(a_var)))
    if bad.size:
        i = bad[0]
        raise DomainError(
            f"moment coefficients of link {net.links[i].id} are not finite: t0 "
            f"{t0[i]:.6g}, mean {a_mean[i]:.6g}, variance {a_var[i]:.6g}")
    c = risk_coefficient(kind, profile)
    floor = max(-c, 0.0) * np.sqrt(a_var)
    bad = np.flatnonzero(a_mean < floor)
    if bad.size:
        i = bad[0]
        raise DomainError(
            f"index not monotone on link {net.links[i].id}: mean coefficient "
            f"{a_mean[i]:.6g} < {-c:.6g} * std coefficient {np.sqrt(a_var[i]):.6g} "
            f"= {floor[i]:.6g}")
    return Problem(t0=t0, a_mean=a_mean, a_var=a_var, n=p.n, delta=rs.delta,
                   lambda_inc=rs.lambda_inc,
                   q=np.array([od.demand for od in net.od_pairs], dtype=float),
                   c=c, od_routes=_od_routes(rs.lambda_inc))


def route_costs(f: np.ndarray, net: Network, rs: RouteSet, p: BprParams,
                profile: RiskProfile, kind: IndexKind = IndexKind.CMTT) -> np.ndarray:
    """Per-route index values psi(f) at the given route flows."""
    v = link_flows(rs, np.maximum(f, 0.0))
    mom = route_moments(net, rs, v, p)
    return mom.mu + risk_coefficient(kind, profile) * mom.sigma


def assemble_F(u: np.ndarray, prob: Problem) -> tuple[np.ndarray, np.ndarray]:
    """The mapping psi(f) at route flows u, returned with the route means
    mu(f) it was built from."""
    if u.shape != (prob.delta.shape[1],):
        raise ValueError("dimension mismatch between flows and routes")
    mu, sigma = prob.moments(u)
    return mu + prob.c * sigma, mu


def project(u: np.ndarray, prob: Problem) -> np.ndarray:
    """Euclidean projection onto {f >= 0, Lambda f = Q}, one OD simplex at a
    time: shift the OD's flows by the threshold that makes their positive
    parts sum to its demand (found by sorting), then clip at zero."""
    x = np.zeros_like(u)
    for ks, q in zip(prob.od_routes, prob.q):
        if q <= 0:
            continue
        y = u[ks]
        s = np.sort(y)[::-1]
        excess = np.cumsum(s) - q
        rho = np.flatnonzero(s * np.arange(1, s.size + 1) > excess)[-1]
        x[ks] = np.maximum(y - excess[rho] / (rho + 1), 0.0)
    return x


def natural_residual(u: np.ndarray, F_u: np.ndarray, prob: Problem) -> float:
    """||u - P(u - F(u))||_inf / (1 + ||u||_inf); zero exactly at solutions."""
    r = np.abs(u - project(u - F_u, prob)).max()
    return float(r / (1.0 + np.abs(u).max()))


def extragradient_solve(net: Network, rs: RouteSet, p: BprParams,
                        profile: RiskProfile, cfg: SolverConfig = SolverConfig(),
                        f0: np.ndarray | None = None,
                        kind: IndexKind = IndexKind.CMTT) -> EquilibriumResult:
    """Run the extra-gradient iteration until the natural residual meets tol.

    Starts from f0 projected onto the demand simplices (default: each OD's
    demand split equally over its routes).  Returns a result flagged
    ``converged=False`` (with full residual history) if max_iter is
    exhausted; raises SolverError on NaN or overflow and DomainError
    (from ``compile_problem``) outside the model's domain.
    """
    prob = compile_problem(net, rs, p, profile, kind)
    total_q = prob.q.sum()
    if f0 is None:
        f0 = prob.lambda_inc.T @ (prob.q / np.maximum(prob.lambda_inc.sum(axis=1), 1.0))
    u = project(np.asarray(f0, dtype=float), prob)

    Fu, mu = assemble_F(u, prob)
    tau = 1.0 / (1.0 + np.abs(Fu).max())
    residuals, antts, steps = [], [], []
    converged = False

    for it in range(cfg.max_iter):
        if not np.all(np.isfinite(u)) or not np.all(np.isfinite(Fu)):
            raise SolverError(f"non-finite iterate at iteration {it}")
        res = natural_residual(u, Fu, prob)
        residuals.append(res)
        antts.append(float(u @ mu / total_q) if total_q > 0 else 0.0)
        steps.append(tau)
        if res <= cfg.tol:
            converged = True
            break
        # backtracking: shrink tau until the Lipschitz-proxy inequality holds
        while True:
            u_bar = project(u - tau * Fu, prob)
            F_bar, _ = assemble_F(u_bar, prob)
            lhs = tau * np.linalg.norm(Fu - F_bar)
            rhs = NU * np.linalg.norm(u - u_bar)
            if lhs <= rhs or rhs == 0.0:
                break
            tau *= STEP_SHRINK
            if tau < 1e-14:
                raise SolverError(f"step size underflow at iteration {it}")
        u = project(u - tau * F_bar, prob)
        Fu, mu = assemble_F(u, prob)
        tau *= STEP_GROW

    gaps, min_costs = _od_gaps(u, Fu, prob.od_routes, prob.q)
    return EquilibriumResult(
        f_star=u, pi_star=min_costs, iterations=len(residuals),
        residual_history=np.array(residuals), antt_history=np.array(antts),
        step_history=np.array(steps), cmtt_per_route=Fu,
        wardrop_gap=float(gaps.max(initial=0.0)), converged=converged)


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
    within rel_tol (relative) of the OD minimum.  No route can undercut
    the minimum, which is taken over all of the OD's routes.
    """
    gaps, min_costs = _od_gaps(result.f_star, result.cmtt_per_route,
                               _od_routes(rs.lambda_inc),
                               np.array([od.demand for od in net.od_pairs]))
    return WardropReport(bool(np.all(gaps <= rel_tol)), gaps, min_costs)
