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

A solve reads its inputs as one :class:`Problem` (link coefficients
from ``bpr.link_coefficients``, delta, Lambda, Q, the risk coefficient
c, each OD pair's routes read off Lambda, the KKT matrix of a face-Newton
step on all routes), which ``compile_problem`` builds.  Only c depends
on the risk profile: ``Problem.with_risk`` sets it, so a caller that
solves one network under many profiles, such as a sweep cell's lambda
series, compiles once and hands the problem to each solve
(``extragradient_solve(..., problem=)``); without one, a solve compiles
its own.  Setting c rejects points where the index could fall as flow
rises (:class:`DomainError`), and ``bpr.link_coefficients`` rejects link
coefficients that are not finite.

The solver is the classic two-projection extra-gradient iteration with
backtracking on the step size, so no Lipschitz constant is needed up
front.  It starts from tau = 1 / (1 + ||F(u0)||_inf); tau is multiplied
by STEP_SHRINK = 0.5 until tau * ||F(u) - F(u_bar)|| <= NU * ||u - u_bar||
(NU = 0.9) and by STEP_GROW = 1.1 after each accepted step.  It stops
when the natural residual meets the tolerance and every OD pair's
relative Wardrop gap is at most GAP_TOL, the default tolerance of
``wardrop_check``, so a converged result passes that check.

Some iterations try a Newton step on the used-route face (Bertsekas,
SIAM J. Control Optim. 1982): routes within
eps = min(1e-3 q, ||u - P(u - psi)||_inf over the OD) of zero whose
index lies above the OD minimum are held at zero, and on the others the
KKT system [J, -L^T; L, 0][d; pi] = [-psi; 0] is solved with the
analytic Jacobian ``Problem.jacobian``, built from the link flows and
route deviations that F's evaluation at u (``assemble_F``) computed;
when no route is held, the compiled KKT matrix is copied and J written
into it.
Route costs are not additive (sigma is not), and where routes share
links route flows are not unique (Gabriel & Bernstein, Transp. Sci.
1997): psi depends on f only through the link flows, so J is singular
along the null space of delta.  The system is therefore solved at
minimum norm by least squares, with singular values below
NEWTON_RCOND = 1e-12 of the largest taken as zero, so the step moves
nothing along directions that leave psi unchanged.  The step P(u + d)
replaces the iterate only if it lowers the natural residual.  A try
takes u - P(u - psi) from its iteration and costs the Jacobian, one KKT
solve, one F evaluation and two projections (the step and its residual);
a kept step's residual vector serves the next iteration.

A solve starts from a caller's f0 (a warm start, such as a prediction
from the earlier solves of a lambda series) or from the equal split (a
cold start).  Iteration 0 first checks the start against the stopping
test with a margin: a start whose residual is at most
tol / START_MARGIN and whose every OD gap is at most
GAP_TOL / START_MARGIN (START_MARGIN = 10) is final, so the solve makes
no try, records it and stops, having evaluated F once and projected
twice.  The margin keeps a lambda series smooth: on the stand-in most
ANTT steps between neighbouring lambda values are below 1e-5 relative,
so stopping at starts that only just met the test would turn some of
them the wrong way.  Every other solve tries at iteration 0.  An
iteration whose try is kept ends with it: it records the step's
residual, ANTT and tau, runs the stopping test and goes on to the next
iteration, which tries again.  An iteration with no try, or
whose try was rejected, takes an extra-gradient step.  Each rejected try
multiplies the gap to the next one by NEWTON_BACKOFF = 2, so a solve
where the steps fail pays for few of them, and a kept one resets it to 1.

Each result says why the solve stopped and what it cost (F evaluations,
backtracks, Newton steps tried and kept); a :class:`SolverError` says
why it broke down and carries the residuals recorded until then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bpr import BprParams, DomainError, link_coefficients, route_moments
from .indices import IndexKind, RiskProfile, risk_coefficient
from .network import Link, Network, RouteSet, link_flows

__all__ = ["SolverConfig", "EquilibriumResult", "WardropReport", "SolverError",
           "DomainError", "Problem", "compile_problem", "assemble_F", "project",
           "natural_residual", "extragradient_solve", "wardrop_check", "route_costs"]

STEP_SHRINK = 0.5  # backtracking: tau *= STEP_SHRINK until the test holds
STEP_GROW = 1.1    # tau *= STEP_GROW after each accepted step
NU = 0.9           # acceptance factor of the backtracking test
GAP_TOL = 1e-3     # largest relative Wardrop gap of a converged solve
NEWTON_BACKOFF = 2  # a rejected try multiplies the gap to the next one by this
NEWTON_RCOND = 1e-12  # singular values below this share of the largest count as 0
START_MARGIN = 10   # a start meeting the stopping test this many times over is final


class SolverError(RuntimeError):
    """Numerical breakdown during a solve.

    ``reason`` is "non_finite" (NaN or overflow in an iterate) or
    "step_underflow" (no step size passed the backtracking test);
    ``residual_history`` holds the natural residuals recorded before it.
    """

    def __init__(self, message: str, reason: str, residual_history: np.ndarray):
        super().__init__(message)
        self.reason = reason
        self.residual_history = residual_history


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-4
    max_iter: int = 10_000

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


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
    stop_reason: str     # "converged" or "max_iter"
    f_evals: int         # evaluations of F, trial points and Newton tries included
    backtracks: int      # step-size shrinks of the backtracking search
    newton_tried: int    # face-Newton steps evaluated
    newton_kept: int     # ... of which lowered the natural residual


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
    # per OD pair with positive demand: its route indices, its demand and the
    # ranks 1..size, for ``project``
    od_blocks: tuple[tuple[np.ndarray, float, np.ndarray], ...]
    kkt: np.ndarray         # the whole face's KKT matrix with its J block 0
    links: tuple[Link, ...]  # the network's links, named in DomainError
    bpr: BprParams           # the BPR form the coefficients were computed under

    def with_risk(self, profile: RiskProfile, kind: IndexKind = IndexKind.CMTT
                  ) -> "Problem":
        """This problem with the risk coefficient c of profile and kind.

        Raises DomainError unless a_mean >= max(-c, 0) * sqrt(a_var) on
        every link.  Since a route's sigma is at most the sum of its links'
        sqrt(a_var) * v^n, this keeps every route index positive and
        nondecreasing in each link flow.  It does not make the VI map
        monotone: with c != 0 the deviation part of its Jacobian is not
        symmetric, and <F(g) - F(f), g - f> < 0 occurs at feasible f, g.
        """
        c = risk_coefficient(kind, profile)
        if c < 0.0:  # with c >= 0 the bound is 0, and a_mean >= 0 always
            floor = -c * np.sqrt(self.a_var)
            bad = np.flatnonzero(self.a_mean < floor)
            if bad.size:
                i = bad[0]
                raise DomainError(
                    f"index not monotone on link {self.links[i].id}: mean coefficient "
                    f"{self.a_mean[i]:.6g} < {-c:.6g} * std coefficient "
                    f"{np.sqrt(self.a_var[i]):.6g} = {floor[i]:.6g}")
        # the shallow copy dataclasses.replace makes, without its pass
        # through __init__ (about 7 us of the 11 this took with it)
        prob = object.__new__(Problem)
        prob.__dict__.update(self.__dict__, c=c)
        return prob

    def link_flows(self, f: np.ndarray) -> np.ndarray:
        """Link flows delta f at route flows f (negative flows count as 0)."""
        return self.delta @ np.maximum(f, 0.0)

    def moments(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Route (mu, sigma) at link flows v."""
        mu = self.delta.T @ (self.t0 + self.a_mean * v ** self.n)
        sigma = np.sqrt(self.delta.T @ (self.a_var * v ** (2 * self.n)))
        return mu, sigma

    def jacobian(self, v: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """d psi / d f at link flows v, where the route deviations are sigma
        (both as ``assemble_F`` returns them): the mean part
        delta^T diag(n a_mean v^(n-1)) delta plus c times the deviation part
        delta^T diag(n a_var v^(2n-1)) delta, whose row k is divided by
        sigma_k (rows with sigma_k = 0 read 0)."""
        n, delta = self.n, self.delta
        j_mu = delta.T @ ((n * self.a_mean * v ** (n - 1))[:, None] * delta)
        j_var = delta.T @ ((n * self.a_var * v ** (2 * n - 1))[:, None] * delta)
        inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 0.0)
        return j_mu + self.c * inv[:, None] * j_var


def _od_routes(lambda_inc: np.ndarray) -> tuple[np.ndarray, ...]:
    """Route indices of each OD pair: its row's nonzero columns in Lambda."""
    return tuple(np.flatnonzero(row) for row in lambda_inc)


def _od_blocks(od_routes: tuple[np.ndarray, ...], q: np.ndarray) -> tuple:
    return tuple((ks, demand, np.arange(1, ks.size + 1))
                 for ks, demand in zip(od_routes, q) if demand > 0)


def _kkt(L: np.ndarray) -> np.ndarray:
    """[0, -L^T; L, 0] over the rows of L that hold a route: the face-Newton
    KKT matrix of a face whose OD-route incidence is L, J block left 0."""
    L = L[L.any(axis=1)]
    m = L.shape[1]
    K = np.zeros((m + len(L), m + len(L)))
    K[:m, m:] = -L.T
    K[m:, :m] = L
    return K


def compile_problem(net: Network, rs: RouteSet, p: BprParams) -> Problem:
    """Compile a solve's network, route set and BPR form into arrays, with
    c = 0 (the mean index); ``Problem.with_risk`` sets c.

    Raises DomainError unless every link's coefficients are finite
    (``bpr.link_coefficients``).
    """
    t0, a_mean, a_var = link_coefficients(net.links, p)
    q = np.array([od.demand for od in net.od_pairs], dtype=float)
    od_routes = _od_routes(rs.lambda_inc)
    return Problem(t0=t0, a_mean=a_mean, a_var=a_var, n=p.n, delta=rs.delta,
                   lambda_inc=rs.lambda_inc, q=q, c=0.0, od_routes=od_routes,
                   od_blocks=_od_blocks(od_routes, q), kkt=_kkt(rs.lambda_inc),
                   links=net.links, bpr=p)


def route_costs(f: np.ndarray, net: Network, rs: RouteSet, p: BprParams,
                profile: RiskProfile, kind: IndexKind = IndexKind.CMTT) -> np.ndarray:
    """Per-route index values psi(f) at the given route flows."""
    v = link_flows(rs, np.maximum(f, 0.0))
    mom = route_moments(net, rs, v, p)
    return mom.mu + risk_coefficient(kind, profile) * mom.sigma


def assemble_F(u: np.ndarray, prob: Problem
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The mapping psi(f) at route flows u, returned with what it was built
    from: the route means mu, the link flows v and the route deviations
    sigma (``Problem.jacobian`` at u reads the last two)."""
    if u.shape != (prob.delta.shape[1],):
        raise ValueError("dimension mismatch between flows and routes")
    v = prob.link_flows(u)
    mu, sigma = prob.moments(v)
    return mu + prob.c * sigma, mu, v, sigma


def project(u: np.ndarray, prob: Problem) -> np.ndarray:
    """Euclidean projection onto {f >= 0, Lambda f = Q}, one OD simplex at a
    time: shift the OD's flows by the threshold that makes their positive
    parts sum to its demand (found by sorting), then clip at zero.  The
    flows are first taken relative to the largest, which moves only the
    threshold: every flow it keeps then lies within the demand of zero, so
    it rounds at the demand's scale rather than the flows' and the result
    meets the demand to rounding of the demand.
    """
    x = np.zeros(u.shape)
    for ks, q, ranks in prob.od_blocks:
        y = u[ks]  # a copy, worked on in place
        y -= y.max()
        s = np.sort(y)[::-1]
        excess = np.add.accumulate(s)
        excess -= q
        keep = (s * ranks > excess)[::-1]  # s[0] = 0 > -q holds for finite u
        rho = keep.size - 1 - keep.argmax()
        y -= excess[rho] / (rho + 1)
        x[ks] = np.maximum(y, 0.0, out=y)
    return x


def natural_residual(u: np.ndarray, F_u: np.ndarray, prob: Problem) -> float:
    """||u - P(u - F(u))||_inf / (1 + ||u||_inf); zero exactly at solutions."""
    return _scaled_max(u - project(u - F_u, prob), u)


def extragradient_solve(net: Network, rs: RouteSet, p: BprParams,
                        profile: RiskProfile, cfg: SolverConfig = SolverConfig(),
                        f0: np.ndarray | None = None,
                        kind: IndexKind = IndexKind.CMTT,
                        problem: Problem | None = None) -> EquilibriumResult:
    """Run the extra-gradient iteration until the natural residual meets tol
    and every OD's Wardrop gap is at most GAP_TOL.

    Starts from f0 projected onto the demand simplices (a warm start);
    without f0, from each OD's demand split equally over its routes (a
    cold start).  A start that meets the stopping test START_MARGIN times
    over is returned at once, after F's one evaluation (see the module
    docstring).  Otherwise every so often an iteration tries a Newton step
    on the used-route face and keeps it only if it lowers the natural
    residual: the solve tries at iteration 0, a kept try is its
    iteration's step and the next iteration tries again, and a rejected
    one is followed by an extra-gradient step and multiplies the gap to
    the next try by NEWTON_BACKOFF.  Returns a result flagged
    ``converged=False`` (stop reason "max_iter") if max_iter is
    exhausted; either way the last entries of its histories belong to
    f_star.  Raises SolverError on NaN or overflow and on step-size
    underflow, and DomainError outside the model's domain.

    ``problem``, if given, is ``compile_problem(net, rs, p)`` (under any
    risk coefficient), so the solves of a lambda series compile once;
    ValueError if its links, route incidence, demands or BPR form are
    not those of net, rs and p.  Either way the solve sets the risk
    coefficient from profile and kind (``Problem.with_risk``).
    """
    if problem is None:
        problem = compile_problem(net, rs, p)
    elif not _compiled_from(problem, net, rs, p):
        raise ValueError("problem was not compiled from this network, route set "
                         "and BPR form")
    prob = problem.with_risk(profile, kind)
    if f0 is None:
        f0 = prob.lambda_inc.T @ (prob.q / np.maximum(prob.lambda_inc.sum(axis=1), 1.0))
    u = project(np.asarray(f0, dtype=float), prob)
    total_q = prob.q.sum()
    Fu, mu, v, sigma = assemble_F(u, prob)
    f_evals, backtracks, tried, kept, gap, next_try = 1, 0, 0, 0, 1, 0
    residuals, antts, steps = [], [], []
    stepped = False

    for it in range(cfg.max_iter):
        # every route has a link, so a non-finite u gives a non-finite F(u)
        if not np.all(np.isfinite(Fu)):
            raise SolverError(f"non-finite iterate at iteration {it}", "non_finite",
                              np.array(residuals))
        if not stepped:  # a kept try left u - P(u - F(u)) in w
            w = u - project(u - Fu, prob)
        res = _scaled_max(w, u)
        stepped = final = False
        if it == 0 and res <= cfg.tol / START_MARGIN:
            # a start that meets the stopping test START_MARGIN times over is
            # final: it makes no try, and the stopping test reuses its gaps
            od_gaps = _od_gaps(u, Fu, prob.od_routes, prob.q)
            final = od_gaps[0].max(initial=0.0) <= GAP_TOL / START_MARGIN
        if it == next_try and not final:
            step = _face_newton(u, Fu, w, prob.jacobian(v, sigma), prob)
            res_step = math.inf
            if step is not None:  # None: the face's KKT system was not finite
                tried += 1
                f_evals += 1
                res_step = _scaled_max(step[2], step[0])
            if res_step < res:  # a NaN residual fails this too
                u, (Fu, mu, v, sigma), w = step
                res, kept, gap, stepped = res_step, kept + 1, 1, True
            else:
                gap *= NEWTON_BACKOFF
            next_try = it + gap
        if it == 0:  # after iteration 0's try, so the step fits its F
            tau = 1.0 / (1.0 + np.abs(Fu).max())
        residuals.append(res)
        antts.append(float(u @ mu / total_q) if total_q > 0 else 0.0)
        steps.append(tau)
        if not final:  # the result reuses the gaps when the solve stops here
            od_gaps = _od_gaps(u, Fu, prob.od_routes, prob.q) if res <= cfg.tol else None
        converged = od_gaps is not None and od_gaps[0].max(initial=0.0) <= GAP_TOL
        if converged or it == cfg.max_iter - 1:
            break  # the histories end at f_star, converged or not
        if stepped:
            continue  # a kept try is this iteration's step; the next one tries again
        # backtracking: shrink tau until the Lipschitz-proxy inequality holds
        while True:
            u_bar = project(u - tau * Fu, prob)
            F_bar = assemble_F(u_bar, prob)[0]
            f_evals += 1
            d_F, d_u = Fu - F_bar, u - u_bar
            lhs = tau * math.sqrt(d_F @ d_F)  # the 2-norm, as np.linalg.norm takes it
            rhs = NU * math.sqrt(d_u @ d_u)
            if lhs <= rhs or rhs == 0.0:
                break
            tau *= STEP_SHRINK
            backtracks += 1
            if tau < 1e-14:
                raise SolverError(f"step size underflow at iteration {it}",
                                  "step_underflow", np.array(residuals))
        u = project(u - tau * F_bar, prob)
        Fu, mu, v, sigma = assemble_F(u, prob)
        f_evals += 1
        tau *= STEP_GROW

    gaps, min_costs = od_gaps or _od_gaps(u, Fu, prob.od_routes, prob.q)
    return EquilibriumResult(
        f_star=u, pi_star=min_costs, iterations=len(residuals),
        residual_history=np.array(residuals), antt_history=np.array(antts),
        step_history=np.array(steps), cmtt_per_route=Fu,
        wardrop_gap=float(gaps.max(initial=0.0)), converged=converged,
        stop_reason="converged" if converged else "max_iter", f_evals=f_evals,
        backtracks=backtracks, newton_tried=tried, newton_kept=kept)


def _compiled_from(prob: Problem, net: Network, rs: RouteSet, p: BprParams) -> bool:
    """Whether prob holds net's links and demands, rs's incidence and p."""
    return ((prob.links is net.links or prob.links == net.links)
            and prob.delta is rs.delta and prob.lambda_inc is rs.lambda_inc
            and prob.bpr == p
            and prob.q.tolist() == [od.demand for od in net.od_pairs])


def _scaled_max(w: np.ndarray, u: np.ndarray) -> float:
    """||w||_inf / (1 + ||u||_inf): the natural residual when w = u - P(u - F(u))."""
    return float(np.abs(w).max() / (1.0 + np.abs(u).max()))


def _face_newton(u: np.ndarray, Fu: np.ndarray, w: np.ndarray, J: np.ndarray,
                 prob: Problem) -> tuple[np.ndarray, tuple, np.ndarray] | None:
    """The minimum-norm Newton step on the used-route face from u, given
    F(u), w = u - P(u - F(u)) and the Jacobian J at u (see the module
    docstring), as the new point u', ``assemble_F(u')`` and
    u' - P(u' - F(u')); None when its KKT system is not finite, on which
    LAPACK's least-squares solver raises or never returns."""
    free = np.ones(u.size, dtype=bool)
    for ks, q in zip(prob.od_routes, prob.q):
        if ks.size:
            eps = min(1e-3 * q, np.abs(w[ks]).max())
            free[ks] = (u[ks] > eps) | (Fu[ks] <= Fu[ks].min())
    # the whole face, as in 278 of the stand-in sweep's 298 tries: J and F
    # as they are and a copy of the compiled KKT matrix, since gathering
    # them costs 7-10 us on six routes
    if free.all():
        U, F_U, K = slice(None), Fu, prob.kkt.copy()
    else:
        U = np.flatnonzero(free)
        J, F_U, K = J[np.ix_(U, U)], Fu[U], _kkt(prob.lambda_inc[:, U])
    if not np.isfinite(J).all():  # Lambda is 0/1, so this is the KKT matrix's test
        return None
    m = F_U.size
    K[:m, :m] = J
    rhs = np.zeros(len(K))
    rhs[:m] = -F_U
    d = -u
    d[U] = np.linalg.lstsq(K, rhs, rcond=NEWTON_RCOND)[0][:m]
    u_new = project(u + d, prob)
    at_new = assemble_F(u_new, prob)
    return u_new, at_new, u_new - project(u_new - at_new[0], prob)


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
                  rel_tol: float = GAP_TOL) -> WardropReport:
    """Verify equalized-cost conditions at a converged point.

    Used routes (flow above 1e-4 of OD demand) must have index values
    within rel_tol (relative) of the OD minimum.  No route can undercut
    the minimum, which is taken over all of the OD's routes.
    """
    gaps, min_costs = _od_gaps(result.f_star, result.cmtt_per_route,
                               _od_routes(rs.lambda_inc),
                               np.array([od.demand for od in net.od_pairs]))
    return WardropReport(bool(np.all(gaps <= rel_tol)), gaps, min_costs)
