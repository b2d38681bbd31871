"""Monte-Carlo verification of the closed-form moments and tail means.

Every analytic formula in :mod:`cmte.bpr` and :mod:`cmte.indices` has an
empirical counterpart here: link travel-time moments are estimated by
sampling the uniform capacity, conditional tail means by sampling the
normal route time and splitting at the empirical quantile.  Estimates
come with standard errors, and ``oracle_report`` asserts agreement within
CI_MULTIPLIER = 3 of them.  A tail mean's standard error includes the
variance that estimating the split point adds (see ``mc_tail_means``),
so its z-scores spread with standard deviation 1.

Sampling uses numpy's seeded PCG64 generator; a fixed seed gives
bitwise-identical estimates across runs.

Each estimate works in one buffer of N doubles, in place.  The buffer is
filled with standard draws and scaled (``rng.random(out=)`` then
``* (hi - lo) + lo``, ``rng.standard_normal(out=)`` then ``* sigma + mu``),
which is what ``rng.uniform`` and ``rng.normal`` compute, bit for bit
on a numpy build without fused multiply-add (the tests check it).
The link times from ``bpr.bpr_time`` overwrite the capacities, and are
centred and squared in that one array, which gives the variance bit for
bit as ``np.var(ddof=1)`` does, then squared again for the fourth
central moment.  Each square is one correctly rounded multiply; ``** 4``
would call ``pow``, which is slow on the negative centred values.  The
tail split selects the order statistic with ``ndarray.partition``, O(N),
instead of sorting: the two sides hold the same samples as after a sort,
only in another order, and each side's variance is taken in place.

``oracle_report`` runs its estimates MC_THREADS at a time on a thread
pool.  Each estimate owns its generator, and numpy releases the GIL
while it fills and reduces arrays, so the threads run on separate cores.
A pool thread keeps one sample buffer, allocated by the report before
any thread starts, and every estimate it runs reuses it; an estimator
called outside the pool allocates its own.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import bpr, indices
from .bpr import BprParams
from .network import Link, Network

__all__ = ["McConfig", "McMoments", "McTails", "mc_link_moments",
           "mc_tail_means", "oracle_report"]

RNG_ALGORITHM = "numpy PCG64"
CI_MULTIPLIER = 3.0  # a claim passes within this many standard errors
# Estimates in flight at once in ``oracle_report``.  Two sample buffers
# of N doubles hold what one estimate held when it allocated capacities
# and times apart, so peak memory stays put, and the hosts this is
# measured on have two cores.
MC_THREADS = 2

THETAS = (0.6, 0.8)
FLOW_FRACS = (0.5, 1.0, 1.5)
TAIL_CASES = ((20.0, 3.0, 0.9), (15.0, 5.0, 0.8), (30.0, 1.0, 0.95))

_thread = threading.local()  # ``buffer``: a pool thread's sample buffer


@dataclass(frozen=True)
class McConfig:
    samples: int = 10 ** 6
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.samples, (int, np.integer)) or self.samples < 10 ** 4:
            raise ValueError(f"samples must be an integer >= 1e4, got {self.samples!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class McMoments:
    mean: float
    var: float
    mean_se: float
    var_se: float


@dataclass(frozen=True)
class McTails:
    below_mean: float
    excess_mean: float
    quantile: float
    below_se: float
    excess_se: float


def _sample_buffer(n: int) -> np.ndarray:
    """The calling pool thread's buffer if it holds n doubles, else a new one."""
    buf = getattr(_thread, "buffer", None)
    return buf if buf is not None and buf.size == n else np.empty(n)


def _variance_in_place(x: np.ndarray, mean: float) -> float:
    """Sample variance (ddof=1) of x about its mean, bit for bit as
    ``np.var(ddof=1)``; x is left holding the squared deviations."""
    x -= mean
    x *= x
    return float(x.sum() / (x.size - 1))


def mc_link_moments(link: Link, v: float, p: BprParams, cfg: McConfig) -> McMoments:
    """Empirical mean/variance of the BPR time over sampled capacities.

    Capacity is drawn uniformly on [theta * cap, cap].  The variance
    standard error uses the fourth-central-moment formula
    Var(s^2) ~= (m4 - s^4) / N.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.samples
    t = _sample_buffer(n)
    low = link.theta * link.cap_design
    rng.random(out=t)
    t *= link.cap_design - low
    t += low
    bpr.bpr_time(link, v, t, p, out=t)
    mean = float(t.mean())
    var = _variance_in_place(t, mean)
    t *= t
    m4 = float(t.mean())
    mean_se = math.sqrt(var / n)
    var_se = math.sqrt(max(m4 - var ** 2, 0.0) / n)
    return McMoments(mean, var, mean_se, var_se)


def mc_tail_means(mu: float, sigma: float, alpha: float, cfg: McConfig) -> McTails:
    """Empirical conditional means of N(mu, sigma) split at the alpha-quantile.

    The quantile q is the order statistic at index m = ceil(alpha * N)
    (lower-tail inclusive).  Samples at-or-below it estimate the
    mean-below index, the rest the mean-excess index; each side needs at
    least two samples for its standard error.

    The split point is itself estimated, which adds to each mean's
    variance (Manistre & Hancock, N. Am. Actuarial J. 2005):

        excess_se^2 = (var(excess) + (m / N) (mean_excess - q)^2) / (N - m)
        below_se^2 = (var(below) + ((N - m) / N) (q - mean_below)^2) / m

    with var the sample variance of that side (ddof=1).  Without the
    second terms the mean-excess standard error is about 1.5x too small.
    """
    if not (0.0 < alpha < 1.0 and math.isfinite(mu) and 0.0 < sigma < math.inf):
        raise ValueError("need 0 < alpha < 1, finite mu and finite sigma > 0, "
                         f"got alpha={alpha!r}, mu={mu!r}, sigma={sigma!r}")
    n = cfg.samples
    m = math.ceil(alpha * n)
    if not 2 <= m <= n - 2:
        raise ValueError(f"alpha = {alpha!r} leaves {m} of {n} samples "
                         "below the split; each side needs at least 2")
    rng = np.random.default_rng(cfg.seed)
    s = _sample_buffer(n)
    rng.standard_normal(out=s)
    s *= sigma
    s += mu
    s.partition(m - 1)
    below, excess = s[:m], s[m:]
    q = float(s[m - 1])
    below_mean, excess_mean = float(below.mean()), float(excess.mean())
    below_var = _variance_in_place(below, below_mean) + (n - m) / n * (q - below_mean) ** 2
    excess_var = _variance_in_place(excess, excess_mean) + m / n * (excess_mean - q) ** 2
    return McTails(below_mean=below_mean, excess_mean=excess_mean, quantile=q,
                   below_se=math.sqrt(below_var / m),
                   excess_se=math.sqrt(excess_var / (n - m)))


def oracle_report(net: Network, p: BprParams, cfg: McConfig):
    """Run every closed-form-vs-sampling comparison and tabulate the outcome.

    Returns (rows, all_pass) where each row is
    (claim id, closed-form value, estimate, standard error, "pass"/"fail").
    Link claims cover each network link at the degradation degrees THETAS
    and the flow fractions FLOW_FRACS of design capacity; tail claims
    cover the mean-below / mean-excess formulas at the (mu, sigma, alpha)
    triples TAIL_CASES.

    The link closed forms are computed first, so a link whose coefficients
    are not finite raises ``bpr.DomainError`` before any sampling.  The
    estimates take seeds cfg.seed, cfg.seed + 1, ... in that order,
    link estimates first, and run on MC_THREADS pool threads.  Each
    thread reuses one sample buffer of N doubles, allocated by the report
    before any thread starts, so a sample count that does not fit raises
    ``MemoryError`` before any work.  Two threads hold 2 N doubles, as
    much as one estimate held when it drew capacities and times into
    separate arrays.  Rows come back in seed order and equal a one-by-one
    run bit for bit.  An estimate that raises cancels those not yet
    started, and the first failing one in seed order propagates, as in a
    one-by-one run.
    """
    links = [(replace(link, theta=theta), frac * link.cap_design,
              f"link{link.id}_theta{theta:g}_v{frac:g}C")
             for link in net.links for theta in THETAS for frac in FLOW_FRACS]
    link_closed = [(float(bpr.link_mean(lk, v, p)), float(bpr.link_var(lk, v, p)))
                   for lk, v, _ in links]
    calls = ([(mc_link_moments, lk, v, p) for lk, v, _ in links]
             + [(mc_tail_means, mu, sigma, a) for mu, sigma, a in TAIL_CASES])
    estimates = iter(_run_estimates(calls, cfg))

    rows = []

    def add(claim, closed, estimate, se):
        passed = abs(closed - estimate) <= CI_MULTIPLIER * se
        rows.append((claim, closed, estimate, se, "pass" if passed else "fail"))

    for (_, _, tag), (mean, var), est in zip(links, link_closed, estimates):
        add(f"mean_{tag}", mean, est.mean, est.mean_se)
        add(f"var_{tag}", var, est.var, est.var_se)

    for (mu, sigma, a), est in zip(TAIL_CASES, estimates):
        tag = f"mu{mu:g}_sigma{sigma:g}_alpha{a:g}"
        add(f"mbtt_{tag}", float(indices.mbtt(mu, sigma, a)), est.below_mean, est.below_se)
        add(f"mett_{tag}", float(indices.mett(mu, sigma, a)), est.excess_mean, est.excess_se)

    return rows, all(r[4] == "pass" for r in rows)


def _run_estimates(calls, cfg: McConfig) -> list:
    """Results of ``estimator(*args, McConfig(cfg.samples, cfg.seed + i))`` for
    the i-th call, run MC_THREADS at a time, in call order."""
    from concurrent.futures import ThreadPoolExecutor

    buffers = [np.empty(cfg.samples) for _ in range(MC_THREADS)]

    def take_buffer():
        _thread.buffer = buffers.pop()

    def run(i, call):
        estimator, *args = call
        return estimator(*args, McConfig(cfg.samples, cfg.seed + i))

    with ThreadPoolExecutor(MC_THREADS, initializer=take_buffer) as pool:
        return list(pool.map(run, range(len(calls)), calls))
