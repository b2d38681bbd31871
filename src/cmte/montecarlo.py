"""Monte-Carlo verification of the closed-form moments and tail means.

Every analytic formula in :mod:`cmte.bpr` and :mod:`cmte.indices` has an
empirical counterpart here: link travel-time moments are estimated by
sampling the uniform capacity, conditional tail means by sampling the
normal route time and splitting at the empirical quantile.  Estimates
come with standard errors, and ``oracle_report`` asserts agreement within
CI_MULTIPLIER = 3 of them.

Sampling uses numpy's seeded PCG64 generator; a fixed seed gives
bitwise-identical estimates across runs.

The estimators own their sample buffer and work on it in place.  The
link times from ``bpr.bpr_time`` are centred and squared in that one
array, which gives the variance bit for bit as ``np.var(ddof=1)`` does,
then squared again for the fourth central moment.  Each square is one
correctly rounded multiply; ``** 4`` would call ``pow``, which is slow
on the negative centred values.  The tail split selects the order
statistic with ``ndarray.partition``, O(N), instead of sorting: the two
sides hold the same samples as after a sort, only in another order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bpr, indices
from .bpr import BprParams
from .network import Link, Network

__all__ = ["McConfig", "McMoments", "McTails", "mc_link_moments",
           "mc_tail_means", "oracle_report"]

RNG_ALGORITHM = "numpy PCG64"
CI_MULTIPLIER = 3.0  # a claim passes within this many standard errors


@dataclass(frozen=True)
class McConfig:
    samples: int = 10 ** 6
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.samples, (int, np.integer)) or self.samples < 10 ** 4:
            raise ValueError(f"samples must be an integer >= 1e4, got {self.samples!r}")


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


def mc_link_moments(link: Link, v: float, p: BprParams, cfg: McConfig) -> McMoments:
    """Empirical mean/variance of the BPR time over sampled capacities.

    Capacity is drawn uniformly on [theta * cap, cap].  The variance
    standard error uses the fourth-central-moment formula
    Var(s^2) ~= (m4 - s^4) / N.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.samples
    caps = rng.uniform(link.theta * link.cap_design, link.cap_design, size=n)
    t = bpr.bpr_time(link, v, caps, p)
    mean = float(t.mean())
    t -= mean
    t *= t
    var = float(t.sum() / (n - 1))
    t *= t
    m4 = float(t.mean())
    mean_se = math.sqrt(var / n)
    var_se = math.sqrt(max(m4 - var ** 2, 0.0) / n)
    return McMoments(mean, var, mean_se, var_se)


def mc_tail_means(mu: float, sigma: float, alpha: float, cfg: McConfig) -> McTails:
    """Empirical conditional means of N(mu, sigma) split at the alpha-quantile.

    The quantile is the order statistic at index ceil(alpha * N)
    (lower-tail inclusive).  Samples at-or-below it estimate the
    mean-below index, the rest the mean-excess index; each side needs at
    least two samples for its standard error.
    """
    if not (0.0 < alpha < 1.0 and math.isfinite(mu) and 0.0 < sigma < math.inf):
        raise ValueError("need 0 < alpha < 1, finite mu and finite sigma > 0, "
                         f"got alpha={alpha!r}, mu={mu!r}, sigma={sigma!r}")
    m = math.ceil(alpha * cfg.samples)
    if not 2 <= m <= cfg.samples - 2:
        raise ValueError(f"alpha = {alpha!r} leaves {m} of {cfg.samples} samples "
                         "below the split; each side needs at least 2")
    rng = np.random.default_rng(cfg.seed)
    s = rng.normal(mu, sigma, size=cfg.samples)
    s.partition(m - 1)
    below, excess = s[:m], s[m:]
    return McTails(
        below_mean=float(below.mean()),
        excess_mean=float(excess.mean()),
        quantile=float(s[m - 1]),
        below_se=float(below.std(ddof=1) / math.sqrt(below.size)),
        excess_se=float(excess.std(ddof=1) / math.sqrt(excess.size)),
    )


def oracle_report(net: Network, p: BprParams, cfg: McConfig,
                  thetas=(0.6, 0.8), flow_fracs=(0.5, 1.0, 1.5),
                  tail_cases=((20.0, 3.0, 0.9), (15.0, 5.0, 0.8), (30.0, 1.0, 0.95))):
    """Run every closed-form-vs-sampling comparison and tabulate the outcome.

    Returns (rows, all_pass) where each row is
    (claim id, closed-form value, estimate, standard error, "pass"/"fail").
    Link claims cover each network link at the given flow fractions of
    design capacity and degradation degrees; tail claims cover the
    mean-below / mean-excess formulas at the given (mu, sigma, alpha)
    triples.
    """
    from dataclasses import replace

    rows = []
    ok = True

    def add(claim, closed, estimate, se):
        nonlocal ok
        passed = abs(closed - estimate) <= CI_MULTIPLIER * se
        ok = ok and passed
        rows.append((claim, closed, estimate, se, "pass" if passed else "fail"))

    seed = cfg.seed
    for link in net.links:
        for theta in thetas:
            lk = replace(link, theta=theta)
            for frac in flow_fracs:
                v = frac * link.cap_design
                sub = McConfig(cfg.samples, seed)
                seed += 1
                est = mc_link_moments(lk, v, p, sub)
                tag = f"link{link.id}_theta{theta:g}_v{frac:g}C"
                add(f"mean_{tag}", float(bpr.link_mean(lk, v, p)), est.mean, est.mean_se)
                add(f"var_{tag}", float(bpr.link_var(lk, v, p)), est.var, est.var_se)

    for mu, sigma, a in tail_cases:
        sub = McConfig(cfg.samples, seed)
        seed += 1
        est = mc_tail_means(mu, sigma, a, sub)
        tag = f"mu{mu:g}_sigma{sigma:g}_alpha{a:g}"
        add(f"mbtt_{tag}", float(indices.mbtt(mu, sigma, a)), est.below_mean, est.below_se)
        add(f"mett_{tag}", float(indices.mett(mu, sigma, a)), est.excess_mean, est.excess_se)

    return rows, ok
