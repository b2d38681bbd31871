"""Alpha-reliable travel time indices for normal route travel times.

A route travel time T ~ N(mu, sigma) admits a family of reliability
indices that all reduce to the form  mu + c * sigma  with a scalar
coefficient c determined by the confidence level alpha (and, for the
combined index, the optimism weight lambda).  The sign of c encodes the
risk attitude: negative is optimistic, zero neutral, positive
pessimistic.

Indices provided:

- ``ttb``   travel time budget, the alpha-quantile of T
- ``mbtt``  mean of T conditioned at-or-below the alpha-quantile
- ``mett``  mean of T conditioned above the alpha-quantile
- ``cmtt``  convex combination  lambda * mbtt + (1 - lambda) * mett

All functions accept scalars or numpy arrays for mu / sigma.  The
standard normal quantile and density come from the standard library's
``statistics.NormalDist`` (the quantile is Wichura's AS241 algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

__all__ = [
    "RiskProfile",
    "IndexKind",
    "std_normal_quantile",
    "ttb",
    "mbtt",
    "mett",
    "cmtt",
    "risk_coefficient",
]

_STD_NORMAL = NormalDist()


@dataclass(frozen=True)
class RiskProfile:
    """Confidence level and optimism weight selecting a point in the family.

    alpha must lie strictly inside (0, 1); the quantile is unbounded at the
    endpoints.  lam is the weight on the optimistic (below-quantile) index
    and must lie in [0, 1].
    """

    alpha: float
    lam: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")


class IndexKind(Enum):
    """Named members of the index family.

    MTT is the plain mean (coefficient 0); it is the alpha -> 1 limit of
    MBTT, which is never evaluated through the quantile to avoid the
    infinity at alpha = 1.  CMTT is the only member that reads lam.
    """

    MTT = "mtt"
    PTT_TTB = "ttb"
    MBTT = "mbtt"
    METT = "mett"
    CMTT = "cmtt"


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF at a scalar p.

    Raises ValueError outside the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)


def _phi_at_quantile(alpha: float) -> float:
    """Density of the standard normal evaluated at its alpha-quantile."""
    return _STD_NORMAL.pdf(std_normal_quantile(alpha))


def ttb(mu, sigma, alpha):
    """Travel time budget: mu + sigma * quantile(alpha).

    The time a traveller reserves to arrive on schedule with probability
    alpha; coincides with the alpha-percentile travel time under
    normality.
    """
    _check_sigma(sigma)
    return mu + sigma * std_normal_quantile(alpha)


def mbtt(mu, sigma, alpha):
    """Mean-below travel time: E[T | T <= alpha-quantile].

    Risk-optimistic; never exceeds mu.
    """
    _check_sigma(sigma)
    return mu - sigma * _phi_at_quantile(alpha) / alpha


def mett(mu, sigma, alpha):
    """Mean-excess travel time: E[T | T >= alpha-quantile].

    Risk-pessimistic (the CVaR analogue); never falls below mu.
    """
    _check_sigma(sigma)
    return mu + sigma * _phi_at_quantile(alpha) / (1.0 - alpha)


def cmtt(mu, sigma, profile: RiskProfile):
    """Combined mean travel time.

    Equals lambda * mbtt + (1 - lambda) * mett, with closed form
    mu + (alpha - lambda) * sigma * phi(q_alpha) / (alpha * (1 - alpha)).
    lam = 0 recovers mett, lam = 1 recovers mbtt, lam = alpha gives mu.
    """
    _check_sigma(sigma)
    a, lam = profile.alpha, profile.lam
    return mu + sigma * (a - lam) * _phi_at_quantile(a) / (a * (1.0 - a))


def risk_coefficient(kind: IndexKind, profile: RiskProfile) -> float:
    """Coefficient c such that the index equals mu + c * sigma."""
    a, lam = profile.alpha, profile.lam
    if kind is IndexKind.MTT:
        return 0.0
    if kind is IndexKind.PTT_TTB:
        return std_normal_quantile(a)
    phi_q = _phi_at_quantile(a)
    if kind is IndexKind.MBTT:
        return -phi_q / a
    if kind is IndexKind.METT:
        return phi_q / (1.0 - a)
    if kind is IndexKind.CMTT:
        return (a - lam) * phi_q / (a * (1.0 - a))
    raise ValueError(f"unknown index kind: {kind}")


def _check_sigma(sigma):
    if np.any(np.asarray(sigma) < 0.0):
        raise ValueError("sigma must be nonnegative")
