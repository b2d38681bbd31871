"""BPR link costs with uniformly degradable capacity.

Link travel time follows t0 * [1 + beta * (v / C)^n] where the realized
capacity C is uniform on [theta * C_bar, C_bar].  The mean and variance
of the travel time then have closed forms built from the negative
moments of the uniform distribution:

    E[C^-n] = (1 - theta^(1-n)) / (C_bar^n * (1 - theta) * (1 - n))

and similarly with 2n for the second moment, so E[T] = t0 + a_mean v^n
and Var[T] = a_var v^(2n) with a_mean = beta t0 E[C^-n] and
a_var = (beta t0)^2 (E[C^-2n] - E[C^-n]^2).  ``link_coefficients``
computes (t0, a_mean, a_var) for many links at once and holds the only
theta -> 1 branch: theta = 1 is the deterministic limit (plain BPR, zero
variance), taken for each link with |1 - theta| < 1e-9 to stay clear of
the 0/0.  Every other function here, and the solver's compiled problem,
reads its output.

Route moments aggregate link moments under independence: means add,
variances add, sigma = sqrt of the variance sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Link, Network, RouteSet

__all__ = ["BprParams", "RouteMoments", "bpr_time", "link_coefficients", "link_mean",
           "link_var", "link_moments_vector", "route_moments"]

THETA_LIMIT_EPS = 1e-9


@dataclass(frozen=True)
class BprParams:
    beta: float = 0.15
    n: int = 4

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")


@dataclass(frozen=True)
class RouteMoments:
    mu: np.ndarray     # per-route mean travel time, minutes
    sigma: np.ndarray  # per-route standard deviation, minutes


def bpr_time(link: Link, v, capacity, p: BprParams):
    """Deterministic BPR travel time t0 * [1 + beta * (v/capacity)^n]."""
    if np.any(np.asarray(capacity) <= 0):
        raise ValueError("capacity must be > 0")
    return link.t0 * (1.0 + p.beta * (np.asarray(v, dtype=float) / capacity) ** p.n)


def _inv_cap_moment(theta, cap, order):
    """E[C^-order] for C ~ U(theta*cap, cap), theta < 1."""
    return (1.0 - theta ** (1 - order)) / (cap ** order * (1.0 - theta) * (1 - order))


def link_coefficients(links: tuple[Link, ...], p: BprParams):
    """Per-link arrays (t0, a_mean, a_var) of the moment polynomials."""
    t0, cap, theta = np.array([(l.t0, l.cap_design, l.theta) for l in links],
                              dtype=float).reshape(-1, 3).T
    bt = p.beta * t0
    a_mean = bt / cap ** p.n  # theta = 1: plain BPR
    a_var = np.zeros_like(bt)
    d = 1.0 - theta >= THETA_LIMIT_EPS
    m1 = _inv_cap_moment(theta[d], cap[d], p.n)
    m2 = _inv_cap_moment(theta[d], cap[d], 2 * p.n)
    a_mean[d] = bt[d] * m1
    a_var[d] = bt[d] ** 2 * (m2 - m1 ** 2)
    return t0, a_mean, a_var


def link_mean(link: Link, v, p: BprParams):
    """Expected travel time under degradable capacity."""
    t0, a_mean, _ = link_coefficients((link,), p)
    return t0[0] + a_mean[0] * np.asarray(v, dtype=float) ** p.n


def link_var(link: Link, v, p: BprParams):
    """Travel time variance under degradable capacity (0 when theta = 1)."""
    _, _, a_var = link_coefficients((link,), p)
    return a_var[0] * np.asarray(v, dtype=float) ** (2 * p.n)


def link_moments_vector(net: Network, v: np.ndarray, p: BprParams):
    """Per-link (means, variances) arrays for a link-flow vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (net.n_links,):
        raise ValueError(f"link-flow vector has shape {v.shape}, "
                         f"expected ({net.n_links},)")
    t0, a_mean, a_var = link_coefficients(net.links, p)
    return t0 + a_mean * v ** p.n, a_var * v ** (2 * p.n)


def route_moments(net: Network, rs: RouteSet, v: np.ndarray, p: BprParams) -> RouteMoments:
    """Aggregate link moments to routes assuming independent link times."""
    means, variances = link_moments_vector(net, v, p)
    mu = rs.delta.T @ means
    sigma = np.sqrt(rs.delta.T @ variances)
    return RouteMoments(mu, sigma)
