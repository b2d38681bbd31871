"""BPR link costs with uniformly degradable capacity.

Link travel time follows t0 * [1 + beta * (v / C)^n] where the realized
capacity C is uniform on [theta * C_bar, C_bar].  The mean and variance
of the travel time then have closed forms built from the negative
moments of the uniform distribution.  For integer k >= 2,

    m_k = C_bar^k E[C^-k] = sum_{j=1..k-1} theta^(-j) / (k - 1),

so E[T] = t0 + a_mean v^n and Var[T] = a_var v^(2n) with
a_mean = beta t0 m_n / C_bar^n and
a_var = (beta t0 / C_bar^n)^2 (m_2n - m_n^2).  The variance factor
m_2n - m_n^2 is evaluated as a polynomial in x = (1 - theta) / theta
whose exact rational coefficients are all >= 0, with zero constant and
linear terms, so nothing cancels anywhere in theta in (0, 1]: theta = 1
(x = 0) gives plain BPR and zero variance with no branch.  n runs from 2
to N_MAX = 519, the largest n whose coefficients fit a float.
``link_coefficients`` computes (t0, a_mean, a_var) for a tuple of links
at once, and rejects any that is not finite (:class:`DomainError`); every
other function here, and the solver's compiled problem, reads its output.

Route moments aggregate link moments under independence: means add,
variances add, sigma = sqrt of the variance sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .network import Link, Network, RouteSet

__all__ = ["BprParams", "DomainError", "RouteMoments", "bpr_time", "link_coefficients",
           "link_mean", "link_var", "link_moments_vector", "route_moments"]

# The largest exponent whose ``_variance_polynomial`` fits a float.  n = 520
# overflows, and so does every larger n: for n >= 6 the largest coefficient
# lies between b / 2 and b, with b = comb(2n, n) / (2n - 1), and b grows by a
# factor 2 (2n - 1) / (n + 1), about 4, from n to n + 1.
N_MAX = 519


class DomainError(ValueError):
    """An input outside the model's domain: a link coefficient that is not
    finite, or an index not guaranteed positive and nondecreasing."""


@dataclass(frozen=True)
class BprParams:
    beta: float = 0.15
    n: int = 4

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if self.n > N_MAX:
            raise ValueError(f"n = {self.n} is too large: the variance polynomial's "
                             "coefficients overflow a float")


@dataclass(frozen=True)
class RouteMoments:
    mu: np.ndarray     # per-route mean travel time, minutes
    sigma: np.ndarray  # per-route standard deviation, minutes


def bpr_time(link: Link, v, capacity, p: BprParams, out=None):
    """Deterministic BPR travel time t0 * [1 + beta * (v/capacity)^n].

    Array input gets one new array back, computed in place; scalar input
    gets a numpy scalar.  Given ``out``, a float array of the broadcast
    shape, the times are written into it and it is returned; ``out`` may
    be ``capacity`` itself, which then allocates nothing.
    """
    cap = np.asarray(capacity)
    # fmin skips NaN, as any(cap <= 0) would, with no array of N flags
    if cap.size and np.fmin.reduce(cap, axis=None) <= 0:
        raise ValueError("capacity must be > 0")
    t = np.asarray(np.divide(np.asarray(v, dtype=float), cap, out=out))
    np.power(t, p.n, out=t)
    t *= p.beta
    t += 1.0
    t *= link.t0
    return t if t.ndim else t[()]


@cache
def _variance_polynomial(n: int) -> tuple[float, ...]:
    """Coefficients, highest power first, of m_2n - m_n^2 in x = 1/theta - 1.

    With 1/theta = 1 + x, m_k = sum_{j=1..k-1} (1 + x)^j / (k - 1) has the
    coefficient comb(k, i + 1) / (k - 1) at x^i for i >= 1, and 1 at x^0.
    """
    def m(k):
        return [Fraction(1)] + [Fraction(math.comb(k, i + 1), k - 1) for i in range(1, k)]

    m_n, var = m(n), m(2 * n)
    for i, a in enumerate(m_n):
        for j, b in enumerate(m_n):
            var[i + j] -= a * b
    return tuple(float(c) for c in reversed(var))


def link_coefficients(links: tuple[Link, ...], p: BprParams):
    """Per-link arrays (t0, a_mean, a_var) of the moment polynomials, all finite."""
    t0, cap, theta = np.array([(l.t0, l.cap_design, l.theta) for l in links],
                              dtype=float).reshape(-1, 3).T
    # an overflow, a division by an underflowed power or inf * 0 reads
    # inf or NaN, which the check below rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = p.beta * t0 / cap ** p.n
        m_n = (theta[:, None] ** -np.arange(1, p.n)).sum(axis=1) / (p.n - 1)
        x = (1.0 - theta) / theta  # 1 - theta is exact for theta >= 1/2
        a_mean, a_var = scale * m_n, scale ** 2 * np.polyval(_variance_polynomial(p.n), x)
    bad = np.flatnonzero(~(np.isfinite(a_mean) & np.isfinite(a_var)))
    if bad.size:
        i = bad[0]
        raise DomainError(
            f"moment coefficients of link {links[i].id} are not finite: t0 "
            f"{t0[i]:.6g}, mean {a_mean[i]:.6g}, variance {a_var[i]:.6g}")
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
