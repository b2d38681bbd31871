import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmte.bpr import (N_MAX, BprParams, bpr_time, link_coefficients, link_mean,
                      link_moments_vector, link_var, route_moments,
                      _variance_polynomial)
from cmte.montecarlo import McConfig, mc_link_moments
from cmte.network import Link, Network, ODPair, build_route_set
from cmte.presets import standin_network

P = BprParams()  # beta=0.15, n=4


def make_link(t0=10.0, cap=1000.0, theta=0.8):
    return Link(1, 1, 2, t0, cap, theta)


class TestParams:
    def test_defaults(self):
        assert P.beta == 0.15 and P.n == 4

    @pytest.mark.parametrize("kwargs", [
        dict(beta=0.0), dict(beta=-1.0), dict(n=1), dict(n=0), dict(n=2.5)])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            BprParams(**{"beta": 0.15, "n": 4, **kwargs})

    @pytest.mark.parametrize("n", [520, 521, 2000, 10 ** 6])
    def test_overflowing_n_rejected_fast(self, n):
        # decided against N_MAX, not by building the exact polynomial
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"n = {n} is too large"):
            BprParams(n=n)
        assert time.perf_counter() - start < 0.5

    def test_largest_finite_n_accepted(self):
        assert BprParams(n=519).n == 519

    def test_n_max_is_the_largest_n_whose_polynomial_fits_a_float(self):
        assert all(math.isfinite(c) for c in _variance_polynomial(N_MAX))
        with pytest.raises(OverflowError):
            _variance_polynomial(N_MAX + 1)

    @pytest.mark.parametrize("n", [6, 7, 10, 50])
    def test_overflow_bound_brackets_the_largest_coefficient(self, n):
        # b = comb(2n, n) / (2n - 1), with b / 2 <= the largest <= b
        largest = max(_variance_polynomial(n))
        b = math.comb(2 * n, n) / (2 * n - 1)
        assert b / 2 <= largest <= b


class TestBprTime:
    def test_free_flow(self):
        assert bpr_time(make_link(), 0.0, 1000.0, P) == 10.0

    def test_at_capacity(self):
        assert bpr_time(make_link(), 1000.0, 1000.0, P) == pytest.approx(11.5)

    def test_over_capacity(self):
        # 10 * (1 + 0.15 * 16)
        assert bpr_time(make_link(), 2000.0, 1000.0, P) == pytest.approx(34.0)

    def test_capacity_domain(self):
        with pytest.raises(ValueError):
            bpr_time(make_link(), 100.0, 0.0, P)

    def test_capacity_domain_of_an_array(self):
        with pytest.raises(ValueError):
            bpr_time(make_link(), 100.0, np.array([1000.0, -1.0, 900.0]), P)

    def test_scalar_in_scalar_out(self):
        t = bpr_time(make_link(), 1000.0, 900.0, P)
        assert isinstance(t, np.float64) and np.ndim(t) == 0

    def test_leaves_the_capacity_array_unchanged(self):
        caps = np.array([800.0, 1000.0, 1200.0])
        kept = caps.copy()
        t = bpr_time(make_link(), 1000.0, caps, P)
        assert np.array_equal(caps, kept)
        assert t is not caps and not np.shares_memory(t, caps)
        assert np.array_equal(t, 10.0 * (1.0 + 0.15 * (1000.0 / kept) ** 4))

    @pytest.mark.parametrize("into_capacity", [False, True])
    def test_writes_into_out(self, into_capacity):
        caps = np.array([800.0, 1000.0, 1200.0])
        expected = bpr_time(make_link(), 1000.0, caps, P)
        buf = caps if into_capacity else np.empty(3)
        assert bpr_time(make_link(), 1000.0, caps, P, out=buf) is buf
        assert np.array_equal(buf, expected)


class TestLinkMean:
    def test_free_flow(self):
        assert link_mean(make_link(), 0.0, P) == pytest.approx(10.0)

    def test_theta_near_one_matches_plain_bpr(self):
        lk = make_link(theta=0.999999)
        assert link_mean(lk, 1000.0, P) == pytest.approx(11.5, rel=1e-4)

    def test_theta_one_is_plain_bpr(self):
        lk = make_link(theta=1.0)
        assert link_mean(lk, 1000.0, P) == pytest.approx(11.5, rel=1e-12)

    def test_closed_form_value(self):
        # exact evaluation of the uniform-capacity moment formula
        assert link_mean(make_link(), 1000.0, P) == pytest.approx(12.3828125, rel=1e-10)

    def test_degradation_worsens_mean(self):
        lk = make_link()
        for v in (100.0, 500.0, 1000.0, 2000.0):
            assert link_mean(lk, v, P) > bpr_time(lk, v, lk.cap_design, P)

    def test_matches_monte_carlo(self):
        lk = make_link()
        est = mc_link_moments(lk, 1000.0, P, McConfig(samples=10 ** 6, seed=42))
        assert abs(link_mean(lk, 1000.0, P) - est.mean) <= 3 * est.mean_se


class TestLinkVar:
    def test_free_flow(self):
        assert link_var(make_link(), 0.0, P) == 0.0

    def test_theta_one(self):
        assert link_var(make_link(theta=1.0), 1000.0, P) == 0.0

    def test_closed_form_value(self):
        assert link_var(make_link(), 1000.0, P) == pytest.approx(0.37851, rel=1e-4)

    def test_nonnegative(self):
        for theta in (0.3, 0.6, 0.9, 0.999):
            for v in (0.0, 500.0, 1500.0, 3000.0):
                assert link_var(make_link(theta=theta), v, P) >= 0.0

    def test_continuity_at_theta_one(self):
        lk_near = make_link(theta=1.0 - 1e-6)
        lk_one = make_link(theta=1.0)
        m_near = link_mean(lk_near, 1000.0, P)
        m_one = link_mean(lk_one, 1000.0, P)
        assert abs(m_near - m_one) / m_one < 1e-4

    def test_matches_monte_carlo(self):
        lk = make_link()
        est = mc_link_moments(lk, 1000.0, P, McConfig(samples=10 ** 6, seed=7))
        assert abs(link_var(lk, 1000.0, P) - est.var) <= 3 * est.var_se


class TestRouteMoments:
    def _series_net(self):
        links = (Link(1, 1, 2, 10.0, 1000.0, 0.8), Link(2, 2, 3, 10.0, 1000.0, 0.8))
        return Network(links, (ODPair(1, 3, 100.0),))

    def test_single_link_route(self):
        links = (Link(1, 1, 2, 10.0, 1000.0, 0.8),)
        net = Network(links, (ODPair(1, 2, 100.0),))
        rs = build_route_set(net)
        v = np.array([700.0])
        mom = route_moments(net, rs, v, P)
        assert mom.mu[0] == pytest.approx(link_mean(links[0], 700.0, P))
        assert mom.sigma[0] == pytest.approx(np.sqrt(link_var(links[0], 700.0, P)))

    def test_two_identical_links_in_series(self):
        net = self._series_net()
        rs = build_route_set(net)
        v = np.array([800.0, 800.0])
        mom = route_moments(net, rs, v, P)
        one_mean = link_mean(net.links[0], 800.0, P)
        one_sd = np.sqrt(link_var(net.links[0], 800.0, P))
        assert mom.mu[0] == pytest.approx(2 * one_mean)
        assert mom.sigma[0] == pytest.approx(np.sqrt(2) * one_sd)

    def test_mu_at_least_free_flow(self):
        net = self._series_net()
        rs = build_route_set(net)
        for v_level in (0.0, 500.0, 2000.0):
            mom = route_moments(net, rs, np.full(2, v_level), P)
            assert mom.mu[0] >= 20.0 - 1e-12
            assert np.all(mom.sigma >= 0.0)


class TestLinkCoefficientsCache:
    # link_coefficients keeps no memo; what a cache once gave, equal arrays
    # for equal link tuples, now follows from the links' values alone

    def test_equal_link_tuples_share_arrays(self):
        base = standin_network()
        one, two = base.with_uniform_theta(0.8), base.with_uniform_theta(0.8)
        assert one.links is not two.links and one.links == two.links
        a, b = link_coefficients(one.links, P), link_coefficients(two.links, P)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        c = link_coefficients(base.with_uniform_theta(0.7).links, P)
        assert not np.array_equal(a[1], c[1])

    def test_network_links_key_like_the_plain_tuple(self):
        # a network's links are a plain tuple; a demand-scaled copy keeps the
        # very links object, which a solve given a compiled problem tests by
        # identity first
        net = standin_network()
        plain = tuple(net.links)
        assert hash(net.links) == hash(plain) and net.links == plain
        assert net.with_scaled_demand(2.0).links is net.links
        a = link_coefficients(net.links, P)
        for x, y in zip(a, link_coefficients(plain, P)):
            assert np.array_equal(x, y)
        changed = Network((replace(net.links[0], cap_design=900.0),) + plain[1:],
                          net.od_pairs)
        assert not np.array_equal(link_coefficients(changed.links, P)[1], a[1])


# theta exactly 1 mixed with theta < 1 in one network: the vectorised
# closed forms must agree with the one-link functions link by link.
_LINK = st.tuples(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
                  st.floats(1.0, 30.0), st.floats(200.0, 3000.0), st.floats(0.0, 4000.0))


@given(st.lists(_LINK, min_size=1, max_size=8))
def test_link_moments_vector_matches_scalar_closed_forms(rows):
    links = tuple(Link(i + 1, 1, 2, t0, cap, theta)
                  for i, (theta, t0, cap, _) in enumerate(rows))
    v = np.array([row[3] for row in rows])
    means, variances = link_moments_vector(Network(links, ()), v, P)
    np.testing.assert_allclose(means, [link_mean(l, x, P) for l, x in zip(links, v)],
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(variances, [link_var(l, x, P) for l, x in zip(links, v)],
                               rtol=1e-12, atol=0.0)


def exact_coefficients(link, p):
    """(a_mean, a_var) in exact rational arithmetic from the textbook form
    E[C^-k] = (theta^(1-k) - 1) / (cap^k (k - 1) (1 - theta)), k = n, 2n."""
    theta, cap = Fraction(link.theta), Fraction(link.cap_design)

    def m(k):  # cap^k E[C^-k]
        return Fraction(1) if theta == 1 else (theta ** (1 - k) - 1) / ((k - 1) * (1 - theta))

    scale = Fraction(p.beta) * Fraction(link.t0) / cap ** p.n
    return scale * m(p.n), scale ** 2 * (m(2 * p.n) - m(p.n) ** 2)


# theta over the accepted range, and within 1e-12 of 1 where m_2n - m_n^2
# cancels if formed from its two terms
_THETA = st.one_of(st.floats(1e-3, 1.0), st.floats(1.0 - 1e-12, 1.0))


@given(_THETA, st.floats(1.0, 30.0), st.floats(200.0, 3000.0), st.sampled_from([2, 3, 4, 5, 6]))
def test_link_coefficients_match_exact_rational_oracle(theta, t0, cap, n):
    p = BprParams(n=n)
    link = Link(1, 1, 2, t0, cap, theta)
    _, a_mean, a_var = link_coefficients((link,), p)
    mean_exact, var_exact = exact_coefficients(link, p)
    assert a_mean[0] == pytest.approx(float(mean_exact), rel=1e-12)
    assert a_var[0] == pytest.approx(float(var_exact), rel=1e-12, abs=0.0)
    if theta == 1.0:
        assert a_var[0] == 0.0
