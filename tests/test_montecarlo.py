import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmte import montecarlo
from cmte.bpr import BprParams, bpr_time
from cmte.montecarlo import McConfig, mc_link_moments, mc_tail_means, oracle_report
from cmte.network import Link
from cmte.presets import standin_network, three_route_toy

P = BprParams()


def make_link(theta=0.8):
    return Link(1, 1, 2, 10.0, 1000.0, theta)


# Reference estimators: the plain formulas the in-place ones replaced, drawing
# the same streams.
def plain_link_moments(link, v, p, cfg):
    rng = np.random.default_rng(cfg.seed)
    n = cfg.samples
    caps = rng.uniform(link.theta * link.cap_design, link.cap_design, size=n)
    t = link.t0 * (1.0 + p.beta * (np.asarray(v, dtype=float) / caps) ** p.n)
    mean = float(t.mean())
    var = float(t.var(ddof=1))
    m4 = float(((t - mean) ** 4).mean())
    return (mean, var, math.sqrt(var / n), math.sqrt(max(m4 - var ** 2, 0.0) / n))


def plain_tail_means(mu, sigma, alpha, cfg):
    rng = np.random.default_rng(cfg.seed)
    s = np.sort(rng.normal(mu, sigma, size=cfg.samples))
    m = math.ceil(alpha * cfg.samples)
    below, excess = s[:m], s[m:]
    return (float(below.mean()), float(excess.mean()), float(s[m - 1]),
            float(below.std(ddof=1) / math.sqrt(below.size)),
            float(excess.std(ddof=1) / math.sqrt(excess.size)))


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


class TestConfig:
    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            McConfig(samples=100)

    @pytest.mark.parametrize("samples", [10000.5, 1e6, True, "1000000"])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(ValueError):
            McConfig(samples=samples)

    def test_numpy_integer_samples(self):
        assert McConfig(samples=np.int64(10 ** 4)).samples == 10 ** 4


class TestLinkMoments:
    def test_deterministic_capacity(self):
        est = mc_link_moments(make_link(theta=1.0), 1000.0, P, McConfig(seed=1))
        assert est.mean == pytest.approx(bpr_time(make_link(), 1000.0, 1000.0, P))
        assert est.var == pytest.approx(0.0, abs=1e-20)

    def test_zero_flow(self):
        est = mc_link_moments(make_link(), 0.0, P, McConfig(seed=1))
        assert est.mean == 10.0
        assert est.var == 0.0

    def test_same_seed_bitwise_identical(self):
        a = mc_link_moments(make_link(), 1000.0, P, McConfig(seed=123))
        b = mc_link_moments(make_link(), 1000.0, P, McConfig(seed=123))
        assert a == b

    def test_se_shrinks_with_samples(self):
        # quadrupling N should roughly halve the standard error
        small = mc_link_moments(make_link(), 1000.0, P,
                                McConfig(samples=250_000, seed=5))
        big = mc_link_moments(make_link(), 1000.0, P,
                              McConfig(samples=1_000_000, seed=5))
        ratio = small.mean_se / big.mean_se
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(0.0, 1.0, exclude_min=True), frac=st.floats(0.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_plain_formulas(self, theta, frac, seed):
        link, cfg = make_link(theta), McConfig(samples=10 ** 4, seed=seed)
        est = mc_link_moments(link, frac * link.cap_design, P, cfg)
        mean, var, mean_se, var_se = plain_link_moments(link, frac * link.cap_design, P, cfg)
        assert est.mean == mean and est.var == var and est.mean_se == mean_se
        assert close(est.var_se, var_se)


class TestTailMeans:
    def test_alpha_half_anchors(self):
        est = mc_tail_means(20.0, 3.0, 0.5, McConfig(samples=10 ** 6, seed=11))
        c = 3.0 * math.sqrt(2.0 / math.pi)
        assert abs(est.below_mean - (20.0 - c)) <= 3 * est.below_se
        assert abs(est.excess_mean - (20.0 + c)) <= 3 * est.excess_se

    def test_recombination(self):
        a = 0.9
        est = mc_tail_means(20.0, 3.0, a, McConfig(samples=10 ** 6, seed=12))
        recombined = a * est.below_mean + (1 - a) * est.excess_mean
        se = math.hypot(a * est.below_se, (1 - a) * est.excess_se)
        assert abs(recombined - 20.0) <= 3 * se

    def test_tiny_sigma(self):
        est = mc_tail_means(20.0, 1e-9, 0.9, McConfig(samples=10 ** 5, seed=13))
        assert est.below_mean == pytest.approx(20.0, abs=1e-7)
        assert est.excess_mean == pytest.approx(20.0, abs=1e-7)

    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            mc_tail_means(20.0, 0.0, 0.9, McConfig(seed=1))

    @pytest.mark.parametrize("mu, sigma, alpha", [
        (20.0, 3.0, 1.0), (20.0, 3.0, 0.0), (20.0, 3.0, -0.5), (20.0, 3.0, 1.5),
        (20.0, 3.0, math.nan), (20.0, 3.0, math.inf),
        (20.0, 3.0, 0.99999999), (20.0, 3.0, 0.9999), (20.0, 3.0, 1e-4),
        (20.0, math.nan, 0.9), (20.0, math.inf, 0.9),
        (math.nan, 3.0, 0.9), (-math.inf, 3.0, 0.9)])
    def test_domain(self, mu, sigma, alpha):
        with pytest.raises(ValueError):
            mc_tail_means(mu, sigma, alpha, McConfig(samples=10 ** 4, seed=1))

    def test_smallest_splits(self):
        # two samples on each side is the least the standard errors need
        for alpha in (2e-4, 0.9998):
            est = mc_tail_means(20.0, 3.0, alpha, McConfig(samples=10 ** 4, seed=1))
            assert all(map(math.isfinite, (est.below_mean, est.excess_mean,
                                           est.below_se, est.excess_se)))

    @settings(max_examples=60, deadline=None)
    @given(mu=st.floats(-100.0, 100.0), sigma=st.floats(1e-6, 50.0),
           alpha=st.floats(0.01, 0.99), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_plain_formulas(self, mu, sigma, alpha, seed):
        cfg = McConfig(samples=10 ** 4, seed=seed)
        est = mc_tail_means(mu, sigma, alpha, cfg)
        below, excess, quantile, below_se, excess_se = plain_tail_means(mu, sigma, alpha, cfg)
        assert est.quantile == quantile
        assert close(est.below_mean, below) and close(est.excess_mean, excess)
        assert close(est.below_se, below_se) and close(est.excess_se, excess_se)

    def test_determinism(self):
        a = mc_tail_means(20.0, 3.0, 0.9, McConfig(samples=10 ** 5, seed=99))
        b = mc_tail_means(20.0, 3.0, 0.9, McConfig(samples=10 ** 5, seed=99))
        assert a == b


class TestOracleReport:
    def test_small_run_passes(self):
        net = three_route_toy()
        rows, ok = oracle_report(net, P, McConfig(samples=10 ** 5, seed=3),
                                 thetas=(0.8,), flow_fracs=(1.0,),
                                 tail_cases=((20.0, 3.0, 0.9),))
        assert ok
        # mean+var per link per theta per flow, plus two tail claims
        assert len(rows) == 3 * 2 + 2
        assert all(r[4] == "pass" for r in rows)

    def test_standin_streams(self):
        # Pins the sampled streams: at base seed 0 and 1e6 samples exactly these
        # two claims miss their 3-SE bound.  Changing a seed or an rng call
        # changes this list.
        rows, ok = oracle_report(standin_network(), P, McConfig(samples=10 ** 6, seed=0))
        assert len(rows) == 13 * 2 * 3 * 2 + 3 * 2
        assert [r[0] for r in rows if r[4] == "fail"] == [
            "var_link7_theta0.6_v0.5C", "mett_mu15_sigma5_alpha0.8"]
        assert not ok

    def test_estimators_are_called_through_the_module(self, monkeypatch):
        # benchmark/hooks.py times each estimate by wrapping these module
        # attributes and reads the samples from the 4th positional argument.
        calls = {"mc_link_moments": [], "mc_tail_means": []}

        def counting(real, seen):
            def wrapper(*a, **kw):
                seen.append((a, kw))
                return real(*a, **kw)
            return wrapper

        for name, seen in calls.items():
            monkeypatch.setattr(montecarlo, name, counting(getattr(montecarlo, name), seen))
        cfg = McConfig(samples=10 ** 4, seed=0)
        oracle_report(standin_network(), P, cfg)
        assert len(calls["mc_link_moments"]) == 78 and len(calls["mc_tail_means"]) == 3
        for a, kw in calls["mc_link_moments"] + calls["mc_tail_means"]:
            assert len(a) == 4 and not kw
            assert isinstance(a[3], McConfig) and a[3].samples == cfg.samples
