import math
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmte import bpr, indices, montecarlo
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
    """Sorted split; standard errors in the influence-function form of each
    tail mean, std((X - q) 1{X > q}) / ((1 - alpha) sqrt(N)) and its
    mirror below, with alpha the share m / N at or below q."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.samples
    s = np.sort(rng.normal(mu, sigma, size=n))
    m = math.ceil(alpha * n)
    q = s[m - 1]
    below, excess = s[:m], s[m:]
    return (float(below.mean()), float(excess.mean()), float(q),
            float(np.std(np.where(s <= q, s - q, 0.0)) / (m / n * math.sqrt(n))),
            float(np.std(np.where(s > q, s - q, 0.0)) / ((n - m) / n * math.sqrt(n))))


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

    @pytest.mark.parametrize("seed", [1.0, 0.5, "0", -1, np.int64(-3), True, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed .*{re.escape(repr(seed))}"):
            McConfig(seed=seed)

    def test_numpy_integer_seed(self):
        assert McConfig(seed=np.uint32(7)).seed == 7


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
        # the two forms differ only in that each side's variance takes ddof=1,
        # which raises the standard error of a side of size k by a factor in
        # [1, sqrt(1 + 1 / (k - 1))]
        m = math.ceil(alpha * cfg.samples)
        for se, plain, k in ((est.below_se, below_se, m),
                             (est.excess_se, excess_se, cfg.samples - m)):
            ratio = se / plain
            assert 1 - 1e-6 <= ratio <= math.sqrt(1 + 1 / (k - 1)) * (1 + 1e-6)

    @pytest.mark.parametrize("mu, sigma, alpha", montecarlo.TAIL_CASES)
    def test_standard_errors_cover(self, mu, sigma, alpha):
        # over independent streams the errors measured in standard errors
        # spread with standard deviation 1; leaving out that the split is
        # estimated read 1.1-1.5 here
        z_below, z_excess = [], []
        for seed in range(1000):
            est = mc_tail_means(mu, sigma, alpha, McConfig(samples=10 ** 4, seed=seed))
            z_below.append((est.below_mean - indices.mbtt(mu, sigma, alpha)) / est.below_se)
            z_excess.append((est.excess_mean - indices.mett(mu, sigma, alpha)) / est.excess_se)
        assert 0.9 <= np.std(z_below) <= 1.1
        assert 0.9 <= np.std(z_excess) <= 1.1

    def test_determinism(self):
        a = mc_tail_means(20.0, 3.0, 0.9, McConfig(samples=10 ** 5, seed=99))
        b = mc_tail_means(20.0, 3.0, 0.9, McConfig(samples=10 ** 5, seed=99))
        assert a == b


def one_by_one_report(net, p, cfg):
    """The report's rows from each estimator called in turn in this thread,
    over the claims that THETAS, FLOW_FRACS and TAIL_CASES name at call time."""
    rows, seed = [], cfg.seed

    def add(claim, closed, estimate, se):
        ok = abs(closed - estimate) <= montecarlo.CI_MULTIPLIER * se
        rows.append((claim, closed, estimate, se, "pass" if ok else "fail"))

    for link in net.links:
        for theta in montecarlo.THETAS:
            lk = replace(link, theta=theta)
            for frac in montecarlo.FLOW_FRACS:
                v = frac * link.cap_design
                est = mc_link_moments(lk, v, p, McConfig(cfg.samples, seed))
                seed += 1
                tag = f"link{link.id}_theta{theta:g}_v{frac:g}C"
                add(f"mean_{tag}", float(bpr.link_mean(lk, v, p)), est.mean, est.mean_se)
                add(f"var_{tag}", float(bpr.link_var(lk, v, p)), est.var, est.var_se)
    for mu, sigma, a in montecarlo.TAIL_CASES:
        est = mc_tail_means(mu, sigma, a, McConfig(cfg.samples, seed))
        seed += 1
        tag = f"mu{mu:g}_sigma{sigma:g}_alpha{a:g}"
        add(f"mbtt_{tag}", float(indices.mbtt(mu, sigma, a)), est.below_mean, est.below_se)
        add(f"mett_{tag}", float(indices.mett(mu, sigma, a)), est.excess_mean, est.excess_se)
    return rows, all(r[4] == "pass" for r in rows)


class TestOracleReport:
    def test_small_run_passes(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "THETAS", (0.8,))
        monkeypatch.setattr(montecarlo, "FLOW_FRACS", (1.0,))
        monkeypatch.setattr(montecarlo, "TAIL_CASES", ((20.0, 3.0, 0.9),))
        net = three_route_toy()
        rows, ok = oracle_report(net, P, McConfig(samples=10 ** 5, seed=3))
        assert ok
        # mean+var per link per theta per flow, plus two tail claims
        assert len(rows) == 3 * 2 + 2
        assert all(r[4] == "pass" for r in rows)

    def test_standin_streams(self):
        # Pins the sampled streams: at base seed 0 and 1e6 samples exactly this
        # claim misses its 3-SE bound, so ``cmte verify`` exits 2.  Changing a
        # seed or an rng call changes this list.
        rows, ok = oracle_report(standin_network(), P, McConfig(samples=10 ** 6, seed=0))
        assert len(rows) == 13 * 2 * 3 * 2 + 3 * 2
        assert [r[0] for r in rows if r[4] == "fail"] == ["var_link7_theta0.6_v0.5C"]
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

    @pytest.mark.parametrize("samples", [10 ** 4, 10 ** 5])
    @pytest.mark.parametrize("make_net", [standin_network, three_route_toy])
    def test_rows_equal_a_one_by_one_run(self, make_net, samples):
        net, cfg = make_net(), McConfig(samples=samples, seed=7)
        assert oracle_report(net, P, cfg) == one_by_one_report(net, P, cfg)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (600.0, 1000.0), (1e-3, 2.5e4)])
    def test_buffer_fills_match_numpy_draws(self, seed, low, high):
        # the estimators scale standard draws in their buffer; on a numpy
        # build without fused multiply-add that is rng.uniform / rng.normal
        n = 10 ** 4
        buf = np.empty(n)
        np.random.default_rng(seed).random(out=buf)
        buf *= high - low
        buf += low
        assert np.array_equal(buf, np.random.default_rng(seed).uniform(low, high, n))
        mu, sigma = low, high / 7.0
        np.random.default_rng(seed).standard_normal(out=buf)
        buf *= sigma
        buf += mu
        assert np.array_equal(buf, np.random.default_rng(seed).normal(mu, sigma, n))

    def test_rows_hold_with_more_threads_than_cores(self, monkeypatch):
        # a buffer shared by two threads, or a result put in the wrong
        # place, would change rows; frequent switches make that likely
        monkeypatch.setattr(montecarlo, "MC_THREADS", 4)
        net, cfg = three_route_toy(), McConfig(samples=10 ** 4, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = [oracle_report(net, P, cfg) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert rows == [one_by_one_report(net, P, cfg)] * 5

    def test_failing_estimate_raises_as_one_by_one(self, monkeypatch):
        net, cfg = three_route_toy(), McConfig(samples=10 ** 4, seed=0)
        monkeypatch.setattr(montecarlo, "TAIL_CASES",
                            ((20.0, 3.0, 0.9), (20.0, 3.0, 1.5), (15.0, 5.0, 2.0)))
        with pytest.raises(ValueError) as expected:
            one_by_one_report(net, P, cfg)
        threads, raised = threading.active_count(), []

        def report():
            try:
                oracle_report(net, P, cfg)
            except ValueError as exc:
                raised.append(exc)

        caller = threading.Thread(target=report)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert [str(e) for e in raised] == [str(expected.value)]
        assert "alpha=1.5" in str(raised[0])
        assert threading.active_count() == threads

    def test_failure_cancels_estimates_not_started(self, monkeypatch):
        real, calls = montecarlo.mc_link_moments, []

        def failing(link, v, p, cfg):
            calls.append(cfg.seed)
            if cfg.seed == 4:
                raise RuntimeError("estimate 4 failed")
            return real(link, v, p, cfg)

        monkeypatch.setattr(montecarlo, "mc_link_moments", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="estimate 4 failed"):
            oracle_report(standin_network(), P, McConfig(samples=10 ** 6, seed=0))
        assert len(calls) < 78
        assert threading.active_count() == threads

    def test_at_most_mc_threads_in_flight(self, monkeypatch):
        lock, now, peak = threading.Lock(), [0], [0]

        def counting(real):
            def wrapper(*args):
                with lock:
                    now[0] += 1
                    peak[0] = max(peak[0], now[0])
                try:
                    time.sleep(0.002)  # keep each estimate in flight a while
                    return real(*args)
                finally:
                    with lock:
                        now[0] -= 1
            return wrapper

        for name in ("mc_link_moments", "mc_tail_means"):
            monkeypatch.setattr(montecarlo, name, counting(getattr(montecarlo, name)))
        threads = threading.active_count()
        oracle_report(standin_network(), P, McConfig(samples=10 ** 4, seed=0))
        assert peak[0] == montecarlo.MC_THREADS
        assert threading.active_count() == threads

    def test_memory_holds_one_buffer_per_thread(self):
        # each pool thread reuses the buffer the report allocated for it; an
        # estimate that allocated its own samples would add 8 N bytes a thread
        # (read 2.2 x 8 N bytes against 4.2 with per-call buffers)
        n = 10 ** 5
        oracle_report(three_route_toy(), P, McConfig(samples=10 ** 4, seed=0))  # imports
        tracemalloc.start()
        try:
            oracle_report(three_route_toy(), P, McConfig(samples=n, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (montecarlo.MC_THREADS + 1) * 8 * n
