import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr

from cmte.indices import (IndexKind, RiskProfile, cmtt, mbtt, mett, risk_coefficient,
                          std_normal_quantile, ttb)

ALPHA_GRID = [round(0.05 * i, 2) for i in range(1, 20)]  # 0.05 .. 0.95
MU_GRID = [1.0, 10.0, 100.0]
SIGMA_GRID = [0.0, 1.0, 10.0]


class TestNormalNumerics:
    def test_quantile_at_half(self):
        assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_quantile_roundtrip(self):
        for p in np.arange(0.01, 1.0, 0.01):
            assert ndtr(std_normal_quantile(p)) == pytest.approx(p, abs=1e-10)

    def test_quantile_at_09_against_bisection(self):
        # independent oracle: bisection on scipy's normal CDF
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ndtr(mid) < 0.9:
                lo = mid
            else:
                hi = mid
        assert std_normal_quantile(0.9) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_quantile_domain(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)


class TestProfile:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            RiskProfile(alpha, 0.5)

    @pytest.mark.parametrize("lam", [-0.1, 1.1])
    def test_lambda_rejected(self, lam):
        with pytest.raises(ValueError):
            RiskProfile(0.9, lam)


class TestTtb:
    def test_neutral_at_half(self):
        assert ttb(20.0, 3.0, 0.5) == pytest.approx(20.0, abs=1e-12)

    def test_zero_sigma(self):
        for a in (0.1, 0.5, 0.9):
            assert ttb(20.0, 0.0, a) == 20.0

    def test_explicit_value(self):
        assert ttb(20.0, 3.0, 0.9) == pytest.approx(
            20.0 + 3.0 * std_normal_quantile(0.9), rel=1e-14)


class TestTailIndices:
    def test_zero_sigma(self):
        assert mbtt(20.0, 0.0, 0.9) == 20.0
        assert mett(20.0, 0.0, 0.9) == 20.0

    def test_alpha_half_anchors(self):
        c = math.sqrt(2.0 / math.pi)
        assert mbtt(20.0, 3.0, 0.5) == pytest.approx(20.0 - 3.0 * c, rel=1e-12)
        assert mett(20.0, 3.0, 0.5) == pytest.approx(20.0 + 3.0 * c, rel=1e-12)

    def test_recombination_identity(self):
        # alpha * below + (1 - alpha) * excess must reconstruct the mean
        for mu in MU_GRID:
            for sigma in SIGMA_GRID:
                for a in ALPHA_GRID:
                    lhs = a * mbtt(mu, sigma, a) + (1 - a) * mett(mu, sigma, a)
                    assert lhs == pytest.approx(mu, abs=1e-10)

    def test_ordering(self):
        for a in ALPHA_GRID:
            assert mbtt(20.0, 3.0, a) < 20.0 < mett(20.0, 3.0, a)
        for a in [x for x in ALPHA_GRID if x >= 0.5]:
            assert mbtt(20.0, 3.0, a) <= ttb(20.0, 3.0, a) <= mett(20.0, 3.0, a)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            mbtt(20.0, -1.0, 0.9)


class TestCmtt:
    def test_lambda_endpoints(self):
        for a in (0.2, 0.5, 0.9):
            assert cmtt(20.0, 3.0, RiskProfile(a, 0.0)) == pytest.approx(
                mett(20.0, 3.0, a), rel=1e-12)
            assert cmtt(20.0, 3.0, RiskProfile(a, 1.0)) == pytest.approx(
                mbtt(20.0, 3.0, a), rel=1e-12)

    def test_lambda_equals_alpha_is_mean(self):
        for a in ALPHA_GRID:
            assert cmtt(20.0, 3.0, RiskProfile(a, a)) == pytest.approx(20.0, abs=1e-12)

    def test_branch_consistency(self):
        # closed form vs explicit convex combination
        for mu in MU_GRID:
            for sigma in SIGMA_GRID:
                for a in ALPHA_GRID:
                    for lam in (0.0, 0.3, 0.7, 1.0):
                        combo = lam * mbtt(mu, sigma, a) + (1 - lam) * mett(mu, sigma, a)
                        closed = cmtt(mu, sigma, RiskProfile(a, lam))
                        assert closed == pytest.approx(combo, rel=1e-12, abs=1e-12)

    def test_explicit_mix(self):
        lam, a = 0.5, 0.9
        expected = lam * mbtt(20.0, 3.0, a) + (1 - lam) * mett(20.0, 3.0, a)
        assert cmtt(20.0, 3.0, RiskProfile(a, lam)) == pytest.approx(expected, rel=1e-12)

    @given(lam1=st.floats(0.0, 1.0), lam2=st.floats(0.0, 1.0),
           alpha=st.floats(0.05, 0.95))
    def test_strictly_decreasing_in_lambda(self, lam1, lam2, alpha):
        if abs(lam1 - lam2) < 1e-9:  # below float resolution of the index
            return
        lo, hi = sorted((lam1, lam2))
        a = cmtt(20.0, 3.0, RiskProfile(alpha, lo))
        b = cmtt(20.0, 3.0, RiskProfile(alpha, hi))
        assert b < a


class TestRiskCoefficient:
    def test_table_anchors(self):
        c = math.sqrt(2.0 / math.pi)
        half = RiskProfile(0.5, 0.5)
        assert risk_coefficient(IndexKind.MBTT, half) == pytest.approx(-c, rel=1e-12)
        assert risk_coefficient(IndexKind.METT, half) == pytest.approx(c, rel=1e-12)
        assert risk_coefficient(IndexKind.PTT_TTB, half) == pytest.approx(0.0, abs=1e-12)
        assert risk_coefficient(IndexKind.CMTT, RiskProfile(0.9, 0.9)) == pytest.approx(
            0.0, abs=1e-12)
        assert risk_coefficient(IndexKind.MTT, RiskProfile(0.9, 0.3)) == 0.0

    def test_sign_classifies_attitude(self):
        p = RiskProfile(0.9, 0.5)
        assert risk_coefficient(IndexKind.MBTT, p) < 0
        assert risk_coefficient(IndexKind.METT, p) > 0
        assert risk_coefficient(IndexKind.CMTT, RiskProfile(0.9, 0.95)) < 0
        assert risk_coefficient(IndexKind.CMTT, RiskProfile(0.9, 0.2)) > 0

    def test_index_recovery(self):
        mu, sigma = 20.0, 3.0
        for a in ALPHA_GRID:
            p = RiskProfile(a, 0.4)
            cases = {
                IndexKind.PTT_TTB: ttb(mu, sigma, a),
                IndexKind.MBTT: mbtt(mu, sigma, a),
                IndexKind.METT: mett(mu, sigma, a),
                IndexKind.CMTT: cmtt(mu, sigma, p),
                IndexKind.MTT: mu,
            }
            for kind, expected in cases.items():
                assert mu + risk_coefficient(kind, p) * sigma == pytest.approx(
                    expected, rel=1e-12)
