"""Mittag-Leffler evaluation against independent references."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx

from subdiff.mittag_leffler import TARGET_ABS, _evaluate, ml_tail_bound, ml_values, mittag_leffler


def ml_reference(alpha, z, dps=150):
    """High-precision power series; usable for |z| up to about 5."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        zz = mp.mpf(z)
        total = mp.mpf(1)
        k = 1
        while True:
            term = zz**k / mp.gamma(a * k + 1)
            total += term
            if abs(term) < mp.mpf("1e-60") and a * k > 3:
                break
            k += 1
            if k > 6000:
                raise RuntimeError("reference series did not converge")
        return float(total)


class TestFrozenValues:
    # two independent routes (scipy erfcx and a 150-digit mpmath series)
    # agreed on these digits before they were frozen
    def test_pinned_points(self):
        cases = [
            (1.0, -1.0, 0.36787944117144233),
            (0.5, -1.0, 0.427583576155807),
            (0.3, -2.0, 0.29023222616787536),
            (0.7, -3.0, 0.13789710966502708),
        ]
        for alpha, z, want in cases:
            got = mittag_leffler(alpha, z)
            np.testing.assert_allclose(got.value, want, rtol=0, atol=5e-14)
            assert got.accurate

    def test_value_at_zero_is_exactly_one(self):
        for alpha in (0.2, 0.5, 0.9, 1.0):
            e = mittag_leffler(alpha, 0.0)
            assert e.value == 1.0
            assert e.error_estimate <= 4.0 * np.finfo(float).eps

    def test_order_one_is_exp(self):
        for z in (-50.0, -3.0, -0.7, 0.0):
            e = mittag_leffler(1.0, z)
            np.testing.assert_allclose(e.value, math.exp(z), rtol=1e-15)
            assert e.method == "exp"


class TestHalfOrder:
    """alpha = 1/2 has the closed form E(z) = exp(z^2) erfc(-z)."""

    def test_negative_axis_dense(self):
        xs = np.linspace(0.0, 30.0, 1001)
        vals = ml_values(0.5, -xs)
        np.testing.assert_allclose(vals, erfcx(xs), rtol=0, atol=1e-10)

    def test_negative_axis_far_tail(self):
        for x in (1e2, 1e3, 1e5, 1e6):
            e = mittag_leffler(0.5, -x)
            np.testing.assert_allclose(e.value, erfcx(x), rtol=1e-11)
            assert abs(e.value - erfcx(x)) <= e.error_estimate + 2e-13

    def test_switchover_band_is_seamless(self):
        # a dense sweep of moderate x against the closed form
        xs = np.linspace(3.5, 6.5, 301)
        vals = ml_values(0.5, -xs)
        np.testing.assert_allclose(vals, erfcx(xs), rtol=0, atol=1e-11)


class TestSeriesReference:
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.8])
    def test_matches_mpmath_and_estimate_is_honest(self, alpha):
        zs = [-5.0, -4.5, -4.0, -2.5, -1.0, -0.1]
        for z in zs:
            want = ml_reference(alpha, z)
            got = mittag_leffler(alpha, z)
            err = abs(got.value - want)
            assert err <= got.error_estimate + 2e-13, (
                f"alpha={alpha} z={z} method={got.method}: "
                f"err={err:.3e} > estimate={got.error_estimate:.3e}"
            )
            np.testing.assert_allclose(got.value, want, rtol=1e-11, atol=1e-10)


class TestLaplaceTransform:
    """int_0^inf e^-t E_a(-lam t^a) dt = 1/(1+lam), a classical identity that
    exercises every method region in one number."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_transform(self, alpha, lam):
        def f(t):
            return math.exp(-t) * mittag_leffler(alpha, -lam * t**alpha).value

        val, quad_err = quad(f, 0.0, 200.0, limit=300)
        # the truncated tail is below e^-200; quad's own estimate dominates
        np.testing.assert_allclose(val, 1.0 / (1.0 + lam), rtol=0, atol=1e-9 + 10 * quad_err)


def spectral_reference(alpha, x, dps=30):
    """30-digit ``mpmath.quad`` of the real spectral integral for E_a(-x),

    sin(a pi)/(a pi) int_0^inf exp(-(u x)^(1/a)) / (u^2 + 2 u cos(a pi) + 1) du,

    split at the exponential cut-off near u = 1/x (sharp for small a) and at
    the Lorentzian peak u = -cos(a pi) (sharp as a -> 1)."""
    with mp.workdps(dps):
        a, xx = mp.mpf(alpha), mp.mpf(x)
        c = mp.cos(mp.pi * a)
        edges = {mp.mpf(0), 1 / (2 * xx), 1 / xx, 2 / xx}
        if c < 0:
            edges.add(-c)

        def integrand(u):
            return mp.exp(-((u * xx) ** (1 / a))) / (u * u + 2 * u * c + 1)

        return float(mp.sin(mp.pi * a) / (mp.pi * a) * mp.quad(integrand, sorted(edges) + [mp.inf]))


class TestSpectralReference:
    """The whole promised negative axis against an independent 30-digit reference."""

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.3, 0.5, 0.8, 0.9, 0.99, 0.999])
    def test_error_within_estimate_and_target(self, alpha):
        for x in np.geomspace(1e-8, 1e6, 8):
            got = mittag_leffler(alpha, -x)
            err = abs(got.value - spectral_reference(alpha, x))
            assert err <= got.error_estimate <= TARGET_ABS, (
                f"alpha={alpha} x={x:.3g}: err={err:.3e} estimate={got.error_estimate:.3e}"
            )
            assert err <= 1e-13
            assert got.accurate


class TestVectorized:
    def test_shape_and_agreement(self):
        zs = np.array([[-3.0, -0.5], [0.0, -1.5]])
        vals = ml_values(0.4, zs)
        assert vals.shape == zs.shape
        for idx in np.ndindex(zs.shape):
            assert vals[idx] == mittag_leffler(0.4, zs[idx]).value

    # 600 negative arguments fill two blocks of contour terms and part of a third
    @pytest.mark.parametrize("alpha, count", [(0.4, 40), (1.0, 40), (0.4, 600)])
    def test_mixed_signs_match_scalar_bitwise(self, alpha, count):
        zs = np.concatenate([-np.geomspace(1e-8, 1e6, count), [0.0, -0.0], -np.linspace(0.05, 6.0, 12)])
        zs = np.random.default_rng(0).permutation(zs).reshape(-1, 9 if count == 40 else 2)
        vals, ests = _evaluate(alpha, zs)
        assert vals.shape == ests.shape == zs.shape
        for idx in np.ndindex(zs.shape):
            e = mittag_leffler(alpha, zs[idx])
            assert (vals[idx], ests[idx], bool(ests[idx] <= TARGET_ABS)) == (e.value, e.error_estimate, e.accurate)

    @pytest.mark.parametrize(
        "bad, error", [(float("nan"), ValueError), (float("inf"), ValueError), (-float("inf"), ValueError), (27.0, ValueError)]
    )
    def test_bad_element_raises_like_scalar(self, bad, error):
        with pytest.raises(error) as scalar:
            mittag_leffler(0.5, bad)
        with pytest.raises(error) as array:
            _evaluate(0.5, np.array([-1.0, 0.0, bad, -2.0]))
        assert str(array.value) == str(scalar.value)


class TestTailBound:
    def test_half_order_weighted_sup(self):
        xs = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 500)])
        rep = ml_tail_bound(0.5, xs)
        assert rep.sup_weighted <= 1.2
        assert rep.decreasing
        assert rep.convex
        # (1+x) erfcx(x) is maximal at the origin
        assert rep.argmax == 0.0
        np.testing.assert_allclose(rep.values, erfcx(xs), atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    def test_monotone_flags(self, alpha):
        xs = np.concatenate([[0.0], np.geomspace(1e-2, 100.0, 200)])
        rep = ml_tail_bound(alpha, xs)
        assert rep.decreasing
        assert rep.convex
        assert rep.values[0] == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ml_tail_bound(0.5, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            ml_tail_bound(0.5, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            ml_tail_bound(0.5, np.array([-1.0, 0.0, 1.0]))


class TestDomainErrors:
    def test_alpha_out_of_range(self):
        for alpha in (0.0, -0.3, 1.2):
            with pytest.raises(ValueError):
                mittag_leffler(alpha, -1.0)

    def test_nonfinite_argument(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.5, float("nan"))
        with pytest.raises(ValueError):
            mittag_leffler(0.5, float("inf"))

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_positive_argument_is_outside_the_domain(self, alpha):
        for z in (1e-300, 0.5, 27.0):
            with pytest.raises(ValueError, match="must not be positive"):
                mittag_leffler(alpha, z)
        with pytest.raises(ValueError, match="must not be positive"):
            ml_values(alpha, np.array([-1.0, 0.0, 2.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.01, 0.5, 0.95])
    def test_arguments_near_the_float_limit_give_finite_values(self, alpha):
        # the contour terms once divided by s (s^a - z), which overflows from about -z = 1e307 and gave NaN
        # values with NaN estimates; E_a(-x) tends to 1 / (Gamma(1 - a) x), with the next term x^-2 smaller
        for z in (-1e307, -1.7e308):
            e = mittag_leffler(alpha, z)
            assert math.isfinite(e.value) and math.isfinite(e.error_estimate) and e.accurate
            np.testing.assert_allclose(e.value, 1.0 / math.gamma(1.0 - alpha) / -z, rtol=1e-10)
        if alpha == 0.5:
            xs = np.array([1e307, 1.7e308])
            np.testing.assert_allclose(ml_values(alpha, -xs), erfcx(xs), rtol=1e-10)


class TestAccuracyContract:
    def test_target_is_advertised(self):
        assert TARGET_ABS == 1e-10

    def test_accurate_flag_tracks_estimate(self):
        for z in (-0.5, -5.0, -80.0, -1e4):
            e = mittag_leffler(0.5, z)
            assert e.accurate == (e.error_estimate <= TARGET_ABS)
            assert e.accurate
