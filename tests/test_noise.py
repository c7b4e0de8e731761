import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from logidp.noise import (
    LogisticParams,
    ks_distance,
    logistic_cdf,
    logistic_log_pdf,
    sample_gaussian,
    sample_laplace,
    sample_logistic,
)
from logidp.mia import AttackSet
from logidp.pipeline import Dataset, TrainConfig
from logidp.rng import RngStream, check_float, derive_seed
from logidp.sensitivity import sample_sensitivity
from logidp.weights import WeightVector


class TestRngStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)
        with pytest.raises(ValueError):
            RngStream(3, -1)
        for seed in (1.5, True):
            with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
                RngStream(seed)

    def test_derive_seed_rejects_non_integer_master_seed(self):
        with pytest.raises(ValueError, match="^master_seed must be an integer, got 1.5$"):
            derive_seed(1.5, "x")

    @pytest.mark.parametrize("value, bounds, message", [
        (-1.0, {"above": 0}, "scale must be > 0, got -1.0"),
        (0, {"at_least": 0.5}, "scale must be >= 0.5, got 0"),
        (1.0, {"at_least": 0, "below": 1}, "scale must be < 1, got 1.0"),
        (1.5, {"at_least": 0, "at_most": 1}, "scale must be <= 1, got 1.5"),
        (np.float32("inf"), {}, f"scale must be a finite number, got {np.float32('inf')!r}"),
        (np.bool_(True), {}, f"scale must be a finite number, got {np.bool_(True)!r}"),
        (None, {}, "scale must be a finite number, got None"),
        pytest.param(10**400, {}, f"scale must be a finite number, got {10**400!r}", id="int-beyond-float"),
        pytest.param(np.longdouble("1e400"), {}, f"scale must be a finite number, got {np.longdouble('1e400')!r}",
                     id="longdouble-beyond-float"),
    ])
    def test_check_float_refusals(self, value, bounds, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_float(value, "scale", **bounds)

    def test_check_float_returns_a_float(self):
        for value in (3, np.int64(3), np.float32(3.0), 3.0):
            got = check_float(value, "x", above=0, at_least=3, below=4, at_most=3)
            assert got == 3.0 and type(got) is float

    @pytest.mark.parametrize("field, read", [
        pytest.param("membership", lambda v: AttackSet(np.array([[0.5, 0.5, 1.0, 0.0]] * 2), v, 2),
                     id="AttackSet"),
        pytest.param("labels", lambda v: Dataset(np.zeros((2, 1)), v, 2), id="Dataset"),
        pytest.param("indices", lambda v: Dataset(np.zeros((2, 1)), [0, 1], 2).subset(v), id="subset"),
        pytest.param("pairs", lambda v: sample_sensitivity(WeightVector(np.zeros(0), "encoder:in=0,hidden=0"),
                                                           Dataset(np.zeros((2, 1)), [0, 1], 2), TrainConfig(),
                                                           1, 0, pairs=[v]), id="sample_sensitivity"),
    ])
    @pytest.mark.parametrize("bits", [[1, True], (0, np.True_)], ids=["list", "tuple"])
    def test_integer_arrays_refuse_a_bool_inside_a_list(self, field, read, bits):
        # numpy would read [1, True] as the int64 array [1, 1]
        with pytest.raises(ValueError, match=f"^{field} must be integers, got {re.escape(repr(bits[1]))}$"):
            read(bits)

    def test_uniforms_open_interval(self):
        u = RngStream(99, 0).uniforms(200_000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_uniforms_are_pure(self):
        r = RngStream(7, 2)
        assert np.array_equal(r.uniforms(50), r.uniforms(50))

    def test_distinct_streams_differ(self):
        a = RngStream(7, 0).uniforms(10)
        b = RngStream(7, 1).uniforms(10)
        assert not np.array_equal(a, b)

    def test_prefix_property(self):
        r = RngStream(123, 5)
        assert np.array_equal(r.uniforms(10), r.uniforms(1000)[:10])
        assert np.array_equal(r.indices(10, 17), r.indices(1000, 17)[:10])

    def test_indices_range(self):
        idx = RngStream(5).indices(10_000, 7)
        assert idx.min() >= 0
        assert idx.max() <= 6

    def test_permutation(self):
        p = RngStream(11).permutation(20)
        assert sorted(p.tolist()) == list(range(20))
        assert np.array_equal(p, RngStream(11).permutation(20))

    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(42, "noise", 0)
        assert a == derive_seed(42, "noise", 0)
        assert a != derive_seed(42, "noise", 1)
        assert 0 <= a < 2**64


def logistic_pdf(x, p: LogisticParams):
    """Reference density of logistic(mu, s)."""
    return stats.logistic.pdf(x, loc=p.mu, scale=p.s)


def two_branch_logistic_cdf(t: np.ndarray) -> np.ndarray:
    """The standard logistic CDF split on the sign of t, so exp never overflows."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestLogisticDensity:
    def test_pdf_at_mode(self):
        assert logistic_log_pdf(0.0, LogisticParams(0.0, 1.0)) == math.log(0.25)
        assert_allclose(logistic_log_pdf(0.0, LogisticParams(0.0, 0.005)), math.log(50.0), rtol=1e-15)

    def test_pdf_matches_cdf_derivative(self):
        p = LogisticParams(1.0, 2.0)
        h = 1e-5 * p.s
        numeric = (logistic_cdf(3.0 + h, p) - logistic_cdf(3.0 - h, p)) / (2 * h)
        assert abs(logistic_pdf(3.0, p) - numeric) < 1e-6

    def test_pdf_nonfinite_errors(self):
        with pytest.raises(ValueError, match="x must be finite"):
            logistic_log_pdf(float("nan"))
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="x must be finite"):
                logistic_cdf(bad)
        with pytest.raises(ValueError, match="x must be finite"):
            logistic_cdf(np.array([0.0, np.nan]))

    def test_scalar_in_float_out(self):
        for fn in (logistic_cdf, logistic_log_pdf):
            assert isinstance(fn(0.5), float)
            assert fn(np.array([0.5, 1.0])).shape == (2,)

    def test_pdf_extreme_arguments_stay_finite(self):
        p = LogisticParams(0.0, 0.005)
        assert np.isfinite(logistic_log_pdf(1e9, p))

    def test_cdf_byte_equal_to_two_branch_formula(self):
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 709.0, -709.0,
                          745.0, -745.0, 1e6, -1e6])
        u = RngStream(29).uniforms(30_000).reshape(3, -1)
        draws = (u[0] - 0.5) * 80.0
        # magnitudes log-uniform over 1e-300 .. 1e3, either sign
        spread = np.sign(u[1] - 0.5) * 10.0 ** (303.0 * u[2] - 300.0)
        for t in (edges, draws, spread):
            assert logistic_cdf(t).tobytes() == two_branch_logistic_cdf(t).tobytes()
        for t in edges:
            assert logistic_cdf(t) == two_branch_logistic_cdf(np.array([t]))[0]

    def test_cdf_at_location(self):
        assert logistic_cdf(4.5, LogisticParams(4.5, 0.3)) == 0.5

    def test_cdf_limits(self):
        p = LogisticParams(0.0, 1.0)
        assert logistic_cdf(1e6, p) == 1.0
        assert logistic_cdf(-1e6, p) == 0.0

    def test_cdf_three_quarters_point(self):
        # u/(1-u) = 3 inverts to x = mu + s ln 3
        p = LogisticParams(2.0, 0.7)
        x = p.mu + p.s * math.log(3.0)
        assert_allclose(logistic_cdf(x, p), 0.75, rtol=1e-14)
        by_quadrature, _ = integrate.quad(lambda t: logistic_pdf(t, p), p.mu - 40 * p.s, x)
        assert abs(by_quadrature + logistic_cdf(p.mu - 40 * p.s, p) - 0.75) < 1e-9

    def test_cdf_monotone(self):
        p = LogisticParams(0.0, 0.3)
        x = np.linspace(-6, 6, 500)
        assert np.all(np.diff(logistic_cdf(x, p)) >= 0)

    @pytest.mark.parametrize("s", [0.005, 0.1, 1.0, 3.0])
    def test_pdf_integrates_to_one(self, s):
        p = LogisticParams(0.25, s)
        density = lambda t: math.exp(logistic_log_pdf(t, p))
        total, _ = integrate.quad(density, p.mu - 40 * s, p.mu + 40 * s, limit=200)
        assert abs(total - 1.0) < 1e-6

    @pytest.mark.parametrize("s", [0.005, 1.0])
    def test_cdf_is_antiderivative_of_pdf(self, s):
        p = LogisticParams(0.0, s)
        h = 1e-5 * s
        x = (RngStream(17).uniforms(1000) - 0.5) * 12 * s
        slope = (logistic_cdf(x + h, p) - logistic_cdf(x - h, p)) / (2 * h)
        assert np.max(np.abs(slope - logistic_pdf(x, p))) < 1e-6

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LogisticParams(0.0, 0.0)
        with pytest.raises(ValueError):
            LogisticParams(float("inf"), 1.0)
        for fn, bad, rule in ((sample_logistic, 0.0, "> 0, got 0.0"), (sample_laplace, -1.0, "> 0, got -1.0"),
                              (sample_gaussian, math.nan, "a finite number, got nan")):
            with pytest.raises(ValueError, match=f"^scale must be {re.escape(rule)}$"):
                fn(RngStream(1), bad, 3)


class TestSamplers:
    @pytest.mark.parametrize("fn", [sample_logistic, sample_laplace, sample_gaussian])
    def test_empty_and_pure(self, fn):
        rng = RngStream(1, 4)
        assert fn(rng, 1.0, 0).shape == (0,)
        assert np.array_equal(fn(rng, 1.0, 2), fn(rng, 1.0, 2))

    @pytest.mark.parametrize("fn", [sample_logistic, sample_laplace, sample_gaussian])
    @pytest.mark.parametrize("n, rule", [(2.5, "an integer, got 2.5"), (-1, ">= 0, got -1")])
    def test_count_must_be_a_nonnegative_integer(self, fn, n, rule):
        with pytest.raises(ValueError, match=f"^n must be {re.escape(rule)}$"):
            fn(RngStream(1), 1.0, n)

    def test_logistic_variance(self):
        x = sample_logistic(RngStream(1), 1.0, 200_000)
        target = math.pi**2 / 3
        assert abs(x.var() - target) / target < 0.02

    def test_laplace_variance(self):
        x = sample_laplace(RngStream(1), 1.0, 200_000)
        assert abs(x.var() - 2.0) / 2.0 < 0.02

    def test_gaussian_variance(self):
        x = sample_gaussian(RngStream(1), 2.0, 200_000)
        assert abs(x.var() - 4.0) / 4.0 < 0.02

    def test_logistic_mean_within_standard_error(self):
        n = 200_000
        s = 0.4
        x = sample_logistic(RngStream(8), s, n)
        se = s * math.pi / math.sqrt(3 * n)
        assert abs(x.mean()) < 5 * se

    def test_logistic_ks_distance(self):
        p = LogisticParams(0.0, 0.7)
        x = sample_logistic(RngStream(2), p.s, 200_000)
        assert ks_distance(x, lambda v: logistic_cdf(v, p)) < 0.01

    def test_laplace_median_is_location(self):
        x = sample_laplace(RngStream(3), 0.5, 100_000)
        assert abs(np.median(x)) < 0.02

    def test_all_draws_finite(self):
        for fn, scale in [(sample_logistic, 1e-9), (sample_laplace, 1e-9), (sample_gaussian, 1e9)]:
            assert np.all(np.isfinite(fn(RngStream(4), scale, 50_000)))


def test_ks_distance_empty_errors():
    with pytest.raises(ValueError):
        ks_distance(np.array([]), lambda x: x)


def test_ks_distance_exact_on_tiny_sample():
    # one sample at the median: F_n jumps 0 -> 1 at x with F(x) = 0.5
    d = ks_distance(np.array([0.0]), lambda v: logistic_cdf(v, LogisticParams()))
    assert_allclose(d, 0.5, rtol=1e-12)
