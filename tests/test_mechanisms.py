import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from logidp.mechanisms import (
    MechanismKind,
    MechanismSpec,
    NormKind,
    PrivacyBudget,
    Sensitivity,
    budget_for_scale,
    log_ratio_bound_check,
    multivariate_log_ratio_check,
    ratio_probe_grid,
    scale_for_budget,
)
from logidp.noise import logistic_pdf, LogisticParams
from logidp.rng import RngStream

L1 = Sensitivity(NormKind.L1, 1.0)
L2 = Sensitivity(NormKind.L2, 1.0)


class TestSpecValidation:
    def test_scale_positive(self):
        with pytest.raises(ValueError):
            MechanismSpec(MechanismKind.LOGISTIC, 0.0)

    def test_delta_zero_for_pure_mechanisms(self):
        with pytest.raises(ValueError):
            MechanismSpec(MechanismKind.LOGISTIC, 1.0, 1e-5)
        with pytest.raises(ValueError):
            MechanismSpec(MechanismKind.LAPLACE, 1.0, 1e-5)

    def test_gaussian_needs_delta(self):
        with pytest.raises(ValueError):
            MechanismSpec(MechanismKind.GAUSSIAN, 1.0, 0.0)
        MechanismSpec(MechanismKind.GAUSSIAN, 1.0, 1e-5)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudget(0.0)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, 1.0)

    def test_sensitivity_validation(self):
        with pytest.raises(ValueError):
            Sensitivity(NormKind.L1, -0.1)


class TestBudgetConversion:
    def test_logistic_scale_from_published_sensitivity(self):
        spec = scale_for_budget(
            MechanismKind.LOGISTIC, PrivacyBudget(3.4984), Sensitivity(NormKind.L1, 0.017492)
        )
        assert_allclose(spec.scale, 0.005, rtol=1e-12)
        # the paper's CIFAR-10 L1 grid: epsilon_k = delta1 / (0.005 * 2^k)
        # spends scale 0.005 * 2^k
        for k in range(9):
            eps = 0.017492 / (0.005 * 2**k)
            spec = scale_for_budget(MechanismKind.LOGISTIC, PrivacyBudget(eps), Sensitivity(NormKind.L1, 0.017492))
            assert_allclose(spec.scale, 0.005 * 2**k, rtol=1e-12)

    def test_laplace_scale(self):
        spec = scale_for_budget(MechanismKind.LAPLACE, PrivacyBudget(2.0), Sensitivity(NormKind.L1, 2.0))
        assert spec.scale == 1.0

    def test_gaussian_scale_formula(self):
        spec = scale_for_budget(
            MechanismKind.GAUSSIAN, PrivacyBudget(1.0, 1e-5), Sensitivity(NormKind.L2, 1.0)
        )
        assert abs(spec.scale - math.sqrt(2.0 * math.log(125000.0))) < 1e-9

    def test_logistic_budget_from_scale(self):
        budget = budget_for_scale(
            MechanismSpec(MechanismKind.LOGISTIC, 0.005), Sensitivity(NormKind.L1, 0.020738)
        )
        assert_allclose(budget.epsilon, 4.1476, rtol=1e-12)

    def test_scale_equal_to_sensitivity_gives_unit_epsilon(self):
        budget = budget_for_scale(MechanismSpec(MechanismKind.LOGISTIC, 0.73), Sensitivity(NormKind.L1, 0.73))
        assert budget.epsilon == 1.0

    def test_gaussian_inverse(self):
        sigma = math.sqrt(2.0 * math.log(125000.0))
        budget = budget_for_scale(MechanismSpec(MechanismKind.GAUSSIAN, sigma, 1e-5), L2)
        assert_allclose(budget.epsilon, 1.0, rtol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(list(MechanismKind)),
        # wide enough to span every scale a release uses, narrow enough that
        # scale and sensitivity * gaussian factor stay normal floats
        eps=st.floats(1e-100, 1e100),
        value=st.floats(1e-100, 1e100),
        gaussian_delta=st.floats(1e-300, 1.0, exclude_max=True),
    )
    def test_round_trip_within_one_ulp(self, kind, eps, value, gaussian_delta):
        gaussian = kind is MechanismKind.GAUSSIAN
        delta = gaussian_delta if gaussian else 0.0
        sens = Sensitivity(NormKind.L2 if gaussian else NormKind.L1, value)
        back = budget_for_scale(scale_for_budget(kind, PrivacyBudget(eps, delta), sens), sens)
        assert abs(back.epsilon - eps) <= math.ulp(eps)
        assert back.delta == delta

    @pytest.mark.parametrize("kind", list(MechanismKind))
    def test_scale_strictly_decreases_in_epsilon(self, kind):
        delta = 1e-5 if kind is MechanismKind.GAUSSIAN else 0.0
        sens = L2 if kind is MechanismKind.GAUSSIAN else L1
        scales = [
            scale_for_budget(kind, PrivacyBudget(eps, delta), sens).scale
            for eps in [0.25, 0.5, 1.0, 2.0, 4.0]
        ]
        assert all(a > b for a, b in zip(scales, scales[1:]))

    def test_norm_mismatch_errors(self):
        with pytest.raises(ValueError):
            scale_for_budget(MechanismKind.LOGISTIC, PrivacyBudget(1.0), L2)
        with pytest.raises(ValueError):
            scale_for_budget(MechanismKind.GAUSSIAN, PrivacyBudget(1.0, 1e-5), L1)
        with pytest.raises(ValueError):
            budget_for_scale(MechanismSpec(MechanismKind.LAPLACE, 1.0), L2)

    def test_delta_mismatch_errors(self):
        with pytest.raises(ValueError):
            scale_for_budget(MechanismKind.LOGISTIC, PrivacyBudget(1.0, 1e-5), L1)
        with pytest.raises(ValueError):
            scale_for_budget(MechanismKind.GAUSSIAN, PrivacyBudget(1.0, 0.0), L2)

    def test_zero_sensitivity_errors(self):
        with pytest.raises(ValueError):
            scale_for_budget(MechanismKind.LOGISTIC, PrivacyBudget(1.0), Sensitivity(NormKind.L1, 0.0))


class TestDensityRatioCertificate:
    def test_zero_shift_gives_zero(self):
        grid = np.linspace(-5, 5, 101)
        for kind in MechanismKind:
            delta = 1e-5 if kind is MechanismKind.GAUSSIAN else 0.0
            assert log_ratio_bound_check(MechanismSpec(kind, 1.0, delta), 0.0, grid) == 0.0

    def test_logistic_unit_case_matches_direct_evaluation(self):
        spec = MechanismSpec(MechanismKind.LOGISTIC, 1.0)
        grid = np.linspace(-50.0, 50.0, 10_001)
        stable = log_ratio_bound_check(spec, 1.0, grid)
        p = LogisticParams(0.0, 1.0)
        direct = float(np.max(np.log(logistic_pdf(grid - 1.0, p)) - np.log(logistic_pdf(grid, p))))
        assert stable <= 1.0 + 1e-12
        assert abs(stable - direct) < 1e-9

    def test_laplace_unit_case(self):
        spec = MechanismSpec(MechanismKind.LAPLACE, 1.0)
        grid = np.linspace(-50.0, 50.0, 10_001)
        assert log_ratio_bound_check(spec, 1.0, grid) <= 1.0 + 1e-12

    def test_bound_holds_at_harsh_scales(self):
        u = RngStream(23).uniforms(300).reshape(100, 3)
        for row in u:
            s = 10 ** (4 * row[0] - 3)
            width = 10 ** (row[1] * (math.log10(5) + 3) - 3)
            gamma = (2 * row[2] - 1) * width
            grid = ratio_probe_grid(s, gamma, 2001)
            for kind in (MechanismKind.LOGISTIC, MechanismKind.LAPLACE):
                got = log_ratio_bound_check(MechanismSpec(kind, s), gamma, grid)
                assert got <= width / s + 1e-12

    def test_empty_grid_errors(self):
        with pytest.raises(ValueError):
            log_ratio_bound_check(MechanismSpec(MechanismKind.LOGISTIC, 1.0), 0.5, [])

    def test_gaussian_ratio_grows_with_grid_range(self):
        spec = MechanismSpec(MechanismKind.GAUSSIAN, 1.0, 1e-5)
        narrow = log_ratio_bound_check(spec, 1.0, np.linspace(-10, 10, 1001))
        wide = log_ratio_bound_check(spec, 1.0, np.linspace(-100, 100, 1001))
        assert wide > narrow > 0


class TestMultivariateCertificate:
    def test_all_zero_shift(self):
        spec = MechanismSpec(MechanismKind.LOGISTIC, 1.0)
        assert multivariate_log_ratio_check(spec, np.zeros(4), 101, 1000) == 0.0
        assert multivariate_log_ratio_check(spec, [], 101, 1000) == 0.0

    def test_three_coordinate_unit_budget(self):
        spec = MechanismSpec(MechanismKind.LOGISTIC, 1.0)
        got = multivariate_log_ratio_check(spec, [0.3, 0.4, 0.3], 1001, 100_000, RngStream(4))
        assert got <= 1.0 + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(list(MechanismKind)),
        scale=st.floats(1e-3, 10.0),
        gamma=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40),
        points=st.integers(2, 301),
    )
    @example(kind=MechanismKind.LOGISTIC, scale=0.4, gamma=[0.37], points=501)
    def test_matches_sum_of_univariate_checks(self, kind, scale, gamma, points):
        # the coordinate-wise argmax bounds every probe combination, so the
        # certificate is exactly the sum of the univariate checks; a single
        # coordinate gives log_ratio_bound_check itself
        delta = 1e-5 if kind is MechanismKind.GAUSSIAN else 0.0
        spec = MechanismSpec(kind, scale, delta)
        want = float(
            np.sum([log_ratio_bound_check(spec, g, ratio_probe_grid(spec.scale, g, points)) for g in gamma])
        )
        got = multivariate_log_ratio_check(spec, np.array(gamma), points, 1000, RngStream(len(gamma)))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_random_vectors_stay_below_l1_budget(self):
        stream = RngStream(31)
        u = stream.uniforms(2000)
        pos = 0
        for trial in range(40):
            dim = int(u[pos] * 16) + 1
            pos += 1
            gamma = (2 * u[pos : pos + dim] - 1) * 0.8
            pos += dim
            s = 0.05 + u[pos] * 2.0
            pos += 1
            spec = MechanismSpec(MechanismKind.LOGISTIC, s)
            got = multivariate_log_ratio_check(spec, gamma, 501, 20_000, RngStream(trial))
            assert got <= np.sum(np.abs(gamma)) / s + 1e-12

    def test_nonfinite_errors(self):
        spec = MechanismSpec(MechanismKind.LOGISTIC, 1.0)
        with pytest.raises(ValueError):
            multivariate_log_ratio_check(spec, [0.1, float("inf")], 101, 100)
