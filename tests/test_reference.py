"""Frozen full-scale benchmark series and their structural properties."""

import math

import pytest

from logidp.experiments import (
    AttackClassifierConfig,
    SweepConfig,
    SweepReport,
    SweepRow,
    SyntheticDataSpec,
    trend_statistics,
)
from logidp.mechanisms import (
    MechanismKind,
    NormKind,
    PrivacyBudget,
    Sensitivity,
    scale_for_budget,
)
from logidp.pipeline import TrainConfig
from paper_reference import (
    BENCHMARKS,
    BenchmarkCurve,
    CIFAR10,
    CIFAR100,
    STL10,
    benchmark,
    halving_epsilon_grid,
)

ALL = (CIFAR10, CIFAR100, STL10)
KINDS = tuple(MechanismKind)
L1_KINDS = (MechanismKind.LOGISTIC, MechanismKind.LAPLACE)


class TestTableValues:
    def test_sensitivities(self):
        assert CIFAR10.delta_l1 == 0.017492
        assert CIFAR10.delta_l2 == 0.013842
        assert CIFAR100.delta_l1 == 0.020738
        assert CIFAR100.delta_l2 == 0.016391
        assert STL10.delta_l1 == 0.013242
        assert STL10.delta_l2 == 0.010856

    def test_dataset_sizes_and_sampler(self):
        assert (CIFAR10.pretrain_size, CIFAR10.finetune_size, CIFAR10.sampler_m) == (40_000, 10_000, 500)
        assert (CIFAR100.pretrain_size, CIFAR100.finetune_size, CIFAR100.sampler_m) == (40_000, 10_000, 500)
        assert (STL10.pretrain_size, STL10.finetune_size, STL10.sampler_m) == (100_000, 5_000, 250)

    def test_unprotected_mia_baselines(self):
        assert CIFAR10.unprotected_mia_accuracy == 0.62
        assert STL10.unprotected_mia_accuracy == 0.61
        assert CIFAR100.unprotected_mia_accuracy == 0.71

    def test_l2_below_l1_everywhere(self):
        for bench in ALL:
            assert 0 < bench.delta_l2 < bench.delta_l1


class TestGridStructure:
    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    @pytest.mark.parametrize("kind", KINDS)
    def test_nine_halving_points(self, bench, kind):
        eps = bench.utility_loss[kind].epsilons
        assert len(eps) == 9
        for wide, narrow in zip(eps, eps[1:]):
            assert narrow == pytest.approx(wide / 2, rel=1e-12)

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    def test_l1_grid_anchored_at_scale_half_percent(self, bench):
        top = bench.utility_loss[MechanismKind.LOGISTIC].epsilons[0]
        assert top == pytest.approx(bench.delta_l1 / 0.005, rel=1e-12)

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    def test_halving_grid_helper_reproduces_l1_grid(self, bench):
        grid = halving_epsilon_grid(bench.delta_l1)
        stored = bench.utility_loss[MechanismKind.LOGISTIC].epsilons
        assert len(grid) == len(stored)
        for ours, theirs in zip(grid, stored):
            assert ours == pytest.approx(theirs, rel=1e-12)

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    def test_logistic_and_laplace_share_grid(self, bench):
        log = bench.utility_loss[MechanismKind.LOGISTIC].epsilons
        lap = bench.utility_loss[MechanismKind.LAPLACE].epsilons
        assert log == lap

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    @pytest.mark.parametrize("kind", KINDS)
    def test_utility_and_mia_share_grid(self, bench, kind):
        assert bench.utility_loss[kind].epsilons == bench.mia_accuracy[kind].epsilons

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    def test_l1_scales_form_halving_ladder(self, bench):
        sens = bench.sensitivity(NormKind.L1)
        for k, eps in enumerate(bench.utility_loss[MechanismKind.LOGISTIC].epsilons):
            spec = scale_for_budget(MechanismKind.LOGISTIC, PrivacyBudget(eps), sens)
            assert spec.scale == pytest.approx(0.005 * 2**k, rel=1e-12)

    def test_gaussian_grid_scales_with_l2_sensitivity(self):
        # one shared sigma ladder across datasets: eps_top / delta_l2 agrees
        ratios = [b.utility_loss[MechanismKind.GAUSSIAN].epsilons[0] / b.delta_l2 for b in ALL]
        for r in ratios[1:]:
            assert r == pytest.approx(ratios[0], rel=1e-4)


class TestCurveShapes:
    def test_cifar10_logistic_anchor(self):
        curve = CIFAR10.utility_loss[MechanismKind.LOGISTIC]
        assert curve.epsilons[0] == 3.4984
        assert curve.values[0] == pytest.approx(0.0190, abs=5e-5)

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    @pytest.mark.parametrize("kind", KINDS)
    def test_utility_loss_nondecreasing_as_eps_falls(self, bench, kind):
        vals = bench.utility_loss[kind].values
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    @pytest.mark.parametrize("kind", KINDS)
    def test_mia_nonincreasing_as_eps_falls(self, bench, kind):
        vals = bench.mia_accuracy[kind].values
        inversions = [b - a for a, b in zip(vals, vals[1:]) if b > a]
        assert len(inversions) <= 1
        assert all(gap <= 0.002 for gap in inversions)

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    @pytest.mark.parametrize("kind", KINDS)
    def test_mia_floors_near_coin_flip(self, bench, kind):
        floor = bench.mia_accuracy[kind].values[-1]
        assert 0.5 <= floor <= 0.52

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    @pytest.mark.parametrize("kind", KINDS)
    def test_mia_never_exceeds_unprotected_baseline(self, bench, kind):
        assert max(bench.mia_accuracy[kind].values) < bench.unprotected_mia_accuracy

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    def test_gaussian_loses_more_utility_mid_grid(self, bench):
        # the headline mechanism comparison, interpolated onto the L1 grid
        log = bench.utility_loss[MechanismKind.LOGISTIC]
        gau = bench.utility_loss[MechanismKind.GAUSSIAN]
        xs = [math.log(e) for e in reversed(gau.epsilons)]
        ys = list(reversed(gau.values))

        def gauss_at(eps):
            x = math.log(eps)
            for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
                if x0 <= x <= x1:
                    t = (x - x0) / (x1 - x0)
                    return y0 + t * (y1 - y0)
            raise AssertionError("grid point outside gaussian range")

        mid = range(2, 7)
        assert all(gauss_at(log.epsilons[i]) > log.values[i] for i in mid)

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    def test_logistic_tracks_laplace(self, bench):
        # widest measured gap is 0.082 (stl10 at eps 0.0414)
        log = bench.utility_loss[MechanismKind.LOGISTIC].values
        lap = bench.utility_loss[MechanismKind.LAPLACE].values
        assert all(abs(a - b) <= 0.085 for a, b in zip(log, lap))


def curve_report(bench, kind):
    util = bench.utility_loss[kind]
    mia = bench.mia_accuracy[kind]
    sens = Sensitivity(NormKind.L1, bench.delta_l1)
    cfg = SweepConfig(
        dataset=SyntheticDataSpec(
            num_classes=3, per_class=10, feature_dim=4, cluster_spread=0.5, seed=1,
            pretrain=10, finetune=8, holdout=6, shadow_in=3, shadow_out=3,
        ),
        pretrain=TrainConfig((2,), 1, 0.1, seed=1),
        finetune=TrainConfig(epochs=1, learning_rate=0.1, seed=2),
        mechanisms=(MechanismKind.LOGISTIC,),
        sensitivity=sens,
        attack=AttackClassifierConfig(epochs=1, seed=3, train_pairs=2),
        master_seed=1,
        epsilon_grid=util.epsilons,
        repeats_per_point=1,
    )
    rows = tuple(
        SweepRow(MechanismKind.LOGISTIC, e, bench.delta_l1 / e, u, m, 0)
        for e, u, m in zip(util.epsilons, util.values, mia.values)
    )
    return SweepReport(rows, sens, cfg, {"accuracy": 0.9, "mia_accuracy": 0.6})


class TestTrendsOnStoredCurves:
    def test_cifar100_logistic_utility_trend_is_exactly_minus_one(self):
        report = curve_report(CIFAR100, MechanismKind.LOGISTIC)
        stats = trend_statistics(report)[MechanismKind.LOGISTIC]
        assert stats.spearman_eps_vs_utility == -1.0
        assert not stats.utility_degenerate

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    @pytest.mark.parametrize("kind", KINDS)
    def test_all_utility_trends_strongly_negative(self, bench, kind):
        report = curve_report(bench, kind)
        stats = trend_statistics(report)[MechanismKind.LOGISTIC]
        assert stats.spearman_eps_vs_utility <= -0.99

    @pytest.mark.parametrize("bench", ALL, ids=lambda b: b.name)
    @pytest.mark.parametrize("kind", KINDS)
    def test_all_mia_trends_strongly_positive(self, bench, kind):
        report = curve_report(bench, kind)
        stats = trend_statistics(report)[MechanismKind.LOGISTIC]
        assert stats.spearman_eps_vs_mia >= 0.98


class TestAccessors:
    def test_lookup_by_name(self):
        assert benchmark("cifar10") is CIFAR10
        assert benchmark("cifar100") is CIFAR100
        assert benchmark("stl10") is STL10
        assert set(BENCHMARKS) == {"cifar10", "cifar100", "stl10"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            benchmark("mnist")

    def test_sensitivity_accessor(self):
        assert CIFAR10.sensitivity(NormKind.L1) == Sensitivity(NormKind.L1, 0.017492)
        assert CIFAR10.sensitivity(NormKind.L2) == Sensitivity(NormKind.L2, 0.013842)

    def test_points_pairs_grid_with_values(self):
        curve = STL10.mia_accuracy[MechanismKind.GAUSSIAN]
        pts = curve.points()
        assert pts[0] == (curve.epsilons[0], curve.values[0])
        assert len(pts) == 9

    def test_tables_are_read_only(self):
        with pytest.raises(TypeError):
            CIFAR10.utility_loss[MechanismKind.LOGISTIC] = None  # type: ignore[index]

    def test_curve_validation(self):
        with pytest.raises(ValueError, match="disagree"):
            BenchmarkCurve((2.0, 1.0), (0.1,))
        with pytest.raises(ValueError, match="decreasing"):
            BenchmarkCurve((1.0, 2.0), (0.1, 0.2))
        with pytest.raises(ValueError, match="positive"):
            BenchmarkCurve((1.0, -0.5), (0.1, 0.2))
        with pytest.raises(ValueError, match="two points"):
            BenchmarkCurve((1.0,), (0.1,))
