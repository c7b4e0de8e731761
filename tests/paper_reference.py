"""Benchmark series from the full-scale SimCLR runs on Cifar-10/100 and STL-10.

Desk-scale experiments in this package do not reproduce these numbers. They
are frozen here so grids, budget arithmetic, and report plumbing can be
cross-checked against known-good curves: per-dataset empirical sensitivities,
unprotected membership-inference baselines, and the measured utility-loss and
attack-accuracy series for all three mechanisms over their epsilon grids.

Only tests read these tables, so they live beside the tests and not in the
package. ``halving_epsilon_grid`` writes the paper's L1 grid:
delta1/(0.005 * 2^k) for k = 0..8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from logidp.mechanisms import MechanismKind, NormKind, Sensitivity


@dataclass(frozen=True)
class BenchmarkCurve:
    """One measured metric over a descending epsilon grid."""

    epsilons: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.epsilons) != len(self.values):
            raise ValueError(
                f"grid and values disagree: {len(self.epsilons)} != {len(self.values)}"
            )
        if len(self.epsilons) < 2:
            raise ValueError("a curve needs at least two points")
        for eps in self.epsilons:
            if not (math.isfinite(eps) and eps > 0):
                raise ValueError(f"epsilon must be positive and finite, got {eps}")
        if any(a <= b for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        if any(not math.isfinite(v) for v in self.values):
            raise ValueError("values must be finite")

    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.epsilons, self.values))


@dataclass(frozen=True)
class DatasetBenchmark:
    """Everything measured for one dataset's fine-tuned encoder."""

    name: str
    pretrain_size: int
    finetune_size: int
    sampler_m: int
    delta_l1: float
    delta_l2: float
    unprotected_mia_accuracy: float
    utility_loss: Mapping[MechanismKind, BenchmarkCurve]
    mia_accuracy: Mapping[MechanismKind, BenchmarkCurve]

    def __post_init__(self):
        if not 0.0 < self.delta_l2 <= self.delta_l1:
            raise ValueError(
                f"need 0 < delta_l2 <= delta_l1, got {self.delta_l2}, {self.delta_l1}"
            )
        for table in (self.utility_loss, self.mia_accuracy):
            if set(table) != set(MechanismKind):
                raise ValueError("each table must cover every mechanism")
        object.__setattr__(self, "utility_loss", MappingProxyType(dict(self.utility_loss)))
        object.__setattr__(self, "mia_accuracy", MappingProxyType(dict(self.mia_accuracy)))

    def sensitivity(self, norm: NormKind) -> Sensitivity:
        value = self.delta_l1 if norm is NormKind.L1 else self.delta_l2
        return Sensitivity(norm, value)


def _curves(
    table: dict[MechanismKind, tuple[tuple[float, float], ...]],
) -> dict[MechanismKind, BenchmarkCurve]:
    return {
        kind: BenchmarkCurve(tuple(e for e, _ in pts), tuple(v for _, v in pts))
        for kind, pts in table.items()
    }


CIFAR10 = DatasetBenchmark(
    name="cifar10",
    pretrain_size=40_000,
    finetune_size=10_000,
    sampler_m=500,
    delta_l1=0.017492,
    delta_l2=0.013842,
    unprotected_mia_accuracy=0.62,
    utility_loss=_curves(
        {
            MechanismKind.LOGISTIC: (
                (3.4984, 0.0189793121301386),
                (1.7492, 0.024401916461318),
                (0.8746, 0.0349282374222313),
                (0.4373, 0.0677831351661986),
                (0.21865, 0.164752762473561),
                (0.109325, 0.347527920724482),
                (0.0546625, 0.661084519999259),
                (0.02733125, 0.772886767912139),
                (0.013665625, 0.80733651768838),
            ),
            MechanismKind.LAPLACE: (
                (3.4984, 0.0215311019994806),
                (1.7492, 0.0248803696944193),
                (0.8746, 0.0248803696944193),
                (0.4373, 0.0558213594427519),
                (0.21865, 0.155661896275181),
                (0.109325, 0.332535875280888),
                (0.0546625, 0.628229669786907),
                (0.02733125, 0.814194581059938),
                (0.013665625, 0.853429029527844),
            ),
            MechanismKind.GAUSSIAN: (
                (12.067175835298, 0.0180223182057649),
                (6.033587917649, 0.0256778551250744),
                (3.0167939588245, 0.0326953276492762),
                (1.50839697941225, 0.039234442003606),
                (0.754198489706125, 0.0666666479582232),
                (0.377099244853063, 0.233014370646013),
                (0.188549622426531, 0.430941004882399),
                (0.0942748112132656, 0.633014344712764),
                (0.0471374056066328, 0.813397131277994),
            ),
        }
    ),
    mia_accuracy=_curves(
        {
            MechanismKind.LOGISTIC: (
                (3.4984, 0.5645),
                (1.7492, 0.5601),
                (0.8746, 0.5509),
                (0.4373, 0.5357),
                (0.21865, 0.5202),
                (0.109325, 0.5091),
                (0.0546625, 0.5044),
                (0.02733125, 0.5027),
                (0.013665625, 0.5016),
            ),
            MechanismKind.LAPLACE: (
                (3.4984, 0.5679),
                (1.7492, 0.5646),
                (0.8746, 0.5577),
                (0.4373, 0.5434),
                (0.21865, 0.5294),
                (0.109325, 0.5162),
                (0.0546625, 0.5097),
                (0.02733125, 0.5039),
                (0.013665625, 0.5035),
            ),
            MechanismKind.GAUSSIAN: (
                (12.067175835298, 0.5624),
                (6.033587917649, 0.5609),
                (3.0167939588245, 0.5562),
                (1.50839697941225, 0.5486),
                (0.754198489706125, 0.5255),
                (0.377099244853063, 0.5141),
                (0.188549622426531, 0.5073),
                (0.0942748112132656, 0.5046),
                (0.0471374056066328, 0.5033),
            ),
        }
    ),
)

CIFAR100 = DatasetBenchmark(
    name="cifar100",
    pretrain_size=40_000,
    finetune_size=10_000,
    sampler_m=500,
    delta_l1=0.020738,
    delta_l2=0.016391,
    unprotected_mia_accuracy=0.71,
    utility_loss=_curves(
        {
            MechanismKind.LOGISTIC: (
                (4.1476, 0.00148703706308817),
                (2.0738, 0.0211895850511289),
                (1.0369, 0.0791821346850201),
                (0.51845, 0.201115234633804),
                (0.259225, 0.453903336950394),
                (0.1296125, 0.697769515244048),
                (0.06480625, 0.864312266383916),
                (0.032403125, 0.928252785345436),
                (0.0162015625, 0.944237919461993),
            ),
            MechanismKind.LAPLACE: (
                (4.1476, 0.00817848935889498),
                (2.0738, 0.0312267634948391),
                (1.0369, 0.071747230774408),
                (0.51845, 0.156877343096255),
                (0.259225, 0.423791817129766),
                (0.1296125, 0.683643113060068),
                (0.06480625, 0.868029735456169),
                (0.032403125, 0.934200744480449),
                (0.0162015625, 0.955762080765125),
            ),
            MechanismKind.GAUSSIAN: (
                (14.289342516715, 0.0133829276357885),
                (7.14467125835752, 0.0185873659126822),
                (3.57233562917876, 0.0412639419385492),
                (1.78616781458938, 0.113011149668782),
                (0.89308390729469, 0.277323429026125),
                (0.446541953647345, 0.579925657869715),
                (0.223270976823672, 0.829368035700241),
                (0.111635488411836, 0.920074346728041),
                (0.0558177442059181, 0.94832713877069),
            ),
        }
    ),
    mia_accuracy=_curves(
        {
            MechanismKind.LOGISTIC: (
                (4.1476, 0.630999982357025),
                (2.0738, 0.631500005722046),
                (1.0369, 0.625500013828278),
                (0.51845, 0.602999985218048),
                (0.259225, 0.548500001430511),
                (0.1296125, 0.531500010490418),
                (0.06480625, 0.517499983310699),
                (0.032403125, 0.504999985694885),
                (0.0162015625, 0.503000001907349),
            ),
            MechanismKind.LAPLACE: (
                (4.1476, 0.648999998569489),
                (2.0738, 0.646500012397766),
                (1.0369, 0.634500026702881),
                (0.51845, 0.61599999666214),
                (0.259225, 0.566999971866608),
                (0.1296125, 0.54550002861023),
                (0.06480625, 0.531500002384186),
                (0.032403125, 0.52749998998642),
                (0.0162015625, 0.51900000333786),
            ),
            MechanismKind.GAUSSIAN: (
                (14.289342516715, 0.633000016212463),
                (7.14467125835752, 0.634500026702881),
                (3.57233562917876, 0.628500025272369),
                (1.78616781458938, 0.621999979019165),
                (0.89308390729469, 0.603999972343445),
                (0.446541953647345, 0.555000007152557),
                (0.223270976823672, 0.523000020980835),
                (0.111635488411836, 0.510999987125397),
                (0.0558177442059181, 0.507499992847443),
            ),
        }
    ),
)

STL10 = DatasetBenchmark(
    name="stl10",
    pretrain_size=100_000,
    finetune_size=5_000,
    sampler_m=250,
    delta_l1=0.013242,
    delta_l2=0.010856,
    unprotected_mia_accuracy=0.61,
    utility_loss=_curves(
        {
            MechanismKind.LOGISTIC: (
                (2.6484, 0.0119085574326577),
                (1.3242, 0.0119086380053993),
                (0.6621, 0.0288058776045136),
                (0.33105, 0.0656179632832085),
                (0.165525, 0.186715475032672),
                (0.0827625, 0.420663013234183),
                (0.04138125, 0.653001282619517),
                (0.020690625, 0.738694875617099),
                (0.0103453125, 0.785162544457675),
            ),
            MechanismKind.LAPLACE: (
                (2.6484, 0.0119085574326577),
                (1.3242, 0.0181445039504203),
                (0.6621, 0.0465079314615858),
                (0.33105, 0.0788944326952641),
                (0.165525, 0.172232068156674),
                (0.0827625, 0.38626486195373),
                (0.04138125, 0.571330857345979),
                (0.020690625, 0.750965554536943),
                (0.0103453125, 0.809905054544689),
            ),
            MechanismKind.GAUSSIAN: (
                (9.46404138621551, 0.0137189839635971),
                (4.73202069310775, 0.0261908846727167),
                (2.36601034655388, 0.0398696031377059),
                (1.18300517327694, 0.0630029289140015),
                (0.591502586638469, 0.159156777369926),
                (0.295751293319235, 0.28065658498125),
                (0.147875646659617, 0.502132301127983),
                (0.0739378233298087, 0.616189234349595),
                (0.0369689116649043, 0.718579005343299),
            ),
        }
    ),
    mia_accuracy=_curves(
        {
            MechanismKind.LOGISTIC: (
                (2.6484, 0.56748546),
                (1.3242, 0.56245745),
                (0.6621, 0.55026287),
                (0.33105, 0.53417408),
                (0.165525, 0.52158091),
                (0.0827625, 0.5136828),
                (0.04138125, 0.50581111),
                (0.020690625, 0.50399493),
                (0.0103453125, 0.50278591),
            ),
            MechanismKind.LAPLACE: (
                (2.6484, 0.56918473),
                (1.3242, 0.56597119),
                (0.6621, 0.55410363),
                (0.33105, 0.53917905),
                (0.165525, 0.52841136),
                (0.0827625, 0.51923413),
                (0.04138125, 0.51404148),
                (0.020690625, 0.51053137),
                (0.0103453125, 0.50755216),
            ),
            MechanismKind.GAUSSIAN: (
                (9.46404138621551, 0.56714533),
                (4.73202069310775, 0.56593257),
                (2.36601034655388, 0.56126741),
                (1.18300517327694, 0.55407091),
                (0.591502586638469, 0.5466455),
                (0.295751293319235, 0.53446105),
                (0.147875646659617, 0.52073309),
                (0.0739378233298087, 0.51244786),
                (0.0369689116649043, 0.50330254),
            ),
        }
    ),
)

BENCHMARKS: Mapping[str, DatasetBenchmark] = MappingProxyType(
    {b.name: b for b in (CIFAR10, CIFAR100, STL10)}
)


def benchmark(name: str) -> DatasetBenchmark:
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(BENCHMARKS))
        raise ValueError(f"unknown benchmark {name!r}; known: {known}") from None


def halving_epsilon_grid(delta_l1: float, anchor_scale: float = 0.005, points: int = 9) -> tuple[float, ...]:
    """Epsilon grid delta1/(anchor_scale * 2^k): each point half the previous."""
    if not (math.isfinite(delta_l1) and delta_l1 > 0):
        raise ValueError(f"delta_l1 must be positive, got {delta_l1}")
    if not (math.isfinite(anchor_scale) and anchor_scale > 0):
        raise ValueError(f"anchor_scale must be positive, got {anchor_scale}")
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    return tuple(delta_l1 / (anchor_scale * 2**k) for k in range(points))
