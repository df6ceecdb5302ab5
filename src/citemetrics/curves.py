"""Per-volume citation accrual curves and their transformations.

A raw curve lists citations per age (years since publication) for one
journal volume.  Cumulative curves are prefix sums; standardized curves
rescale the cumulative count so the value at age 2 is exactly 100, which
makes volumes of very different sizes comparable and exposes each journal's
characteristic accrual shape.  Averaging across volumes is "ragged": each
age is averaged only over the volumes old enough to have observed it.

Curve values are exact (ints or Fractions); rescaling and averaging never
round.  The per-value loops stay in integers: means sum int columns, and the
anomaly test compares cross-multiplied numerators and denominators, so only
the values returned are built as Fractions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, DegenerateVolumeError
from .ledger import CitationProfile

KIND_RAW = "raw"
KIND_CUMULATIVE = "cumulative"
KIND_STANDARDIZED = "standardized"

USE_TOTAL = "total"
USE_NONSELF = "nonself"

SELF_CITATION_SPIKE = "SelfCitationSpike"
ACCRUAL_DEVIATION = "AccrualDeviation"

CLASS_HARE = "Hare"
CLASS_TORTOISE = "Tortoise"
CLASS_INTERMEDIATE = "Intermediate"


@dataclass(frozen=True)
class AccrualCurve:
    """Citations per age for one volume (pub_year None = averaged curve)."""

    journal: str
    pub_year: int | None
    kind: str
    values: tuple
    observations: tuple[int, ...] | None = None

    def max_age(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class AnomalyFinding:
    journal: str
    pub_year: int
    age: int
    deviation: Fraction  # signed percentage points vs the reference
    reason: str


def _coerce_fractions(instance, names: tuple[str, ...]) -> None:
    # Thresholds may arrive as ints or floats; holding them as Fractions keeps
    # every comparison exact and gives the integer kernels a numerator and
    # denominator to cross-multiply.
    for name in names:
        object.__setattr__(instance, name, Fraction(getattr(instance, name)))


@dataclass(frozen=True)
class AnomalyThresholds:
    """Detection thresholds: self-rate as a fraction, deviation in percentage points."""

    self_rate: Fraction = Fraction(1, 2)
    deviation_pp: Fraction = Fraction(25)

    def __post_init__(self):
        _coerce_fractions(self, ("self_rate", "deviation_pp"))
        if not 0 < self.self_rate <= 1:
            raise ConfigError("self-rate threshold must be in (0, 1]")
        if self.deviation_pp <= 0:
            raise ConfigError("deviation threshold must be positive")


@dataclass(frozen=True)
class ClassificationThresholds:
    """Coverage cutoffs separating fast-accruing from slow-accruing journals."""

    hare: Fraction = Fraction(1, 4)
    tortoise: Fraction = Fraction(3, 20)

    def __post_init__(self):
        _coerce_fractions(self, ("hare", "tortoise"))
        if self.hare <= self.tortoise:
            raise ConfigError("hare threshold must exceed tortoise threshold")


def accrual_curve(
    profile: CitationProfile, pub_year: int, max_age: int, use: str = USE_TOTAL
) -> AccrualCurve:
    """Raw curve for one volume over ages 0..max_age; missing cells are zeros."""
    if max_age < 0:
        raise ValueError("max_age must be >= 0")
    if use not in (USE_TOTAL, USE_NONSELF):
        raise ValueError(f"unknown counting mode {use!r}")
    values = []
    for age in range(max_age + 1):
        cell = profile.cells.get((pub_year, pub_year + age))
        if cell is None:
            values.append(0)
        elif use == USE_TOTAL:
            values.append(cell.total)
        else:
            values.append(cell.total - cell.self_count)
    return AccrualCurve(profile.journal, pub_year, KIND_RAW, tuple(values))


def cumulative(curve: AccrualCurve) -> AccrualCurve:
    """Prefix sums of a raw curve."""
    if curve.kind != KIND_RAW:
        raise ValueError(f"expected a raw curve, got {curve.kind!r}")
    running = 0
    values = []
    for v in curve.values:
        running += v
        values.append(running)
    return AccrualCurve(curve.journal, curve.pub_year, KIND_CUMULATIVE, tuple(values),
                        curve.observations)


def standardize_to_age2(curve: AccrualCurve) -> AccrualCurve:
    """Rescale a cumulative curve so the count accrued through age 2 is 100.

    The anchor is the cumulative value at age 2, i.e. citations at ages
    0+1+2.  Volumes with a zero anchor (no citations in their first three
    years) raise DegenerateVolumeError and are excluded from averaged
    analyses by callers.
    """
    if curve.kind != KIND_CUMULATIVE:
        raise ValueError(f"expected a cumulative curve, got {curve.kind!r}")
    pub_year = curve.pub_year if curve.pub_year is not None else 0
    if len(curve.values) < 3:
        raise DegenerateVolumeError(curve.journal, pub_year)
    anchor = curve.values[2]
    if anchor == 0:
        raise DegenerateVolumeError(curve.journal, pub_year)
    values = tuple(Fraction(v * 100, anchor) for v in curve.values)
    return AccrualCurve(curve.journal, curve.pub_year, KIND_STANDARDIZED, values,
                        curve.observations)


def mean_accrual_curve(curves: Sequence[AccrualCurve], horizon: int) -> AccrualCurve:
    """Ragged pointwise mean of raw volume curves over ages 0..horizon.

    Each age is averaged only over the volumes whose curve extends that far
    (a volume's curve length encodes how many ages it has observed), and the
    per-age observation counts are attached to the result since the oldest
    ages may rest on very few volumes.  An age no volume observed is an
    error naming that age.
    """
    if not curves:
        raise ValueError("mean_accrual_curve needs at least one curve")
    journal = curves[0].journal
    seen_years = set()
    for curve in curves:
        if curve.kind != KIND_RAW:
            raise ValueError(f"expected raw curves, got {curve.kind!r}")
        if curve.pub_year is None or curve.pub_year in seen_years:
            raise ValueError("volume curves must carry distinct pub_years")
        seen_years.add(curve.pub_year)
    width = max(horizon + 1, 0)
    sums = [0] * width
    ending = [0] * (width + 1)  # ending[n]: curves that observe ages 0..n-1 only
    for curve in curves:
        observed = curve.values[:width]
        sums[: len(observed)] = map(add, sums, observed)
        ending[len(observed)] += 1
    values = []
    observations = []
    count = len(curves)
    for age in range(width):
        count -= ending[age]
        if not count:
            raise ValueError(f"no volume observes age {age}")
        values.append(Fraction(sums[age], count))
        observations.append(count)
    return AccrualCurve(journal, None, KIND_RAW, tuple(values), tuple(observations))


def volume_curves(
    profile: CitationProfile, use: str = USE_TOTAL, observation_end: int | None = None
) -> dict[int, AccrualCurve]:
    """Raw curve per publication year, each as long as the ledger can observe.

    observation_end defaults to the last citing year present anywhere in the
    profile, so a volume published in year y gets ages 0..(end - y).
    """
    if not profile.cells:
        return {}
    if use not in (USE_TOTAL, USE_NONSELF):
        raise ValueError(f"unknown counting mode {use!r}")
    if observation_end is None:
        observation_end = max(citing for _, citing in profile.cells)
    rows = {
        year: [0] * (observation_end - year + 1)
        for year in sorted({cited for cited, _ in profile.cells})
        if year <= observation_end
    }
    nonself = use == USE_NONSELF
    for (cited, citing), cell in profile.cells.items():
        row = rows.get(cited)
        if row is not None and cited <= citing <= observation_end:
            row[citing - cited] = cell.total - cell.self_count if nonself else cell.total
    return {
        year: AccrualCurve(profile.journal, year, KIND_RAW, tuple(row))
        for year, row in rows.items()
    }


def standardized_volume_curves(
    volumes: Mapping[int, AccrualCurve]
) -> tuple[dict[int, AccrualCurve], list[int]]:
    """Standardize each volume curve; returns (curves, skipped pub_years).

    Volumes too young to reach age 2 or with a zero anchor are skipped, not
    fatal: one empty volume should not sink the whole journal.
    """
    result: dict[int, AccrualCurve] = {}
    skipped: list[int] = []
    for year, curve in volumes.items():
        try:
            result[year] = standardize_to_age2(cumulative(curve))
        except DegenerateVolumeError:
            skipped.append(year)
    return result, skipped


def observable_horizon(profile: CitationProfile) -> int:
    """Largest age any volume in the profile could have been observed at."""
    if not profile.cells:
        return 0
    return max(citing for _, citing in profile.cells) - min(cited for cited, _ in profile.cells)


def clamp_horizon(horizon: int, curves: Iterable[AccrualCurve]) -> int:
    """`horizon`, shortened to the oldest age any of `curves` reaches.

    The one place a requested horizon gives way to what the ledger can
    observe: mean curves and coverage for young journals use the shorter
    span instead of failing.  Given a journal's volume curves, the bound is
    observable_horizon of its profile, found without another pass over the
    cells.
    """
    return min(horizon, max((curve.max_age() for curve in curves), default=horizon))


def detect_anomalous_volumes(
    standardized: Mapping[int, AccrualCurve],
    self_rates: Mapping[int, Mapping[int, Fraction]],
    thresholds: AnomalyThresholds = AnomalyThresholds(),
) -> list[AnomalyFinding]:
    """Flag volumes that stand out from their journal's usual pattern.

    SelfCitationSpike: some citing year's self-reference rate reaches the
    self-rate threshold (deviation is recorded in percentage points).
    AccrualDeviation: the standardized curve strays from the pointwise
    median of all volumes by at least the deviation threshold.  The median
    is the reference on purpose: a mean would be dragged toward the very
    spike being hunted.
    """
    if len(standardized) < 3:
        raise ValueError("anomaly detection needs at least 3 standardized volumes")
    journal = next(iter(standardized.values())).journal
    findings: list[AnomalyFinding] = []

    for pub_year in sorted(self_rates):
        for citing_year, rate in self_rates[pub_year].items():
            if rate >= thresholds.self_rate:
                findings.append(
                    AnomalyFinding(
                        journal,
                        pub_year,
                        citing_year - pub_year,
                        rate * 100,
                        SELF_CITATION_SPIKE,
                    )
                )

    # Longest curves first, so the volumes observing an age are a prefix.
    volumes = sorted(
        ((c.values, year) for year, c in standardized.items()),
        key=lambda item: len(item[0]),
        reverse=True,
    )
    limit_num = thresholds.deviation_pp.numerator
    limit_den = thresholds.deviation_pp.denominator
    flagged = []
    observing = len(volumes)
    for age in range(len(volumes[0][0])):
        while len(volumes[observing - 1][0]) <= age:
            observing -= 1
        column = sorted(values[age] for values, _ in volumes[:observing])
        middle = observing // 2
        if observing % 2:
            reference = column[middle]
        else:
            reference = Fraction(column[middle - 1] + column[middle], 2)
        # |a/b - p/q| >= n/d  <=>  |a*q - p*b| * d >= n * b * q, all denominators > 0.
        p_d = reference.numerator * limit_den
        q_d = reference.denominator * limit_den
        n_q = limit_num * reference.denominator
        for values, pub_year in volumes[:observing]:
            value = values[age]
            b = value.denominator
            if abs(value.numerator * q_d - p_d * b) >= n_q * b:
                flagged.append((pub_year, age, value - reference))
    flagged.sort()
    findings.extend(
        AnomalyFinding(journal, pub_year, age, deviation, ACCRUAL_DEVIATION)
        for pub_year, age, deviation in flagged
    )
    return findings


def classify_journal(
    coverage: Fraction | float,
    thresholds: ClassificationThresholds = ClassificationThresholds(),
) -> str:
    """Class a journal by how much of its horizon total the window captures."""
    if not 0 <= coverage <= 1:
        raise ValueError("coverage must be in [0, 1]")
    if coverage >= thresholds.hare:
        return CLASS_HARE
    if coverage <= thresholds.tortoise:
        return CLASS_TORTOISE
    return CLASS_INTERMEDIATE


def curves_to_csv(curves: Iterable[AccrualCurve]) -> str:
    """Curve table: journal,pub_year,kind,age,value,observations.

    pub_year is blank for averaged curves; observations is blank everywhere
    else.  Values print as floats (repr), deterministically.
    """
    lines = ["journal,pub_year,kind,age,value,observations"]
    for curve in curves:
        year = "" if curve.pub_year is None else str(curve.pub_year)
        for age, value in enumerate(curve.values):
            obs = ""
            if curve.observations is not None:
                obs = str(curve.observations[age])
            lines.append(f"{curve.journal},{year},{curve.kind},{age},{float(value)!r},{obs}")
    return "\n".join(lines) + "\n"
