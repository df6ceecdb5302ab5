"""Per-volume citation accrual curves and their transformations.

A raw curve lists citations per age (years since publication) for one
journal volume.  Cumulative curves are prefix sums; standardized curves
rescale the cumulative count so the value at age 2 is exactly 100, which
makes volumes of very different sizes comparable and exposes each journal's
characteristic accrual shape.  Averaging across volumes is "ragged": each
age is averaged only over the volumes old enough to have observed it.

Every curve has one form: int numerators over one positive int scale, so
its values are exact and rescaling and averaging never round.  Raw and
cumulative volume curves are counts over 1, standardized curves are over
their age-2 anchor, and a ragged mean is over the lcm of its per-age
observation counts.  The per-value loops stay in integers: the anomaly test
takes medians on float keys, ties broken exactly, and cross-multiplies.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, chain, repeat
from operator import add, truediv
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, DegenerateVolumeError
from .ledger import YEAR_MAX, CitationProfile

KIND_RAW = "raw"
KIND_CUMULATIVE = "cumulative"
KIND_STANDARDIZED = "standardized"

SELF_CITATION_SPIKE = "SelfCitationSpike"
ACCRUAL_DEVIATION = "AccrualDeviation"

CLASS_HARE = "Hare"
CLASS_TORTOISE = "Tortoise"
CLASS_INTERMEDIATE = "Intermediate"


@dataclass(frozen=True)
class AccrualCurve:
    """Citations per age for one volume (pub_year None = averaged curve).

    Each value is numerator / scale: int numerators over one positive int
    scale, the only form of a curve.  `==` compares this stored form.
    """

    journal: str
    pub_year: int | None
    kind: str
    numerators: tuple
    observations: tuple[int, ...] | None = None
    scale: int = 1

    @property
    def values(self) -> tuple:
        """The exact values, built as Fractions only when scale is not 1."""
        if self.scale == 1:
            return self.numerators
        return tuple(Fraction(n, self.scale) for n in self.numerators)

    def floats(self) -> list[float]:
        """Each value as float(value); int / int is correctly rounded, so equal."""
        return [n / self.scale for n in self.numerators]

    def max_age(self) -> int:
        return len(self.numerators) - 1


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
    """Coverage cutoffs separating fast-accruing from slow-accruing journals.

    Coverage lies in [0, 1], so the cutoffs must satisfy 0 <= tortoise < hare <= 1.
    """

    hare: Fraction = Fraction(1, 4)
    tortoise: Fraction = Fraction(3, 20)

    def __post_init__(self):
        _coerce_fractions(self, ("hare", "tortoise"))
        if self.hare <= self.tortoise:
            raise ConfigError("hare threshold must exceed tortoise threshold")
        if self.tortoise < 0 or self.hare > 1:
            raise ConfigError("hare and tortoise thresholds must lie in [0, 1]")


def cumulative(curve: AccrualCurve) -> AccrualCurve:
    """Prefix sums of a raw curve, over the same scale."""
    if curve.kind != KIND_RAW:
        raise ValueError(f"expected a raw curve, got {curve.kind!r}")
    return AccrualCurve(curve.journal, curve.pub_year, KIND_CUMULATIVE,
                        tuple(accumulate(curve.numerators)), curve.observations, curve.scale)


def standardize_to_age2(curve: AccrualCurve) -> AccrualCurve:
    """Rescale a cumulative curve so the count accrued through age 2 is 100.

    The anchor is the cumulative value at age 2, i.e. citations at ages
    0+1+2.  Volumes with a zero anchor (no citations in their first three
    years) raise DegenerateVolumeError and are excluded from averaged
    analyses by callers.  The result is over the anchor's numerator, so the
    input's scale cancels.
    """
    if curve.kind != KIND_CUMULATIVE:
        raise ValueError(f"expected a cumulative curve, got {curve.kind!r}")
    pub_year = curve.pub_year if curve.pub_year is not None else 0
    if len(curve.numerators) < 3:
        raise DegenerateVolumeError(curve.journal, pub_year)
    anchor = curve.numerators[2]
    if anchor == 0:
        raise DegenerateVolumeError(curve.journal, pub_year)
    sign = 100 if anchor > 0 else -100
    return AccrualCurve(curve.journal, curve.pub_year, KIND_STANDARDIZED,
                        tuple(n * sign for n in curve.numerators), curve.observations,
                        abs(anchor))


def mean_accrual_curve(curves: Sequence[AccrualCurve], horizon: int) -> AccrualCurve:
    """Ragged pointwise mean of raw volume curves over ages 0..horizon.

    Each age is averaged only over the volumes whose curve extends that far
    (a volume's curve length encodes how many ages it has observed), and the
    per-age observation counts are attached to the result since the oldest
    ages may rest on very few volumes.  An age no volume observed is an
    error naming that age.  Volume curves hold counts, over scale 1.
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
        observed = curve.numerators[:width]
        sums[: len(observed)] = map(add, sums, observed)
        ending[len(observed)] += 1
    counts = []
    count = len(curves)
    for age in range(width):
        count -= ending[age]
        if not count:
            raise ValueError(f"no volume observes age {age}")
        counts.append(count)
    return ragged_mean(journal, sums, counts)


def ragged_mean(journal: str, sums: Sequence[int], counts: Sequence[int]) -> AccrualCurve:
    """The mean curve whose value at age a is sums[a] / counts[a], each count > 0.

    The one constructor of a mean curve: it holds sums[a] * (L // counts[a])
    over L = lcm(counts), and the counts as its observations.
    """
    scale = math.lcm(*counts)
    return AccrualCurve(journal, None, KIND_RAW,
                        tuple(s * (scale // c) for s, c in zip(sums, counts)),
                        tuple(counts), scale)


def observe(
    profile: CitationProfile, through: int = YEAR_MAX
) -> tuple[int | None, list[int], list[int], list[tuple[int, int]]]:
    """(end, volumes, totals, pairs): what the ledger had seen of a journal by `through`.

    The one rule behind volume curves and reports: only cells citing in or
    before `through` are observed.  end is the last year they cite in (None
    when there is none), and the volumes are the sorted years they cite, up
    to end, so a volume published in year y is observed at ages 0..end - y.
    totals[a] sums the observed cells at age a, 0 <= a <= end - first volume;
    pairs are the sorted (age >= 0, total > 0) of the cells citing in `through`.
    """
    cells = profile.cells
    end = max((citing for _, citing in cells if citing <= through), default=None)
    if end is None:
        return None, [], [], []
    years = sorted({cited for cited, citing in cells if cited <= end and citing <= end})
    totals = [0] * (end - years[0] + 1 if years else 0)
    pairs = []
    for (cited, citing), cell in cells.items():
        if cited <= citing <= end:
            totals[citing - cited] += cell.total
            if citing == through and cell.total:
                pairs.append((citing - cited, cell.total))
    return end, years, totals, sorted(pairs)


def volume_curves(profile: CitationProfile) -> dict[int, AccrualCurve]:
    """Raw curve per volume of observe(profile), ages 0..end - pub_year.

    A cell citing before its volume counts in no curve.
    """
    end, years, _, _ = observe(profile)
    rows = {year: [0] * (end - year + 1) for year in years}
    for (cited, citing), cell in profile.cells.items():
        if cited <= citing <= end:  # so cited is a volume
            rows[cited][citing - cited] = cell.total
    return {
        year: AccrualCurve(profile.journal, year, KIND_RAW, tuple(row))
        for year, row in rows.items()
    }


def standardized_volume_curves(
    volumes: Mapping[int, AccrualCurve]
) -> tuple[dict[int, AccrualCurve], list[int]]:
    """Standardize each volume curve, raw or cumulative; returns (curves, skipped pub_years).

    Volumes too young to reach age 2 or with a zero anchor are skipped, not
    fatal: one empty volume should not sink the whole journal.
    """
    result: dict[int, AccrualCurve] = {}
    skipped: list[int] = []
    for year, curve in volumes.items():
        try:
            result[year] = standardize_to_age2(
                cumulative(curve) if curve.kind == KIND_RAW else curve
            )
        except DegenerateVolumeError:
            skipped.append(year)
    return result, skipped


def observable_horizon(profile: CitationProfile) -> int:
    """Largest age any volume in the profile could have been observed at."""
    if not profile.cells:
        return 0
    return max(citing for _, citing in profile.cells) - min(cited for cited, _ in profile.cells)


def clamp_horizon(horizon: int, oldest_age: int) -> int:
    """`horizon`, shortened to `oldest_age`, the oldest age observed.

    The one place a requested horizon gives way to what the ledger can
    observe: mean curves and coverage for young journals use the shorter
    span instead of failing.  For a journal's volume curves, the oldest age
    is end minus the first volume year, both from observe.
    """
    return min(horizon, oldest_age)


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
            if rate and rate >= thresholds.self_rate:  # the threshold is > 0
                findings.append(
                    AnomalyFinding(
                        journal,
                        pub_year,
                        citing_year - pub_year,
                        rate * 100,
                        SELF_CITATION_SPIKE,
                    )
                )

    # Longest curves first, so those observing an age are a prefix; values are num / scale.
    volumes = sorted(
        ((c.numerators, c.scale, year) for year, c in standardized.items()),
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
        p, q = _median([(nums[age], b) for nums, b, _ in volumes[:observing]])
        # |a/b - p/q| >= n/d  <=>  |a*q - p*b| * d >= n * b * q, all denominators > 0.
        p_d = p * limit_den
        q_d = q * limit_den
        n_q = limit_num * q
        for nums, b, pub_year in volumes[:observing]:
            a = nums[age]
            if abs(a * q_d - p_d * b) >= n_q * b:
                flagged.append((pub_year, age, a, b, p, q))
    flagged.sort()
    findings.extend(
        AnomalyFinding(journal, pub_year, age, Fraction(a * q - p * b, b * q), ACCRUAL_DEVIATION)
        for pub_year, age, a, b, p, q in flagged
    )
    return findings


def _median(column: list[tuple[int, int]]) -> tuple[int, int]:
    """Exact median of (numerator, denominator > 0) pairs, as such a pair.

    Sorting float keys orders the column up to ties, since correct rounding
    keeps a < b => fl(a) <= fl(b).  Only the values sharing a float with a
    middle one are sorted exactly, by cross-multiplying.
    """
    keys = [n / d for n, d in column]
    ordered = sorted(keys)
    low, high = (len(ordered) - 1) // 2, len(ordered) // 2
    middle = (ordered[low], ordered[high])
    tied = sorted((pair for pair, key in zip(column, keys) if key in middle),
                  key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
    start = bisect_left(ordered, ordered[low])
    (a, b), (c, d) = tied[low - start], tied[high - start]
    return a * d + c * b, 2 * b * d


def classify_journal(
    coverage: Fraction | float,
    thresholds: ClassificationThresholds = ClassificationThresholds(),
) -> str:
    """Class a journal by how much of its horizon total the window captures.

    The coverage is compared exactly, as its integer ratio.
    """
    try:
        ratio = coverage.as_integer_ratio()
    except (OverflowError, ValueError):  # an infinite or NaN float
        raise ValueError("coverage must be in [0, 1]") from None
    return classify_ratio(*ratio, thresholds)


def classify_ratio(numerator: int, denominator: int, thresholds: ClassificationThresholds) -> str:
    """classify_journal for the coverage numerator / denominator (> 0), cross-multiplied."""
    if not 0 <= numerator <= denominator:
        raise ValueError("coverage must be in [0, 1]")
    hare, tortoise = thresholds.hare, thresholds.tortoise
    if numerator * hare.denominator >= hare.numerator * denominator:
        return CLASS_HARE
    if numerator * tortoise.denominator <= tortoise.numerator * denominator:
        return CLASS_TORTOISE
    return CLASS_INTERMEDIATE


def curves_to_csv(curves: Iterable[AccrualCurve]) -> str:
    """Curve table: journal,pub_year,kind,age,value,observations.

    pub_year is blank for averaged curves; observations is blank everywhere
    else.  Each value prints as repr(numerator / scale), which is
    repr(float(value)) because int / int is correctly rounded.
    """
    curves = list(curves)
    ages = [f"{age}," for age in range(max((len(c.numerators) for c in curves), default=0))]
    parts = ["journal,pub_year,kind,age,value,observations\n"]
    for curve in curves:
        year = "" if curve.pub_year is None else curve.pub_year
        texts = map(repr, map(truediv, curve.numerators, repeat(curve.scale)))
        ends = repeat(",\n") if curve.observations is None else [
            f",{obs}\n" for obs, _ in zip(curve.observations, curve.numerators, strict=True)]
        prefix = repeat(f"{curve.journal},{year},{curve.kind},")
        parts += chain.from_iterable(zip(prefix, ages, texts, ends))
    return "".join(parts)
