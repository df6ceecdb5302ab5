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
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, chain, repeat
from operator import add, truediv
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DegenerateVolumeError
from .ledger import YEAR_MAX, CitationProfile, _Memo
from .settings import AnomalyThresholds, ClassificationThresholds

KIND_RAW = "raw"
KIND_CUMULATIVE = "cumulative"
KIND_STANDARDIZED = "standardized"

SELF_CITATION_SPIKE = "SelfCitationSpike"
ACCRUAL_DEVIATION = "AccrualDeviation"

CLASS_HARE = "Hare"
CLASS_TORTOISE = "Tortoise"
CLASS_INTERMEDIATE = "Intermediate"


class AccrualCurve(NamedTuple):
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

    def max_age(self) -> int:
        return len(self.numerators) - 1


class FloatColumn:
    """The one float view of a curve: each numerator / scale, which is float(value)
    as int / int is correctly rounded, made anew on each pass and held nowhere."""

    def __init__(self, curve: AccrualCurve):
        self.curve = curve

    def __iter__(self) -> Iterator[float]:
        return map(truediv, self.curve.numerators, repeat(self.curve.scale))


class AnomalyFinding(NamedTuple):
    journal: str
    pub_year: int
    age: int
    deviation: Fraction  # signed percentage points vs the reference
    reason: str


def cumulative(curve: AccrualCurve) -> AccrualCurve:
    """Prefix sums of a raw curve, over the same scale."""
    if curve.kind != KIND_RAW:
        raise ValueError(f"expected a raw curve, got {curve.kind!r}")
    return AccrualCurve(curve.journal, curve.pub_year, KIND_CUMULATIVE,
                        tuple(accumulate(curve.numerators)), curve.observations, curve.scale)


def standardize_to_age2(curve: AccrualCurve) -> AccrualCurve:
    """Rescale a cumulative curve so the count accrued through age 2 is 100.

    The anchor is the cumulative value at age 2, i.e. citations at ages
    0+1+2.  Volumes observed only through age 0 or 1, or with a zero anchor,
    raise DegenerateVolumeError and are excluded from averaged analyses by
    callers.  The result is over the anchor's numerator, so the input's
    scale cancels.
    """
    if curve.kind != KIND_CUMULATIVE:
        raise ValueError(f"expected a cumulative curve, got {curve.kind!r}")
    pub_year = curve.pub_year if curve.pub_year is not None else 0
    if len(curve.numerators) < 3:
        raise DegenerateVolumeError(curve.journal, pub_year,
                                    f"is observed only through age {curve.max_age()}")
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
    width = max(horizon + 1, 0)
    sums = [0] * width
    seen_years = set()
    for curve in curves:
        if curve.kind != KIND_RAW:
            raise ValueError(f"expected raw curves, got {curve.kind!r}")
        if curve.pub_year is None or curve.pub_year in seen_years:
            raise ValueError("volume curves must carry distinct pub_years")
        seen_years.add(curve.pub_year)
        observed = curve.numerators[:width]
        sums[: len(observed)] = map(add, sums, observed)
    return ragged_mean(journal, sums, [len(curve.numerators) for curve in curves])


def ragged_mean(journal: str, sums: Sequence[int], lengths: Iterable[int]) -> AccrualCurve:
    """The mean curve whose value at age a is sums[a] over the volumes observing a.

    A volume of length n observes ages 0..n-1; an age no volume observes is
    an error naming that age.  The one constructor of a mean curve: it holds
    sums[a] * (L // counts[a]) over L = lcm(counts), and the per-age counts
    of observing volumes as its observations.
    """
    ordered = sorted(lengths)
    counts = [len(ordered) - bisect_right(ordered, age) for age in range(len(sums))]
    if 0 in counts:
        raise ValueError(f"no volume observes age {counts.index(0)}")
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
    """as_of_volume_curves of observe(profile): every cell the ledger holds."""
    return as_of_volume_curves(profile, observe(profile))


def as_of_volume_curves(profile: CitationProfile, observation: tuple) -> dict[int, AccrualCurve]:
    """Raw curve per volume of observation, an observe(profile, ...) result,
    over ages 0..end - pub_year.  A cell citing before its volume or after
    end counts in no curve.
    """
    end, years, _, _ = observation
    rows = {year: [0] * (end - year + 1) for year in years}
    for (cited, citing), cell in profile.cells.items() if years else ():
        if cited <= citing <= end:  # so cited is a volume
            rows[cited][citing - cited] = cell.total
    return {year: AccrualCurve(profile.journal, year, KIND_RAW, tuple(row))
            for year, row in rows.items()}


def as_of_mean(journal: str, observation: tuple, horizon: int) -> AccrualCurve | None:
    """The journal's ragged mean as of an observe result, over ages 0 to `horizon`
    clamped to the oldest volume's age: the one mean of report coverage and of
    the `curves` mean row.  None when no volume is observed.
    """
    end, years, totals, _ = observation
    if not years:
        return None
    horizon = clamp_horizon(horizon, end - years[0])
    # A volume published in year y observes ages 0..end - y.
    return ragged_mean(journal, totals[:max(horizon + 1, 0)], [end - y + 1 for y in years])


def standardized_volume_curves(
    volumes: Mapping[int, AccrualCurve]
) -> tuple[dict[int, AccrualCurve], list[DegenerateVolumeError]]:
    """Standardize each raw volume curve; returns (curves, skip errors).

    Volumes too young to reach age 2 or with a zero anchor are skipped, not
    fatal: one empty volume should not sink the whole journal.
    """
    result: dict[int, AccrualCurve] = {}
    skipped: list[DegenerateVolumeError] = []
    for year, curve in volumes.items():
        try:
            result[year] = standardize_to_age2(cumulative(curve))
        except DegenerateVolumeError as error:
            skipped.append(error)
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
    span instead of failing.  as_of_mean clamps with it.
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


# Over a scale up to this, int / int never rounds to -0.0: |n| / scale is at
# least 2**-1074, the smallest subnormal.
_NO_NEGATIVE_ZERO = 2**1074


def curves_to_csv(curves: Iterable[AccrualCurve]) -> str:
    """The curve table of csv_chunks, joined into one string."""
    return "".join(csv_chunks(curves))


def csv_chunks(curves: Iterable[AccrualCurve]) -> Iterator[str]:
    """Curve table: journal,pub_year,kind,age,value,observations, as the header
    line and then one chunk per curve, which `curves` writes as they come.

    The curves are read once, in order, so they may come from a one-shot
    generator that makes each (as `curves` makes each cumulative curve) only
    when its chunk is due; the age texts grow as longer curves arrive.

    pub_year is blank for averaged curves; observations is blank everywhere
    else.  Each value prints as the repr of its FloatColumn float.  Each
    distinct float is formatted once per call.  Of equal floats only 0.0 and
    -0.0 print apart, and n / scale is -0.0 only for a negative n over a
    scale above 2**1074, which no curve of ledger counts has; such a curve's
    values skip the shared texts and are each formatted by repr.
    """
    text = _Memo(repr)
    ages: list[str] = []
    yield "journal,pub_year,kind,age,value,observations\n"
    for curve in curves:
        ages += [f"{age}," for age in range(len(ages), len(curve.numerators))]
        year = "" if curve.pub_year is None else curve.pub_year
        format_value = text.__getitem__ if curve.scale <= _NO_NEGATIVE_ZERO else repr
        texts = map(format_value, FloatColumn(curve))
        ends = repeat(",\n") if curve.observations is None else [
            f",{obs}\n" for obs, _ in zip(curve.observations, curve.numerators, strict=True)]
        prefix = repeat(f"{curve.journal},{year},{curve.kind},")
        yield "".join(chain.from_iterable(zip(prefix, ages, texts, ends)))
