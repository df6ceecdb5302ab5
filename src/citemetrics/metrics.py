"""Scalar citation indicators for one (journal, evaluation year).

The classical two-year impact factor samples a fixed slice of each
journal's citation life: ages 1 and 2.  For journals whose citations
accrue over decades, that slice covers a far smaller share of the lifetime
total than it does for fast-burning journals, so equal impact factors do
not mean equal impact.  The correction here measures the share directly
(window coverage over a long horizon) and rescales the impact factor so
the window stands in for a fixed quantile of lifetime citations.

All arithmetic is exact (fractions.Fraction); rounding happens only in
presentation helpers.  Sums over many exact values run on integers scaled to
a common denominator, and one Fraction is built from the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from . import curves as curves_mod
from .curves import AccrualCurve, USE_TOTAL
from .errors import (
    ConfigError,
    MissingDenominatorError,
    ZeroWindowError,
)
from .ledger import CitationProfile, PublicationCounts

FLAG_HALF_LIFE_UNRELIABLE = "HalfLifeUnreliable"
FLAG_MISSING_DENOMINATOR = "MissingDenominator"
FLAG_ZERO_WINDOW_CITATIONS = "ZeroWindowCitations"

JCR_TRUNCATION_TOKEN = ">10"

Rational = Fraction | int


def as_fraction(value) -> Fraction:
    """Coerce int/float/str/Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def round_half_away(value, ndigits: int = 1) -> float:
    """Round with halves away from zero (0.25 -> 0.3 at 1 digit), as JCR prints."""
    x = as_fraction(value) * Fraction(10**ndigits)
    if x >= 0:
        units = math.floor(x + Fraction(1, 2))
    else:
        units = math.ceil(x - Fraction(1, 2))
    return units / 10**ndigits


@dataclass(frozen=True)
class WindowPolicy:
    """Which ages count toward the indicator, and how far coverage looks.

    window_ages: item ages whose citations feed the impact factor.
    horizon: age through which "lifetime" citations are accumulated.
    target_quantile: the share of lifetime citations the scaled impact
    factor should represent (0.5 = half-life scaling).
    """

    window_ages: tuple[int, ...] = (1, 2)
    horizon: int = 20
    target_quantile: Fraction = Fraction(1, 2)

    def __post_init__(self):
        ages = tuple(sorted(set(self.window_ages)))
        if not ages:
            raise ConfigError("window_ages must be non-empty")
        if any(a < 0 for a in ages):
            raise ConfigError("window ages must be >= 0")
        object.__setattr__(self, "window_ages", ages)
        if self.horizon < max(ages):
            raise ConfigError("horizon must cover every window age")
        q = as_fraction(self.target_quantile)
        if not 0 < q <= 1:
            raise ConfigError("target_quantile must be in (0, 1]")
        object.__setattr__(self, "target_quantile", q)


@dataclass(frozen=True)
class IndicatorReport:
    """All computed indicators for one (journal, evaluation year)."""

    journal: str
    eval_year: int
    jif: Fraction | None
    immediacy: Fraction | None
    half_life_exact: Fraction | None
    half_life_jcr: Fraction | str | None
    coverage: Fraction | None
    scaling_factor: Fraction | None
    adjusted_jif: Fraction | None
    flags: frozenset[str] = field(default_factory=frozenset)

    JSON_FIELDS = (
        "journal",
        "eval_year",
        "jif",
        "immediacy",
        "half_life_exact",
        "half_life_jcr",
        "coverage",
        "scaling_factor",
        "adjusted_jif",
        "flags",
    )

    def to_json_dict(self) -> dict:
        """Plain-JSON form; exact values become floats, ">10" stays literal."""

        def num(v):
            return None if v is None else float(v)

        return {
            "journal": self.journal,
            "eval_year": self.eval_year,
            "jif": num(self.jif),
            "immediacy": num(self.immediacy),
            "half_life_exact": num(self.half_life_exact),
            "half_life_jcr": (
                self.half_life_jcr
                if self.half_life_jcr is None or isinstance(self.half_life_jcr, str)
                else float(self.half_life_jcr)
            ),
            "coverage": num(self.coverage),
            "scaling_factor": num(self.scaling_factor),
            "adjusted_jif": num(self.adjusted_jif),
            "flags": sorted(self.flags),
        }

    def to_csv_row(self) -> list[str]:
        """Same values as to_json_dict, as CSV cells in the same column order."""
        cells = []
        for key in self.JSON_FIELDS:
            value = self.to_json_dict()[key]
            if value is None:
                cells.append("")
            elif key == "flags":
                cells.append("|".join(value))
            elif isinstance(value, float):
                cells.append(repr(value))
            else:
                cells.append(str(value))
        return cells


def _window_numerator(profile: CitationProfile, eval_year: int, ages: Iterable[int]) -> int:
    total = 0
    for age in ages:
        cell = profile.cells.get((eval_year - age, eval_year))
        if cell is not None:
            total += cell.total
    return total


def impact_factor(
    profile: CitationProfile, pubs: PublicationCounts, eval_year: int
) -> Fraction:
    """Citations in eval_year to the two preceding volumes, per citeable item.

    Self-references are included, matching published practice; pass a
    stripped profile to exclude them.  Both denominators must be present:
    a guessed item count would silently skew the ratio.
    """
    missing = [
        y for y in (eval_year - 1, eval_year - 2) if pubs.get(profile.journal, y) is None
    ]
    if missing:
        raise MissingDenominatorError(profile.journal, tuple(missing))
    numerator = _window_numerator(profile, eval_year, (1, 2))
    denominator = pubs.get(profile.journal, eval_year - 1) + pubs.get(
        profile.journal, eval_year - 2
    )
    return Fraction(numerator, denominator)


def immediacy_index(
    profile: CitationProfile, pubs: PublicationCounts, eval_year: int
) -> Fraction:
    """Same-year citations per same-year citeable item."""
    items = pubs.get(profile.journal, eval_year)
    if items is None:
        raise MissingDenominatorError(profile.journal, (eval_year,))
    return Fraction(_window_numerator(profile, eval_year, (0,)), items)


def received_by_age(profile: CitationProfile, eval_year: int) -> list[int]:
    """Citations received in eval_year, indexed by item age 0..oldest volume."""
    if not profile.cells:
        return []
    oldest = eval_year - min(cited for cited, _ in profile.cells)
    if oldest < 0:
        return []
    counts = [0] * (oldest + 1)
    for (cited_year, citing_year), cell in profile.cells.items():
        if citing_year == eval_year and cited_year <= eval_year:
            counts[eval_year - cited_year] = cell.total
    return counts


def cited_half_life(
    profile: CitationProfile,
    eval_year: int,
    quantile: Fraction = Fraction(1, 2),
) -> Fraction | None:
    """Age by which `quantile` of the citations received in eval_year accrued.

    Citations within an age-year are treated as uniformly spread over
    [age, age + 1), so the result interpolates linearly inside the crossing
    year.  Returns None when the journal received no citations at all in
    eval_year (undefined, not an error).
    """
    q = as_fraction(quantile)
    if not 0 < q <= 1:
        raise ValueError("quantile must be in (0, 1]")
    counts = received_by_age(profile, eval_year)
    total = sum(counts)
    if total == 0:
        return None
    target = q * total
    running = 0
    for age, count in enumerate(counts):
        if running + count >= target:
            return age + Fraction(target - running, count)
        running += count
    raise AssertionError("quantile target above cumulative total")  # pragma: no cover


def jcr_truncate(half_life_exact) -> Fraction | str:
    """Print-style half-life: values above 10 collapse to the ">10" token."""
    value = as_fraction(half_life_exact)
    return JCR_TRUNCATION_TOKEN if value > 10 else value


def window_coverage(mean_curve: AccrualCurve, policy: WindowPolicy) -> Fraction:
    """Share of the horizon-total citations that fall inside the window ages."""
    if mean_curve.max_age() < policy.horizon:
        raise ValueError(
            f"mean curve reaches age {mean_curve.max_age()}, horizon is {policy.horizon}"
        )
    values = mean_curve.values[: policy.horizon + 1]
    common = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (common // v.denominator) for v in values]
    total = sum(scaled)
    if total == 0:
        raise ZeroWindowError(f"{mean_curve.journal!r}: no citations within the horizon")
    return Fraction(sum(scaled[a] for a in policy.window_ages), total)


def scaling_factor(coverage, target_quantile) -> Fraction:
    """Multiplier taking a window-sampled impact to the target quantile."""
    cov = as_fraction(coverage)
    q = as_fraction(target_quantile)
    if cov <= 0 or cov > 1:
        raise ValueError("coverage must be in (0, 1]")
    if not 0 < q <= 1:
        raise ValueError("target_quantile must be in (0, 1]")
    return q / cov


def adjusted_impact(jif, scaling) -> Fraction:
    """Impact factor rescaled by the window-bias multiplier."""
    factor = as_fraction(scaling)
    if factor <= 0:
        raise ValueError("scaling factor must be positive")
    return as_fraction(jif) * factor


def normalize_within_field(
    values: Mapping[str, Rational], fields: Mapping[str, str]
) -> dict[str, Fraction]:
    """Divide each journal's value by the mean of its field.

    Every journal in `values` must have a field; a field whose mean is zero
    is an error naming the field.
    """
    members: dict[str, list[Fraction]] = {}
    for journal, value in values.items():
        if journal not in fields:
            raise ValueError(f"journal {journal!r} has no field membership")
        members.setdefault(fields[journal], []).append(as_fraction(value))
    means = {}
    for name, vals in members.items():
        mean = sum(vals, Fraction(0)) / len(vals)
        if mean == 0:
            raise ValueError(f"field {name!r} has zero mean; cannot normalize")
        means[name] = mean
    return {j: as_fraction(v) / means[fields[j]] for j, v in values.items()}


def journal_age(profile: CitationProfile, eval_year: int) -> int:
    """Years from the earliest volume in the ledger through eval_year, inclusive."""
    if not profile.cells:
        raise ValueError("profile has no cells")
    return eval_year - min(cited for cited, _ in profile.cells) + 1


def reliability_flags(
    profile: CitationProfile, eval_year: int, half_life_exact: Fraction | None
) -> frozenset[str]:
    """HalfLifeUnreliable when the journal is younger than twice its half-life.

    A half-life close to the journal's whole observed life says more about
    the ledger's span than about the journal.
    """
    if half_life_exact is None:
        return frozenset()
    if journal_age(profile, eval_year) < 2 * half_life_exact:
        return frozenset({FLAG_HALF_LIFE_UNRELIABLE})
    return frozenset()


def journal_mean_curve(
    profile: CitationProfile, horizon: int, use: str = USE_TOTAL
) -> AccrualCurve:
    """Ragged-mean accrual curve for a whole journal, clamped to the ledger span.

    The strict per-age observability rule lives in mean_accrual_curve; here
    the horizon is capped at the oldest observable age so that reports for
    young journals still produce a (shorter) curve rather than failing.
    """
    if not profile.cells:
        raise ZeroWindowError(f"{profile.journal!r}: profile has no citations")
    effective = min(horizon, curves_mod.observable_horizon(profile))
    volumes = curves_mod.volume_curves(profile, use)
    return curves_mod.mean_accrual_curve(list(volumes.values()), effective)


def build_indicator_report(
    profile: CitationProfile,
    pubs: PublicationCounts,
    eval_year: int,
    policy: WindowPolicy = WindowPolicy(),
    mean_curve: AccrualCurve | None = None,
) -> IndicatorReport:
    """Compute the full indicator row for one journal.

    Missing denominators and an empty coverage horizon are reported as
    flags with the affected fields blank, not errors: one journal's data
    gap should not abort a whole report run.
    """
    flags: set[str] = set()

    jif = immediacy = None
    try:
        jif = impact_factor(profile, pubs, eval_year)
    except MissingDenominatorError:
        flags.add(FLAG_MISSING_DENOMINATOR)
    try:
        immediacy = immediacy_index(profile, pubs, eval_year)
    except MissingDenominatorError:
        flags.add(FLAG_MISSING_DENOMINATOR)

    half_life = cited_half_life(profile, eval_year, policy.target_quantile)
    half_life_jcr = None if half_life is None else jcr_truncate(half_life)

    coverage = scaling = adjusted = None
    try:
        if mean_curve is None:
            mean_curve = journal_mean_curve(profile, policy.horizon)
        effective_policy = policy
        if mean_curve.max_age() < policy.horizon:
            if mean_curve.max_age() < max(policy.window_ages):
                raise ZeroWindowError(
                    f"{profile.journal!r}: ledger span shorter than the window"
                )
            effective_policy = WindowPolicy(
                policy.window_ages, mean_curve.max_age(), policy.target_quantile
            )
        coverage = window_coverage(mean_curve, effective_policy)
        if coverage > 0:
            scaling = scaling_factor(coverage, policy.target_quantile)
            if jif is not None:
                adjusted = adjusted_impact(jif, scaling)
        else:
            flags.add(FLAG_ZERO_WINDOW_CITATIONS)
    except ZeroWindowError:
        flags.add(FLAG_ZERO_WINDOW_CITATIONS)

    flags |= reliability_flags(profile, eval_year, half_life)
    return IndicatorReport(
        journal=profile.journal,
        eval_year=eval_year,
        jif=jif,
        immediacy=immediacy,
        half_life_exact=half_life,
        half_life_jcr=half_life_jcr,
        coverage=coverage,
        scaling_factor=scaling,
        adjusted_jif=adjusted,
        flags=frozenset(flags),
    )
