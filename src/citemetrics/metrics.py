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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable

from . import curves as curves_mod
from .curves import AccrualCurve
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


def as_fraction(value) -> Fraction:
    """Coerce int/float/str/Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def half_away_units(value) -> int:
    """Nearest integer to an exact value, halves rounded away from zero."""
    if value >= 0:
        return math.floor(value + Fraction(1, 2))
    return math.ceil(value - Fraction(1, 2))


def round_half_away(value, ndigits: int = 1) -> float:
    """Round with halves away from zero (0.25 -> 0.3 at 1 digit), as JCR prints."""
    return half_away_units(as_fraction(value) * 10**ndigits) / 10**ndigits


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


def impact_factor(
    profile: CitationProfile,
    pubs: PublicationCounts,
    eval_year: int,
    ages: Iterable[int] = (1, 2),
) -> Fraction:
    """Citations in eval_year to the volumes `ages` years old, per citeable item.

    The default ages (1, 2) give the classical two-year impact factor; ages
    (0,) give the immediacy index.  Self-references are included, matching
    published practice; pass a stripped profile to exclude them.  Every
    volume's denominator must be present: a guessed item count would
    silently skew the ratio.
    """
    years = [eval_year - age for age in sorted(set(ages))]
    items = [pubs.get(profile.journal, year) for year in years]
    missing = [year for year, count in zip(years, items) if count is None]
    if missing:
        raise MissingDenominatorError(profile.journal, tuple(missing))
    numerator = 0
    for year in years:
        cell = profile.cells.get((year, eval_year))
        if cell is not None:
            numerator += cell.total
    return Fraction(numerator, sum(items))


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


def journal_mean_curve(profile: CitationProfile, horizon: int) -> AccrualCurve:
    """Ragged-mean accrual curve for a whole journal, clamped to the ledger span.

    The strict per-age observability rule lives in mean_accrual_curve; here
    the horizon is capped at the oldest observed age so that reports for
    young journals still produce a (shorter) curve rather than failing.
    """
    if not profile.cells:
        raise ZeroWindowError(f"{profile.journal!r}: profile has no citations")
    volumes = list(curves_mod.volume_curves(profile).values())
    return curves_mod.mean_accrual_curve(volumes, curves_mod.clamp_horizon(horizon, volumes))


def build_indicator_report(
    profile: CitationProfile,
    pubs: PublicationCounts,
    eval_year: int,
    policy: WindowPolicy = WindowPolicy(),
    mean_curve: AccrualCurve | None = None,
) -> IndicatorReport:
    """Compute the full indicator row for one journal.

    The impact factor and coverage both use the policy's window ages, so
    adjusted_jif rescales the same window that coverage measured; the
    target quantile sets only the scaling, and the half-life stays the
    median.  Missing denominators and an empty coverage horizon are
    reported as flags with the affected fields blank, not errors: one
    journal's data gap should not abort a whole report run.
    """
    flags: set[str] = set()

    jif = immediacy = None
    try:
        jif = impact_factor(profile, pubs, eval_year, policy.window_ages)
    except MissingDenominatorError:
        flags.add(FLAG_MISSING_DENOMINATOR)
    try:
        immediacy = impact_factor(profile, pubs, eval_year, (0,))
    except MissingDenominatorError:
        flags.add(FLAG_MISSING_DENOMINATOR)

    half_life = cited_half_life(profile, eval_year)
    half_life_jcr = None if half_life is None else jcr_truncate(half_life)

    coverage = scaling = adjusted = None
    try:
        if mean_curve is None:
            mean_curve = journal_mean_curve(profile, policy.horizon)
        horizon = curves_mod.clamp_horizon(policy.horizon, [mean_curve])
        if horizon < max(policy.window_ages):
            raise ZeroWindowError(f"{profile.journal!r}: ledger span shorter than the window")
        if horizon < policy.horizon:
            policy = replace(policy, horizon=horizon)
        coverage = window_coverage(mean_curve, policy)
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
