"""Scalar citation indicators for one (journal, evaluation year).

The classical two-year impact factor samples a fixed slice of each
journal's citation life: ages 1 and 2.  For journals whose citations
accrue over decades, that slice covers a far smaller share of the lifetime
total than it does for fast-burning journals, so equal impact factors do
not mean equal impact.  The correction here measures the share directly
(window coverage over a long horizon) and rescales the impact factor so
the window stands in for a fixed quantile of lifetime citations.

All arithmetic is exact; rounding happens only in presentation helpers.
A report row is computed once, by _ratios, as (numerator, denominator) int
pairs: the public helpers and IndicatorReport build one Fraction per value
from them, and the CLI prints each value as one correctly rounded int
division, which equals float(Fraction).
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
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


def half_away_units(value) -> int:
    """Nearest integer to an exact value, halves rounded away from zero."""
    if value >= 0:
        return math.floor(value + Fraction(1, 2))
    return math.ceil(value - Fraction(1, 2))


def round_half_away(value, ndigits: int = 1) -> float:
    """Round with halves away from zero (0.25 -> 0.3 at 1 digit), as JCR prints."""
    return half_away_units(Fraction(value) * 10**ndigits) / 10**ndigits


@dataclass(frozen=True)
class WindowPolicy:
    """Which ages count toward the indicator, and how far coverage looks.

    window_ages: item ages whose citations feed the impact factor.
    horizon: age through which "lifetime" citations are accumulated.
    target_quantile: the share of lifetime citations the scaled impact
    factor should represent (0.5 = half-life scaling).  It is at least the
    smallest normal float, so a scaling factor (never below it) does not
    print as 0.0.
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
        q = Fraction(self.target_quantile)
        if not 0 < q <= 1:
            raise ConfigError("target_quantile must be in (0, 1]")
        if q < sys.float_info.min:
            raise ConfigError(f"target_quantile must be at least {sys.float_info.min!r}")
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
        values = (getattr(self, name) for name in _RATIO_FIELDS)
        return _row_dict(self.journal, self.eval_year, [
            v if v is None or isinstance(v, str) else v.as_integer_ratio() for v in values
        ], self.flags)


_RATIO_FIELDS = ("jif", "immediacy", "half_life_exact", "half_life_jcr", "coverage",
                 "scaling_factor", "adjusted_jif")


def _row_dict(journal: str, eval_year: int, ratios, flags) -> dict:
    """The one row serializer: each (n, d > 0) pair of _RATIO_FIELDS prints as n / d.

    int / int is correctly rounded, so n / d equals float(Fraction(n, d)).
    """
    row = {"journal": journal, "eval_year": eval_year}
    for name, ratio in zip(_RATIO_FIELDS, ratios):
        row[name] = ratio if ratio is None or isinstance(ratio, str) else ratio[0] / ratio[1]
    row["flags"] = sorted(flags)
    return row


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
    return Fraction(*_impact(profile, pubs, eval_year, sorted(set(ages))))


def _impact(
    profile: CitationProfile, pubs: PublicationCounts, eval_year: int, ages: Iterable[int]
) -> tuple[int, int]:
    """impact_factor over sorted distinct ages, as (cited cells' total, items)."""
    years = [eval_year - age for age in ages]
    items = [pubs.get(profile.journal, year) for year in years]
    missing = [year for year, count in zip(years, items) if count is None]
    if missing:
        raise MissingDenominatorError(profile.journal, tuple(missing))
    numerator = 0
    for year in years:
        cell = profile.cells.get((year, eval_year))
        if cell is not None:
            numerator += cell.total
    return numerator, sum(items)


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
    q = Fraction(quantile)
    if not 0 < q <= 1:
        raise ValueError("quantile must be in (0, 1]")
    half_life = _half_life(curves_mod.observe(profile, eval_year)[3], q.numerator, q.denominator)
    return None if half_life is None else Fraction(*half_life)


def _half_life(pairs: list[tuple[int, int]], q_num: int, q_den: int) -> tuple[int, int] | None:
    """cited_half_life's crossing in observe's pairs, as an (n, d) pair.

    The target is q * total, so with q = q_num / q_den the crossing age is
    age + (q * total - running) / count, all over count * q_den.  Ages with
    no citations never hold it.
    """
    total = sum(count for _, count in pairs)
    if total == 0:
        return None
    target = q_num * total
    running = 0
    for age, count in pairs:
        if (running + count) * q_den >= target:
            return (age * count - running) * q_den + target, count * q_den
        running += count
    raise AssertionError("quantile target above cumulative total")  # pragma: no cover


def jcr_truncate(half_life_exact) -> Fraction | str:
    """Print-style half-life: values above 10 collapse to the ">10" token."""
    value = Fraction(half_life_exact)
    truncated = _jcr(value.as_integer_ratio())
    return truncated if isinstance(truncated, str) else value


def _jcr(half_life: tuple[int, int]) -> tuple[int, int] | str:
    """jcr_truncate on an (n, d > 0) pair: the token above 10, else the pair."""
    return JCR_TRUNCATION_TOKEN if half_life[0] > 10 * half_life[1] else half_life


def _coverage(journal: str, sums, counts, window_ages) -> tuple[int, int]:
    """Share of the horizon total that falls inside the window ages, as (n, d > 0).

    Age a's mean is sums[a] / counts[a].  The means are summed as integers
    over the lcm of the counts.
    """
    common = math.lcm(*counts)
    scaled = [s * (common // c) for s, c in zip(sums, counts)]
    total = sum(scaled)
    if total == 0:
        raise ZeroWindowError(f"{journal!r}: no citations within the horizon")
    window = sum(scaled[a] for a in window_ages)
    return (window, total) if total > 0 else (-window, -total)


def window_coverage(mean_curve: AccrualCurve, policy: WindowPolicy) -> Fraction:
    """Share of the horizon-total citations that fall inside the window ages."""
    if mean_curve.max_age() < policy.horizon:
        raise ValueError(
            f"mean curve reaches age {mean_curve.max_age()}, horizon is {policy.horizon}"
        )
    numerators = mean_curve.numerators[: policy.horizon + 1]
    return Fraction(*_coverage(
        mean_curve.journal, numerators, [mean_curve.scale] * len(numerators), policy.window_ages,
    ))


def scaling_factor(coverage, target_quantile) -> Fraction:
    """Multiplier taking a window-sampled impact to the target quantile."""
    cov = Fraction(coverage)
    q = Fraction(target_quantile)
    return Fraction(*_scaling(cov.numerator, cov.denominator, q.numerator, q.denominator))


def _scaling(cov_num: int, cov_den: int, q_num: int, q_den: int) -> tuple[int, int]:
    """scaling_factor on (n, d > 0) pairs: q / coverage."""
    if not 0 < cov_num <= cov_den:
        raise ValueError("coverage must be in (0, 1]")
    if not 0 < q_num <= q_den:
        raise ValueError("target_quantile must be in (0, 1]")
    return q_num * cov_den, q_den * cov_num


def adjusted_impact(jif, scaling) -> Fraction:
    """Impact factor rescaled by the window-bias multiplier."""
    factor = Fraction(scaling)
    if factor <= 0:
        raise ValueError("scaling factor must be positive")
    return Fraction(jif) * factor


def reliability_flags(
    profile: CitationProfile, eval_year: int, half_life_exact: Fraction | None
) -> frozenset[str]:
    """HalfLifeUnreliable when the journal is younger than twice its half-life.

    A half-life close to the journal's whole observed life says more about
    the ledger's span than about the journal.  The journal's life starts at
    its first volume as of eval_year, from curves.observe; a journal with no
    volume by then is never flagged.
    """
    half_life = None if half_life_exact is None else half_life_exact.as_integer_ratio()
    return _reliability(eval_year, curves_mod.observe(profile, eval_year)[1], half_life)


def _reliability(eval_year: int, years: list[int], half_life) -> frozenset[str]:
    """reliability_flags on a half-life (n, d > 0) pair, cross-multiplied."""
    if half_life is not None and years and (
        (eval_year - years[0] + 1) * half_life[1] < 2 * half_life[0]
    ):
        return frozenset({FLAG_HALF_LIFE_UNRELIABLE})
    return frozenset()


def _age_sums(journal: str, observation: tuple, horizon: int) -> tuple[list[int], list[int]]:
    """Per-age citation sums and observing-volume counts for ages 0..h.

    The integer core of the journal's ragged mean curve (age a's mean is
    sums[a] / counts[a]), from a curves.observe result.  h is `horizon`
    clamped to the oldest volume.
    """
    end, years, totals, _ = observation
    if not years:  # no cells, or none a volume's own life observes
        raise ZeroWindowError(f"{journal!r}: profile has no citations")
    width = max(curves_mod.clamp_horizon(horizon, end - years[0]) + 1, 0)
    # A volume published in year y observes ages 0..end - y.
    return totals[:width], [bisect_right(years, end - age) for age in range(width)]


def journal_mean_curve(profile: CitationProfile, horizon: int) -> AccrualCurve:
    """Ragged-mean accrual curve for a whole journal, clamped to the ledger span.

    Equal to mean_accrual_curve over the journal's volume curves; here the
    horizon is capped at the oldest observed age so that reports for young
    journals still produce a (shorter) curve rather than failing.
    """
    sums, counts = _age_sums(profile.journal, curves_mod.observe(profile), horizon)
    return curves_mod.ragged_mean(profile.journal, sums, counts)


def _ratios(
    profile: CitationProfile,
    pubs: PublicationCounts,
    eval_year: int,
    policy: WindowPolicy,
    mean_curve: AccrualCurve | None = None,
) -> tuple[tuple, set[str]]:
    """One report row as exact ratios, and its flags: build_indicator_report's kernel.

    The ratios are the values of _RATIO_FIELDS, in that order: each an
    (n, d > 0) int pair, not reduced, or None; half_life_jcr may be the
    ">10" token.  The CLI prints them through _row_dict and classifies the
    coverage pair, so a row builds no Fraction.
    """
    flags: set[str] = set()

    jif = immediacy = None
    try:
        jif = _impact(profile, pubs, eval_year, policy.window_ages)
    except MissingDenominatorError:
        flags.add(FLAG_MISSING_DENOMINATOR)
    try:
        immediacy = _impact(profile, pubs, eval_year, (0,))
    except MissingDenominatorError:
        flags.add(FLAG_MISSING_DENOMINATOR)

    observation = _, years, _, pairs = curves_mod.observe(profile, eval_year)
    half_life = _half_life(pairs, 1, 2)

    coverage = scaling = adjusted = None
    try:
        if mean_curve is None:
            sums, counts = _age_sums(profile.journal, observation, policy.horizon)
        else:
            horizon = curves_mod.clamp_horizon(policy.horizon, mean_curve.max_age())
            sums = mean_curve.numerators[: horizon + 1]
            counts = [mean_curve.scale] * len(sums)
        if len(sums) <= policy.window_ages[-1]:
            raise ZeroWindowError(f"{profile.journal!r}: ledger span shorter than the window")
        coverage = _coverage(profile.journal, sums, counts, policy.window_ages)
        if coverage[0] > 0:
            q = policy.target_quantile
            scaling = _scaling(*coverage, q.numerator, q.denominator)
            if jif is not None:
                adjusted = jif[0] * scaling[0], jif[1] * scaling[1]
        else:
            flags.add(FLAG_ZERO_WINDOW_CITATIONS)
    except ZeroWindowError:
        flags.add(FLAG_ZERO_WINDOW_CITATIONS)

    flags |= _reliability(eval_year, years, half_life)
    half_life_jcr = None if half_life is None else _jcr(half_life)
    return (jif, immediacy, half_life, half_life_jcr, coverage, scaling, adjusted), flags


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
    median.  Only citations made in or before eval_year count (one
    curves.observe); a mean_curve passed in is used as given.  Missing
    denominators and an empty coverage horizon are flags with the affected
    fields blank, not errors: one journal's data gap should not abort a run.
    """
    ratios, flags = _ratios(profile, pubs, eval_year, policy, mean_curve)
    return IndicatorReport(profile.journal, eval_year, *(
        r if r is None or isinstance(r, str) else Fraction(*r) for r in ratios
    ), frozenset(flags))
