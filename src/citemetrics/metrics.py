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
from them, and report_rows, which builds the rows the CLI prints, writes
each value as one correctly rounded int division, equal to float(Fraction).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from . import curves as curves_mod
from .curves import AccrualCurve
from .errors import MissingDenominatorError, ZeroWindowError
from .ledger import CitationProfile, PublicationCounts, journal_identity
from .settings import ClassificationThresholds, WindowPolicy

FLAG_HALF_LIFE_UNRELIABLE = "HalfLifeUnreliable"
FLAG_MISSING_DENOMINATOR = "MissingDenominator"
FLAG_ZERO_WINDOW_CITATIONS = "ZeroWindowCitations"


def half_away_units(value) -> int:
    """Nearest integer to an exact value, halves rounded away from zero."""
    if value >= 0:
        return math.floor(value + Fraction(1, 2))
    return math.ceil(value - Fraction(1, 2))


def round_half_away(value, ndigits: int = 1) -> float:
    """Round with halves away from zero (0.25 -> 0.3 at 1 digit), as JCR prints."""
    return half_away_units(Fraction(value) * 10**ndigits) / 10**ndigits


class IndicatorReport(NamedTuple):
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
    flags: frozenset[str] = frozenset()

    def to_json_dict(self) -> dict:
        """Plain-JSON form; exact values become floats, ">10" stays literal."""
        return _row_dict(self.journal, self.eval_year, [
            v if v is None or isinstance(v, str) else v.as_integer_ratio() for v in self[2:9]
        ], self.flags)


_RATIO_FIELDS = IndicatorReport._fields[2:9]  # jif .. adjusted_jif


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
    ages: Iterable[int] = WindowPolicy().window_ages,
) -> Fraction:
    """Citations in eval_year to the volumes `ages` years old, per citeable item.

    The default, WindowPolicy's window ages (1, 2), gives the classical
    two-year impact factor; ages (0,) give the immediacy index.
    Self-references are included, matching published practice; pass a
    stripped profile to exclude them.  Every volume's denominator must be
    present: a guessed item count would silently skew the ratio.  No ages,
    or one below 0 (its cells would cite before their volume, which no
    report number counts), raise ValueError.
    """
    ages = sorted(set(ages))
    if not ages or ages[0] < 0:
        raise ValueError("ages must be one or more ints >= 0")
    impact = _impact(profile.journal, pubs, eval_year, ages,
                     curves_mod.observe(profile, eval_year)[3])
    if impact is None:
        years = (eval_year - age for age in ages)
        missing = (year for year in years if pubs.get(profile.journal, year) is None)
        raise MissingDenominatorError(profile.journal, tuple(missing))
    return Fraction(*impact)


def _impact(journal: str, pubs: PublicationCounts, eval_year: int, ages: Iterable[int],
            pairs: list[tuple[int, int]]) -> tuple[int, int] | None:
    """impact_factor over sorted distinct ages >= 0 from observe's pairs for eval_year,
    as (citations at those ages, items); None when an item count is missing."""
    items = [pubs.get(journal, eval_year - age) for age in ages]
    if None in items:
        return None
    return sum(count for age, count in pairs if age in ages), sum(items)


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


def _coverage(numerators, window_ages) -> tuple[int, int] | None:
    """Window sum over the total of one curve's numerators, as (n, d > 0).

    None when the total is 0.  The curve's one scale cancels.
    """
    total = sum(numerators)
    if total == 0:
        return None
    window = sum(numerators[a] for a in window_ages)
    return (window, total) if total > 0 else (-window, -total)


def window_coverage(mean_curve: AccrualCurve, policy: WindowPolicy) -> Fraction:
    """Share of the horizon-total citations that fall inside the window ages."""
    if mean_curve.max_age() < policy.horizon:
        raise ValueError(
            f"mean curve reaches age {mean_curve.max_age()}, horizon is {policy.horizon}"
        )
    coverage = _coverage(mean_curve.numerators[: policy.horizon + 1], policy.window_ages)
    if coverage is None:
        raise ZeroWindowError(f"{mean_curve.journal!r}: no citations within the horizon")
    return Fraction(*coverage)


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


def journal_mean_curve(profile: CitationProfile, horizon: int) -> AccrualCurve:
    """Ragged-mean accrual curve for a whole journal, clamped to the ledger span.

    curves.as_of_mean of every cell the ledger holds: the horizon is capped at
    the oldest observed age, so a young journal gets a shorter curve.
    """
    mean = curves_mod.as_of_mean(profile.journal, curves_mod.observe(profile), horizon)
    if mean is None:
        raise ZeroWindowError(f"{profile.journal!r}: profile has no citations")
    return mean


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
    ">10" token.  report_rows serializes them by _row_dict and classifies
    the coverage pair, so a row builds no Fraction.
    """
    flags: set[str] = set()
    observation = _, years, _, pairs = curves_mod.observe(profile, eval_year)

    jif = _impact(profile.journal, pubs, eval_year, policy.window_ages, pairs)
    immediacy = _impact(profile.journal, pubs, eval_year, (0,), pairs)
    if jif is None or immediacy is None:
        flags.add(FLAG_MISSING_DENOMINATOR)
    half_life = _half_life(pairs, 1, 2)

    if mean_curve is None:
        mean_curve = curves_mod.as_of_mean(profile.journal, observation, policy.horizon)
    coverage = scaling = adjusted = None
    if mean_curve is not None:
        head = mean_curve.numerators[:policy.horizon + 1]
        if len(head) > policy.window_ages[-1]:
            coverage = _coverage(head, policy.window_ages)
    if coverage is not None and coverage[0] > 0:
        q = policy.target_quantile
        scaling = _scaling(*coverage, q.numerator, q.denominator)
        if jif is not None:
            adjusted = jif[0] * scaling[0], jif[1] * scaling[1]
    else:
        flags.add(FLAG_ZERO_WINDOW_CITATIONS)

    half_life_jcr = half_life
    if half_life is not None:
        # A journal younger than twice its half-life (from its first volume
        # as of eval_year) says more about the ledger's span than about itself.
        if (eval_year - years[0] + 1) * half_life[1] < 2 * half_life[0]:
            flags.add(FLAG_HALF_LIFE_UNRELIABLE)
        if half_life[0] > 10 * half_life[1]:  # printed as JCR prints it
            half_life_jcr = ">10"
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


def report_rows(profiles: Mapping[str, CitationProfile], pubs: PublicationCounts,
                eval_year: int, policy: WindowPolicy,
                classification: ClassificationThresholds) -> list[dict]:
    """The rows report and adjust print: one per journal, in journal_identity order.

    A journal with citeable items but no citations gets a row too, named as
    the publications name it.  Each row is _row_dict's, from one _ratios
    call, plus the class of its exact coverage pair.  profiles is not changed.
    """
    cited = set(map(journal_identity, profiles))
    uncited = {journal: CitationProfile(journal)
               for key, journal in pubs.journals.items() if key not in cited}
    rows = []
    for journal in sorted([*profiles, *uncited], key=journal_identity):
        profile = profiles[journal] if journal in profiles else uncited[journal]
        ratios, flags = _ratios(profile, pubs, eval_year, policy)
        row = _row_dict(profile.journal, eval_year, ratios, flags)
        coverage = ratios[_RATIO_FIELDS.index("coverage")]
        row["class"] = "" if coverage is None else curves_mod.classify_ratio(
            *coverage, classification)
        rows.append(row)
    return rows
