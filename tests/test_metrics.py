from __future__ import annotations

import json
import re
import tempfile
from fractions import Fraction
from itertools import accumulate
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from citemetrics.curves import (
    AccrualCurve,
    ClassificationThresholds,
    KIND_RAW,
    as_of_mean,
    as_of_volume_curves,
    clamp_horizon,
    classify_journal,
    classify_ratio,
    cumulative,
    mean_accrual_curve,
    observe,
    standardize_to_age2,
    volume_curves,
)
from citemetrics.errors import ConfigError, MissingDenominatorError, ZeroWindowError
from citemetrics.ledger import (
    ALIASES_HEADER, PUBLICATIONS_HEADER, YEAR_MAX, CellCount, CitationProfile,
    PublicationCounts, parse_alias_csv, parse_publication_csv, profiles_to_citation_csv,
    strip_self_references,
)
from citemetrics.cli import REPORT_COLUMNS, _render_rows, main
from citemetrics.metrics import (
    _RATIO_FIELDS,
    FLAG_HALF_LIFE_UNRELIABLE,
    FLAG_MISSING_DENOMINATOR,
    FLAG_ZERO_WINDOW_CITATIONS,
    IndicatorReport,
    WindowPolicy,
    _row_dict,
    adjusted_impact,
    build_indicator_report,
    cited_half_life,
    half_away_units,
    impact_factor,
    journal_mean_curve,
    report_rows,
    round_half_away,
    scaling_factor,
    window_coverage,
)

from conftest import assert_one_form, make_profile


def pubs_for(journal, items_by_year):
    return PublicationCounts(
        {(journal.casefold(), year): items for year, items in items_by_year.items()}
    )


def profile_from_ages(counts, eval_year=2004, journal="J"):
    """Profile whose citations received in eval_year by age are `counts`."""
    cells = {}
    for age, count in enumerate(counts):
        cells[(eval_year - age, eval_year)] = (count, 0)
    return make_profile(journal, cells)


def halflife_oracle(counts, q):
    """Bisection on the piecewise-linear cumulative citation curve.

    Independent of the closed-form interpolation: evaluates the cumulative
    function directly and hunts the leftmost point where it reaches q*total.
    """
    total = sum(counts)
    target = float(q) * total

    def cum(t):
        whole = int(t)
        value = float(sum(counts[:whole]))
        if whole < len(counts):
            value += counts[whole] * (t - whole)
        return value

    lo, hi = 0.0, float(len(counts))
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if cum(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


# --- impact factor and immediacy ----------------------------------------


def test_impact_factor_hand_case():
    profile = make_profile("J", {(2003, 2004): (30, 0), (2002, 2004): (50, 0)})
    pubs = pubs_for("J", {2002: 40, 2003: 40})
    assert impact_factor(profile, pubs, 2004) == 1


def test_impact_factor_zero_citations():
    profile = make_profile("J", {(1990, 1991): (5, 0)})
    pubs = pubs_for("J", {2002: 40, 2003: 40})
    assert impact_factor(profile, pubs, 2004) == 0


def test_impact_factor_missing_denominator():
    profile = make_profile("J", {(2003, 2004): (30, 0)})
    with pytest.raises(MissingDenominatorError):
        impact_factor(profile, pubs_for("J", {2003: 40}), 2004)


def test_impact_factor_window_ages():
    # Ages 1-5: citations in 2004 to 1999-2003 over those five volumes' items.
    profile = make_profile("J", {(2004 - a, 2004): (10 * a, 0) for a in range(8)})
    pubs = pubs_for("J", {y: 5 for y in range(1995, 2005)})
    assert impact_factor(profile, pubs, 2004, (1, 2, 3, 4, 5)) == Fraction(150, 25)
    assert impact_factor(profile, pubs, 2004, (5, 3, 1, 2, 4, 4)) == Fraction(150, 25)
    with pytest.raises(MissingDenominatorError) as err:
        impact_factor(profile, pubs_for("J", {2002: 5, 2003: 5}), 2004, (1, 2, 3, 4))
    assert err.value.years == (2001, 2000)


@pytest.mark.parametrize("ages", [(-1, 1), ()], ids=["negative", "none"])
def test_impact_factor_rejects_a_negative_age(ages):
    # A cell at age -1 cites before its volume: no report number counts it.
    # No ages at all would divide by zero items.
    profile = make_profile("J", {(2005, 2004): (30, 0), (2003, 2004): (10, 0)})
    pubs = pubs_for("J", {2003: 5, 2005: 5})
    with pytest.raises(ValueError, match="ages must be one or more ints >= 0"):
        impact_factor(profile, pubs, 2004, ages)
    assert impact_factor(profile, pubs, 2004, (1,)) == 2


def test_immediacy_hand_case():
    profile = make_profile("J", {(2004, 2004): (8, 0)})
    assert impact_factor(profile, pubs_for("J", {2004: 40}), 2004, (0,)) == Fraction(1, 5)


def test_immediacy_zero():
    profile = make_profile("J", {(2003, 2004): (9, 0)})
    assert impact_factor(profile, pubs_for("J", {2004: 40}), 2004, (0,)) == 0


def test_immediacy_missing_denominator():
    profile = make_profile("J", {(2004, 2004): (8, 0)})
    with pytest.raises(MissingDenominatorError):
        impact_factor(profile, pubs_for("J", {2003: 40}), 2004, (0,))


# --- cited half-life ------------------------------------------------------


def test_half_life_single_year():
    assert cited_half_life(profile_from_ages([40]), 2004) == Fraction(1, 2)


def test_half_life_uniform_four_years():
    assert cited_half_life(profile_from_ages([10, 10, 10, 10]), 2004) == 2


def test_half_life_thirty_flat_years():
    profile = profile_from_ages([1] * 30)
    hl = cited_half_life(profile, 2004)
    assert hl == 15
    assert build_indicator_report(profile, PublicationCounts(), 2004).half_life_jcr == ">10"


def test_half_life_undefined_without_citations():
    assert cited_half_life(profile_from_ages([0, 0, 0]), 2004) is None
    assert cited_half_life(make_profile("J", {}), 2004) is None


def test_half_life_quantile_one_hits_last_positive_age():
    profile = profile_from_ages([5, 5, 0, 0])
    assert cited_half_life(profile, 2004, Fraction(1)) == 2


def test_jcr_truncate():
    # Half-lives 12/5, 15 and 10: only a value above 10 prints as ">10".
    for counts, expected in (([4, 4, 5, 7], Fraction(12, 5)), ([1] * 30, ">10"),
                             ([1] * 20, Fraction(10))):
        report = build_indicator_report(profile_from_ages(counts), PublicationCounts(), 2004)
        assert report.half_life_jcr == expected


ages_strategy = st.lists(st.integers(0, 100), min_size=1, max_size=30)


@given(ages_strategy)
def test_half_life_matches_bisection_oracle(counts):
    profile = profile_from_ages(counts)
    exact = cited_half_life(profile, 2004)
    if sum(counts) == 0:
        assert exact is None
        return
    assert abs(float(exact) - halflife_oracle(counts, Fraction(1, 2))) < 1e-9


@given(ages_strategy)
def test_half_life_monotone_in_quantile(counts):
    profile = profile_from_ages(counts)
    if sum(counts) == 0:
        return
    quantiles = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    values = [cited_half_life(profile, 2004, q) for q in quantiles]
    assert all(a <= b for a, b in zip(values, values[1:]))


@given(ages_strategy)
def test_half_life_at_quantile_one_is_last_positive_age_plus_one(counts):
    profile = profile_from_ages(counts)
    if sum(counts) == 0:
        return
    last_positive = max(age for age, c in enumerate(counts) if c > 0)
    assert cited_half_life(profile, 2004, Fraction(1)) == last_positive + 1


@given(ages_strategy, st.randoms(use_true_random=False))
def test_half_life_ignores_cell_order_and_cells_without_an_age(counts, rng):
    # A ledger lists cells in row order, not by age; a cell citing a year
    # before its volume, or cited in another year, has no age in eval_year.
    profile = profile_from_ages(counts)
    cells = list(profile.cells.items())
    rng.shuffle(cells)
    cells += [((2005, 2004), CellCount(7, 0)), ((2001, 2003), CellCount(5, 1))]
    shuffled = CitationProfile("J", dict(cells))
    for q in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        assert cited_half_life(shuffled, 2004, q) == cited_half_life(profile, 2004, q)


# --- coverage, scaling, adjustment ---------------------------------------


def mean_curve(values, journal="J"):
    """A mean curve of exact `values`: ints over the lcm of their denominators."""
    scale = lcm(1, *(Fraction(v).denominator for v in values))
    return AccrualCurve(journal, None, KIND_RAW, tuple(int(v * scale) for v in values),
                        scale=scale)


def test_coverage_hand_case():
    values = [10, 20, 18, 2] + [0] * 17
    assert window_coverage(mean_curve(values), WindowPolicy()) == Fraction(38, 50)


def test_coverage_flat_kernel():
    assert window_coverage(mean_curve([1] * 21), WindowPolicy()) == Fraction(2, 21)


def test_coverage_window_captures_everything():
    values = [0, 5, 7] + [0] * 18
    assert window_coverage(mean_curve(values), WindowPolicy()) == 1


def test_coverage_zero_total_is_error():
    with pytest.raises(ZeroWindowError):
        window_coverage(mean_curve([0] * 21), WindowPolicy())


def test_coverage_requires_horizon_length():
    with pytest.raises(ValueError):
        window_coverage(mean_curve([1, 1, 1]), WindowPolicy())


def reference_window_coverage(mean_curve, policy):
    # The code the integer-sum kernel replaced: Fraction additions per value.
    if mean_curve.max_age() < policy.horizon:
        raise ValueError(
            f"mean curve reaches age {mean_curve.max_age()}, horizon is {policy.horizon}"
        )
    total = sum(mean_curve.values[: policy.horizon + 1])
    if total == 0:
        raise ZeroWindowError(f"{mean_curve.journal!r}: no citations within the horizon")
    window = sum(mean_curve.values[a] for a in policy.window_ages)
    return Fraction(window, 1) / Fraction(total, 1)


def coverage_outcome(function, curve, policy):
    try:
        return function(curve, policy)
    except (ValueError, ZeroWindowError) as exc:
        return (type(exc), str(exc))


mean_values = st.one_of(
    st.integers(0, 30),
    st.builds(Fraction, st.integers(0, 90), st.integers(1, 12)),
)


@given(
    st.lists(mean_values, min_size=1, max_size=12),
    st.sets(st.integers(0, 4), min_size=1),
    st.integers(4, 12),
)
def test_window_coverage_matches_reference(values, window_ages, horizon):
    curve = mean_curve(values)
    policy = WindowPolicy(tuple(window_ages), horizon)
    expected = coverage_outcome(reference_window_coverage, curve, policy)
    result = coverage_outcome(window_coverage, curve, policy)
    assert result == expected
    if not isinstance(result, tuple):
        assert type(result) is Fraction


def test_scaling_factor_values():
    assert round_half_away(scaling_factor(Fraction(38, 100), Fraction(1, 2))) == 1.3
    assert round_half_away(scaling_factor(Fraction(65, 1000), Fraction(1, 2))) == 7.7
    assert scaling_factor(Fraction(1, 2), Fraction(1, 2)) == 1


def test_scaling_factor_rejects_zero_coverage():
    with pytest.raises(ValueError):
        scaling_factor(0, Fraction(1, 2))


@given(st.fractions(min_value=Fraction(1, 1000), max_value=1))
def test_scaling_factor_identity_when_target_equals_coverage(coverage):
    assert scaling_factor(coverage, coverage) == 1


def test_adjusted_impact_values():
    assert round_half_away(adjusted_impact(Fraction(2, 10), Fraction(13158, 10000))) == 0.3
    assert abs(float(adjusted_impact(Fraction(13, 10), Fraction(77, 10))) - 10.1) <= 0.15
    assert adjusted_impact(Fraction(7, 3), 1) == Fraction(7, 3)


@pytest.mark.parametrize("call, error", [
    (lambda: cited_half_life(profile_from_ages([4, 2]), 2004, quantile=0),
     "quantile must be in (0, 1]"),
    (lambda: scaling_factor(Fraction(1, 2), 0), "target_quantile must be in (0, 1]"),
    (lambda: adjusted_impact(1, 0), "scaling factor must be positive"),
], ids=["half-life-quantile", "scaling-quantile", "adjusted-scaling"])
def test_indicator_helpers_reject_out_of_range_arguments(call, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        call()


def test_round_half_away_breaks_ties_upward():
    assert round_half_away(Fraction(1, 4)) == 0.3
    assert round_half_away(Fraction(-1, 4)) == -0.3
    assert round_half_away(Fraction(124, 100)) == 1.2


def test_half_away_units():
    assert [half_away_units(Fraction(n, 2)) for n in range(-5, 6)] == [
        -3, -2, -2, -1, -1, 0, 1, 1, 2, 2, 3
    ]
    assert half_away_units(Fraction(249, 100)) == 2
    assert half_away_units(Fraction(-251, 100)) == -3
    assert half_away_units(7) == 7


# --- reliability flags ----------------------------------------------------


def reliability_flag(profile, eval_year, half_life):
    """Whether the report flags HalfLifeUnreliable, after checking its half-life."""
    report = build_indicator_report(profile, PublicationCounts(), eval_year)
    assert report.half_life_exact == half_life
    return FLAG_HALF_LIFE_UNRELIABLE in report.flags


def test_reliability_flag_young_journal():
    profile = make_profile("J", {(2001, 2004): (1, 0)})  # age 4 in 2004
    assert reliability_flag(profile, 2004, Fraction(7, 2))


def test_reliability_flag_old_journal():
    profile = make_profile("J", {(1975, 2000): (1, 0), (2003, 2004): (4, 0)})  # age 30
    assert not reliability_flag(profile, 2004, Fraction(3, 2))


def test_reliability_flag_boundary_is_strict():
    profile = profile_from_ages([1, 1, 1, 1])  # age 4, 2*2.0 == 4
    assert not reliability_flag(profile, 2004, Fraction(2))


def test_reliability_flag_dates_journal_as_of_eval_year():
    # Volume 1990 is first cited in 2000, so in 1997 the journal is 3 years old.
    profile = make_profile("J", {(1995, 1997): (1, 0), (1990, 2000): (1, 0),
                                 (1999, 2000): (9, 0)})
    assert reliability_flag(profile, 1997, Fraction(5, 2))
    assert not reliability_flag(profile, 2000, Fraction(14, 9))


# --- policy and report ----------------------------------------------------


def test_policy_validation():
    with pytest.raises(ConfigError):
        WindowPolicy(window_ages=())
    with pytest.raises(ConfigError):
        WindowPolicy(window_ages=(1, 2), horizon=1)
    with pytest.raises(ConfigError):
        WindowPolicy(target_quantile=Fraction(0))
    with pytest.raises(ConfigError):
        WindowPolicy(window_ages=(-1,))


def test_report_missing_denominator_flag():
    profile = make_profile("J", {(2003, 2004): (30, 0), (1984, 1990): (1, 0)})
    report = build_indicator_report(profile, PublicationCounts(), 2004)
    assert FLAG_MISSING_DENOMINATOR in report.flags
    assert report.jif is None
    assert report.adjusted_jif is None


def test_report_zero_window_flag_for_ledger_shorter_than_window():
    profile = make_profile("J", {(2004, 2004): (3, 0)})
    report = build_indicator_report(profile, pubs_for("J", {2002: 1, 2003: 1, 2004: 1}), 2004)
    assert FLAG_ZERO_WINDOW_CITATIONS in report.flags
    assert report.coverage is None


def test_report_json_fields_exact():
    profile = make_profile("J", {(2003, 2004): (3, 0), (1984, 1984): (1, 0)})
    report = build_indicator_report(profile, pubs_for("J", {y: 10 for y in range(1984, 2005)}), 2004)
    data = report.to_json_dict()
    assert tuple(data) == tuple(key for key in REPORT_COLUMNS if key != "class")
    assert isinstance(data["flags"], list)


def test_report_csv_row_mirrors_json():
    # No 2004 items: immediacy is blank and the row carries two flags.
    profile = make_profile(
        "J", {(2003, 2004): (3, 0), (2002, 2004): (1, 0), (2002, 2002): (1, 0)}
    )
    report = build_indicator_report(profile, pubs_for("J", {y: 10 for y in range(1984, 2004)}), 2004)
    data = dict(report.to_json_dict(), **{"class": "Hare"})
    header, row = _render_rows([data], REPORT_COLUMNS, "csv").splitlines()
    assert header.split(",") == list(REPORT_COLUMNS)
    cells = dict(zip(REPORT_COLUMNS, row.split(",")))
    assert cells["immediacy"] == "" and data["immediacy"] is None
    assert cells["flags"] == "HalfLifeUnreliable|MissingDenominator" == "|".join(data["flags"])
    for key in ("jif", "half_life_exact", "half_life_jcr", "coverage", "scaling_factor",
                "adjusted_jif"):
        assert cells[key] == repr(data[key])
    assert cells["journal"] == "J" and cells["eval_year"] == "2004" and cells["class"] == "Hare"


def test_adjusted_equals_jif_times_scaling_exactly():
    profile = make_profile(
        "J", {(2004 - a, 2004): (c, 0) for a, c in enumerate([5, 9, 7, 3, 1] + [1] * 16)}
    )
    pubs = pubs_for("J", {y: 7 for y in range(1980, 2005)})
    report = build_indicator_report(profile, pubs, 2004)
    assert report.adjusted_jif == report.jif * report.scaling_factor


# --- count-scaling covariance ---------------------------------------------


def scale_profile(profile, k):
    return CitationProfile(
        profile.journal,
        {key: CellCount(c.total * k, c.self_count * k) for key, c in profile.cells.items()},
    )


@given(
    st.lists(st.integers(0, 50), min_size=3, max_size=25),
    st.sampled_from([2, 7, 100]),
)
def test_count_scaling_covariance(counts, k):
    if sum(counts) == 0:
        counts[0] = 1
    profile = profile_from_ages(counts)
    pubs = pubs_for("J", {y: 13 for y in range(1960, 2005)})
    scaled = scale_profile(profile, k)

    assert impact_factor(scaled, pubs, 2004) == k * impact_factor(profile, pubs, 2004)
    assert impact_factor(scaled, pubs, 2004, (0,)) == k * impact_factor(profile, pubs, 2004, (0,))
    assert cited_half_life(scaled, 2004) == cited_half_life(profile, 2004)

    policy = WindowPolicy(horizon=len(counts) - 1)
    base_curve = mean_curve(counts)
    scaled_curve = mean_curve([v * k for v in counts])
    try:
        base_cov = window_coverage(base_curve, policy)
    except ZeroWindowError:
        return
    scaled_cov = window_coverage(scaled_curve, policy)
    assert scaled_cov == base_cov
    if base_cov > 0:
        assert scaling_factor(scaled_cov, Fraction(1, 2)) == scaling_factor(
            base_cov, Fraction(1, 2)
        )


# --- fixture-level behaviour ----------------------------------------------


def test_ranking_gap_widens_after_adjustment(hare, tortoise):
    _, hare_profile, hare_pubs = hare
    _, tortoise_profile, tortoise_pubs = tortoise
    hare_report = build_indicator_report(hare_profile, hare_pubs, 2004)
    tortoise_report = build_indicator_report(tortoise_profile, tortoise_pubs, 2004)
    # the slow journal already leads on raw impact factor
    assert tortoise_report.jif > hare_report.jif
    # and adjustment widens the ratio between them
    raw_ratio = tortoise_report.jif / hare_report.jif
    adjusted_ratio = tortoise_report.adjusted_jif / hare_report.adjusted_jif
    assert adjusted_ratio > raw_ratio


def test_fixture_classification(hare, tortoise):
    _, hare_profile, hare_pubs = hare
    _, tortoise_profile, tortoise_pubs = tortoise
    hare_cov = build_indicator_report(hare_profile, hare_pubs, 2004).coverage
    tortoise_cov = build_indicator_report(tortoise_profile, tortoise_pubs, 2004).coverage
    assert classify_journal(hare_cov) == "Hare"
    assert classify_journal(tortoise_cov) == "Tortoise"


# --- the age-sum kernel against the curve-layer path ----------------------
#
# Copies of journal_mean_curve and build_indicator_report as they were before
# reports took their mean-curve data from per-age integer sums: volume
# curves, then their ragged mean, then coverage from the mean's values
# (reference_window_coverage above).  The kernel must return equal results
# and raise the same errors, except that a profile with cells but no volume
# now raises ZeroWindowError like the empty one, so reports flag it.  A
# report for a year sees only the cells citing in or before it.


def reference_journal_mean_curve(profile, horizon):
    volumes = list(volume_curves(profile).values())
    if not volumes:  # no cells, or none a volume's own life observes
        raise ZeroWindowError(f"{profile.journal!r}: profile has no citations")
    oldest = max((curve.max_age() for curve in volumes), default=horizon)
    return mean_accrual_curve(volumes, clamp_horizon(horizon, oldest))


def as_of(profile, year):
    """The profile cut to the cells citing in or before `year`."""
    return CitationProfile(profile.journal, {
        key: cell for key, cell in profile.cells.items() if key[1] <= year
    })


def reference_impact(profile, pubs, eval_year, ages, flags):
    """The cells citing in eval_year at `ages` over those volumes' items, or
    None with the MissingDenominator flag when an item count is missing."""
    items = [pubs.get(profile.journal, eval_year - age) for age in ages]
    if None in items:
        flags.add(FLAG_MISSING_DENOMINATOR)
        return None
    cited = [profile.cells.get((eval_year - age, eval_year)) for age in ages]
    return Fraction(sum(cell.total for cell in cited if cell is not None), sum(items))


def reference_build_indicator_report(profile, pubs, eval_year, policy, mean_curve=None):
    profile = as_of(profile, eval_year)
    flags = set()
    jif = reference_impact(profile, pubs, eval_year, policy.window_ages, flags)
    immediacy = reference_impact(profile, pubs, eval_year, (0,), flags)
    half_life = cited_half_life(profile, eval_year)
    half_life_jcr = half_life if half_life is None or half_life <= 10 else ">10"
    coverage = scaling = adjusted = None
    try:
        if mean_curve is None:
            mean_curve = reference_journal_mean_curve(profile, policy.horizon)
        horizon = min(policy.horizon, mean_curve.max_age())
        if horizon < max(policy.window_ages):
            raise ZeroWindowError(f"{profile.journal!r}: ledger span shorter than the window")
        if horizon < policy.horizon:
            policy = policy._replace(horizon=horizon)
        coverage = reference_window_coverage(mean_curve, policy)
        if coverage > 0:
            scaling = scaling_factor(coverage, policy.target_quantile)
            if jif is not None:
                adjusted = adjusted_impact(jif, scaling)
        else:
            flags.add(FLAG_ZERO_WINDOW_CITATIONS)
    except ZeroWindowError:
        flags.add(FLAG_ZERO_WINDOW_CITATIONS)
    flags |= reference_reliability_flags(profile, eval_year, half_life)
    return IndicatorReport(profile.journal, eval_year, jif, immediacy, half_life,
                           half_life_jcr, coverage, scaling, adjusted, frozenset(flags))


def kernel_outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:  # the same error type and message on both sides
        return (type(exc), str(exc))


# (cited year, age) -> (non-self, self): ages below 0 are programmatic cells
# citing a year before the volume; an empty dict is a publication-only journal.
kernel_cells = st.dictionaries(
    st.tuples(st.integers(1990, 1997), st.integers(-3, 10)),
    st.tuples(st.integers(0, 9), st.integers(0, 4)),
    max_size=30,
)


def kernel_profile(cells):
    return make_profile("J", {
        (cited, cited + age): (other + self_count, self_count)
        for (cited, age), (other, self_count) in cells.items()
    })


@given(kernel_cells, st.integers(-2, 14), st.integers(1985, 2010))
def test_journal_mean_curve_matches_volume_mean(cells, horizon, year):
    profile = kernel_profile(cells)
    expected = kernel_outcome(reference_journal_mean_curve, profile, horizon)
    result = kernel_outcome(journal_mean_curve, profile, horizon)
    assert result == expected
    if isinstance(result, AccrualCurve):
        assert result.observations == expected.observations
        volumes = list(volume_curves(profile).values())
        assert_one_form(result, exact_ragged_mean(volumes, len(result.numerators)))
    # As of `year`, the mean and the volume curves are those of the profile cut there.
    observation = observe(profile, year)
    assert as_of_volume_curves(profile, observation) == volume_curves(as_of(profile, year))
    expected = kernel_outcome(reference_journal_mean_curve, as_of(profile, year), horizon)
    result = as_of_mean("J", observation, horizon)
    if result is None:
        assert expected[0] is ZeroWindowError
    else:
        assert (result, result.observations) == (expected, expected.observations)


def exact_ragged_mean(volumes, width):
    """Per-age Fraction means of raw volume curves, each over the volumes observing it."""
    return [
        Fraction(sum(c.values[age] for c in volumes if age <= c.max_age()),
                 sum(age <= c.max_age() for c in volumes))
        for age in range(width)
    ]


@given(kernel_cells, st.booleans(), st.integers(-2, 14))
def test_every_curve_holds_int_numerators_over_one_scale(cells, strip, horizon):
    # Volume, cumulative, standardized and mean curves, and the cumulative and
    # standardized forms of a mean (whose scale the standardizing cancels).
    profile = kernel_profile(cells)
    if strip:
        profile = strip_self_references(profile)
    volumes = volume_curves(profile)
    for year, curve in volumes.items():
        counts = [profile.cells[key].total if key in profile.cells else 0
                  for key in ((year, year + age) for age in range(curve.max_age() + 1))]
        cells_through = list(accumulate(counts))
        assert_one_form(curve, counts)
        assert_one_form(cumulative(curve), cells_through)
        if len(counts) >= 3 and cells_through[2]:
            assert_one_form(standardize_to_age2(cumulative(curve)),
                            [Fraction(100 * c, cells_through[2]) for c in cells_through])
    if not volumes:
        return
    oldest = max(curve.max_age() for curve in volumes.values())
    exact = exact_ragged_mean(list(volumes.values()), clamp_horizon(horizon, oldest) + 1)
    means = [mean_accrual_curve(list(volumes.values()), clamp_horizon(horizon, oldest)),
             journal_mean_curve(profile, horizon)]
    for mean in means:
        assert_one_form(mean, exact)
        running = list(accumulate(exact))
        assert_one_form(cumulative(mean), running)
        if len(running) >= 3 and running[2]:
            assert_one_form(standardize_to_age2(cumulative(mean)),
                            [100 * r / running[2] for r in running])


@st.composite
def kernel_policies(draw):
    # Horizons from the oldest window age (0 with window (0,)) upward; the
    # ledger's span clamps many of them below the window.
    ages = tuple(draw(st.sets(st.integers(0, 5), min_size=1, max_size=3)))
    horizon = draw(st.integers(max(ages), 12))
    quantile = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1)]))
    return WindowPolicy(ages, horizon, quantile)


mean_values_or_none = st.one_of(
    st.none(),
    st.just("journal"),
    st.lists(mean_values, max_size=14),
)


@given(
    kernel_cells,
    st.dictionaries(st.integers(1985, 2008), st.integers(1, 20), max_size=12),
    st.integers(1985, 2010),
    kernel_policies(),
    mean_values_or_none,
)
def test_build_indicator_report_matches_reference(cells, items, eval_year, policy, mean):
    # eval_year ranges from before the first volume to after the last citing year.
    profile = kernel_profile(cells)
    pubs = pubs_for("J", items)
    if mean == "journal":  # as the benchmark's pipeline passes it
        mean = kernel_outcome(journal_mean_curve, profile, policy.horizon)
        if not isinstance(mean, AccrualCurve):
            return
    elif mean is not None:
        mean = mean_curve(mean)
    expected = kernel_outcome(reference_build_indicator_report, profile, pubs, eval_year,
                              policy, mean)
    result = kernel_outcome(build_indicator_report, profile, pubs, eval_year, policy, mean)
    assert result == expected
    if isinstance(result, IndicatorReport) and result.coverage is not None:
        assert type(result.coverage) is Fraction


@pytest.mark.parametrize("values", [[-4, 1, 1], [4, -1, -2], [1, -3, 1], [-1, 0, -1]])
def test_report_with_signed_mean_curve_matches_reference(values):
    # A mean curve passed in is used as given, even with negative values: a
    # negative horizon total flips the coverage's sign, as a Fraction would.
    profile = kernel_profile({(1995, 1): (2, 0)})
    args = (profile, pubs_for("J", {1994: 1, 1995: 1}), 1996, WindowPolicy(), mean_curve(values))
    expected = kernel_outcome(reference_build_indicator_report, *args)
    assert kernel_outcome(build_indicator_report, *args) == expected


@pytest.mark.parametrize("cells,horizon", [
    ({}, 20),  # empty, or publication-only
    ({(1999, -1): (3, 0)}, 20),  # only a cell citing before its volume: no volume
    ({(1999, -1): (3, 0), (1990, 2): (0, 0)}, 20),  # one all-zero volume
    ({(1996, 0): (4, 1), (1996, 1): (2, 0)}, 0),  # horizon 0
    ({(1996, 0): (4, 1), (1996, 1): (2, 0)}, -1),  # an empty curve
])
def test_journal_mean_curve_edge_cases(cells, horizon):
    profile = kernel_profile(cells)
    expected = kernel_outcome(reference_journal_mean_curve, profile, horizon)
    assert kernel_outcome(journal_mean_curve, profile, horizon) == expected
    pubs = pubs_for("J", {1995: 3, 1996: 5})
    for eval_year in (1980, 1996, 2020):
        for policy in (WindowPolicy(), WindowPolicy((0,), 0), WindowPolicy((1, 4), 4)):
            args = (profile, pubs, eval_year, policy)
            expected = kernel_outcome(reference_build_indicator_report, *args)
            result = kernel_outcome(build_indicator_report, *args)
            assert result == expected
            if all(citing > eval_year for _, citing in profile.cells):
                # Nothing cited yet: no coverage as of eval_year.
                assert FLAG_ZERO_WINDOW_CITATIONS in result.flags


@given(
    kernel_cells,
    st.booleans(),
    st.dictionaries(st.integers(1985, 2008), st.integers(1, 20), max_size=12),
    st.integers(1985, 2010),
    kernel_policies(),
)
def test_report_as_of_year_is_report_on_cut_ledger(cells, strip, items, eval_year, policy):
    # eval_year ranges from before the first volume to after the last citing
    # year; cells citing before their volume are drawn too.
    profile = kernel_profile(cells)
    if strip:
        profile = strip_self_references(profile)
    cut = as_of(profile, eval_year)
    pubs = pubs_for("J", items)
    result = build_indicator_report(profile, pubs, eval_year, policy)
    assert result == build_indicator_report(cut, pubs, eval_year, policy)
    assert observe(profile, eval_year)[:3] == observe(cut)[:3]
    assert observe(profile, eval_year) == observe(cut, eval_year)


def test_report_flags_profile_without_volume():
    # Every cell cites a volume after its citing year: no volume curve, so
    # coverage is undefined and flagged, not a bare ValueError.
    profile = CitationProfile("J", {(1999, 1998): CellCount(3, 0)})
    with pytest.raises(ZeroWindowError, match="'J': profile has no citations"):
        journal_mean_curve(profile, 20)
    report = build_indicator_report(profile, pubs_for("J", {1997: 2, 1998: 4, 1999: 5}), 1999)
    assert report.jif == 0
    assert report.coverage is report.scaling_factor is report.adjusted_jif is None
    assert report.flags == {FLAG_ZERO_WINDOW_CITATIONS}
    with pytest.raises(ZeroWindowError, match="'J': profile has no citations"):
        journal_mean_curve(CitationProfile("J"), 20)


# --- one observation per journal --------------------------------------------
# curves.observe replaced four separate scans over a journal's cells.  They
# are kept here as references: observe must give what each of them gave.


def reference_observed_volumes(profile, through):
    cells = profile.cells
    end = max((citing for _, citing in cells if citing <= through), default=None)
    if end is None:
        return None, []
    return end, sorted({cited for cited, citing in cells if cited <= end and citing <= end})


def reference_age_sums(profile, width, end):
    sums = [0] * width
    for (cited, citing), cell in profile.cells.items():
        age = citing - cited
        if 0 <= age < width and citing <= end:
            sums[age] += cell.total
    return sums


def reference_half_life_pairs(profile, eval_year):
    return sorted(
        (eval_year - cited, cell.total)
        for (cited, citing), cell in profile.cells.items()
        if citing == eval_year and cited <= eval_year and cell.total
    )


def reference_reliability_flags(profile, eval_year, half_life_exact):
    if half_life_exact is None:
        return frozenset()
    first = min(cited for cited, citing in profile.cells if citing <= eval_year)
    if eval_year - first + 1 < 2 * half_life_exact:
        return frozenset({FLAG_HALF_LIFE_UNRELIABLE})
    return frozenset()


@given(
    kernel_cells,
    st.one_of(st.integers(1985, 2010), st.just(YEAR_MAX)),
)
@example({}, 2000)
@example({(1995, -2): (3, 0)}, 1994)  # cells, but no volume as of 1994
@example({(1995, 0): (0, 0), (1994, 2): (5, 1)}, 1996)  # a zero total
@example({(1990, 2): (4, 0), (1996, 4): (3, 0)}, 2000)  # dated by its first volume
def test_observe_matches_reference_scans(cells, through):
    profile = kernel_profile(cells)
    end, years, totals, pairs = observe(profile, through)
    assert (end, years) == reference_observed_volumes(profile, through)
    width = end - years[0] + 1 if years else 0
    assert totals == reference_age_sums(profile, width, end)
    assert pairs == reference_half_life_pairs(profile, through)
    own = cited_half_life(profile, through)
    assert reliability_flag(profile, through, own) == bool(
        reference_reliability_flags(profile, through, own))
    if not years:  # no observed life to compare a half-life with
        assert own is None


# --- the CLI's rows against the reference report ------------------------------
# report and adjust print the rows of metrics.report_rows, each from int
# pairs: one int division per printed value, and the class cross-multiplied
# against the thresholds.  They must print what the reference report
# serializes.


@st.composite
def class_thresholds(draw):
    """(hare, tortoise) with 0 <= tortoise < hare <= 1, often on a round coverage."""
    grid = st.sampled_from([Fraction(n, 20) for n in range(21)])
    hare, tortoise = draw(st.one_of(
        st.tuples(grid, grid),
        st.tuples(st.fractions(0, 1, max_denominator=60), st.fractions(0, 1, max_denominator=60)),
    ))
    if hare == tortoise:
        hare, tortoise = Fraction(1), Fraction(0)
    return max(hare, tortoise), min(hare, tortoise)


@given(
    kernel_cells,
    st.booleans(),
    st.dictionaries(st.integers(1985, 2008), st.integers(1, 20), max_size=12),
    st.integers(1985, 2010),
    kernel_policies(),
    class_thresholds(),
)
# Coverage 2/4 on the hare threshold, then on the tortoise threshold.
@example({(1990, 1): (1, 0), (1990, 2): (1, 0), (1990, 3): (2, 0)}, False,
         {1991: 1, 1992: 1, 1993: 1}, 1993, WindowPolicy((1, 2), 3),
         (Fraction(1, 2), Fraction(0)))
@example({(1990, 1): (1, 0), (1990, 2): (1, 0), (1990, 3): (2, 0)}, False,
         {1991: 1, 1992: 1, 1993: 1}, 1993, WindowPolicy((1, 2), 3),
         (Fraction(3, 4), Fraction(1, 2)))
# A half-life of exactly 10 is a number, not ">10".
@example({(1990, 10): (1, 0), (1991, 9): (1, 0)}, False, {1998: 2, 1999: 2, 2000: 2}, 2000,
         WindowPolicy(), (Fraction(1, 4), Fraction(3, 20)))
# The journal is exactly twice its half-life old (6 == 2 * 3): no flag.
@example({(1990, 0): (1, 0), (1993, 2): (1, 0), (1992, 3): (1, 0)}, False,
         {1993: 4, 1994: 4, 1995: 4}, 1995, WindowPolicy(), (Fraction(1, 4), Fraction(3, 20)))
# A missing denominator, and no window citations (coverage 0) on a self share.
@example({(1990, 0): (3, 2), (1990, 5): (2, 0)}, True, {1994: 3}, 1995, WindowPolicy(),
         (Fraction(1, 4), Fraction(0)))
@example({}, False, {1994: 3, 1995: 1}, 1995, WindowPolicy(), (Fraction(1), Fraction(0)))
def test_cli_rows_match_reference_report(cells, strip, items, eval_year, policy, thresholds):
    # The ledger rejects a row citing before its volume, so those cells are dropped.
    profile = kernel_profile({key: value for key, value in cells.items() if key[1] >= 0})
    hare, tortoise = thresholds
    with tempfile.TemporaryDirectory() as tmp:
        citations, publications, out = (Path(tmp) / name for name in ("c.csv", "p.csv", "o"))
        citations.write_text(profiles_to_citation_csv({"J": profile}))
        publications.write_text("\n".join(
            [PUBLICATIONS_HEADER] + [f"J,{year},{count}" for year, count in items.items()]
        ) + "\n")
        argv = [
            "report", "--citations", str(citations), "--publications", str(publications),
            "--year", str(eval_year), "--window", ",".join(map(str, policy.window_ages)),
            "--horizon", str(policy.horizon), "--quantile", str(policy.target_quantile),
            "--hare", str(hare), "--tortoise", str(tortoise), "--format", "json", "-o", str(out),
        ]
        assert main(argv + ["--strip-self"] * strip) == 0
        rows = json.loads(out.read_text())
    if strip:
        profile = strip_self_references(profile)
    expected = []
    if profile.cells or items:  # a publication-only journal gets a row too
        report = reference_build_indicator_report(profile, pubs_for("J", items), eval_year, policy)
        row = report.to_json_dict()
        row["class"] = "" if report.coverage is None else classify_journal(
            report.coverage, ClassificationThresholds(hare, tortoise))
        expected.append({key: row[key] for key in REPORT_COLUMNS})
    assert rows == expected
    # The same rows by the library route: a report, its JSON dict and its class.
    for row in rows:
        report = build_indicator_report(profile, pubs_for("J", items), eval_year, policy)
        assert row == {**report.to_json_dict(), "class": "" if report.coverage is None else
                       classify_journal(report.coverage, ClassificationThresholds(hare, tortoise))}


def test_report_rows_add_publication_only_journals_as_spelled():
    # A journal with items but no citations gets a row under its publications
    # spelling after alias resolution: trimmed, or the canonical name.  The
    # caller's profiles are left as they were.
    aliases = parse_alias_csv([ALIASES_HEADER, "PR,Physical Review"])
    pubs = parse_publication_csv([PUBLICATIONS_HEADER, " pr ,2003,4", "physical review,2002,3",
                                  " Only Pubs ,2003,9", "only pubs,2002,1"], aliases)
    cited = make_profile("Cited", {(2003, 2004): (5, 0)})
    profiles = {"Cited": cited}
    rows = report_rows(profiles, pubs, 2004, WindowPolicy(), ClassificationThresholds())
    assert [row["journal"] for row in rows] == ["Cited", "Only Pubs", "Physical Review"]
    assert list(profiles.items()) == [("Cited", cited)]
    report = build_indicator_report(CitationProfile("Physical Review"), pubs, 2004)
    assert rows[2] == {**report.to_json_dict(), "class": ""}
    assert rows[2]["jif"] == 0.0


@pytest.mark.parametrize("spelling", [" Hare ", "hare", "Hare"])
def test_report_rows_in_journal_identity_order(spelling):
    # Trimmed and casefolded names sort; each row keeps its profile's name.
    cells = {(2003, 2004): (2, 0)}
    profiles = {name: make_profile(name, cells) for name in ("Zeta", spelling, "alpha", "Gamma")}
    pubs = parse_publication_csv([PUBLICATIONS_HEADER, "beta,2003,1"])
    rows = report_rows(profiles, pubs, 2004, WindowPolicy(), ClassificationThresholds())
    assert [row["journal"] for row in rows] == ["alpha", "beta", "Gamma", spelling, "Zeta"]


near_2_53 = st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 3 * 2**52 + 1])
near_10_30 = st.integers(10**30 - 10**6, 10**30 + 10**6)
ratio_ints = st.one_of(near_2_53, near_10_30, st.integers(1, 2**64))


@given(st.lists(st.tuples(ratio_ints, ratio_ints), min_size=7, max_size=7))
def test_printed_floats_are_float_of_fraction(pairs):
    # Fractions built from the pairs print alike: one int division, reduced or not.
    fractions = [Fraction(n, d) for n, d in pairs]
    row = _row_dict("J", 2004, pairs, {"b", "a"})
    report = IndicatorReport("J", 2004, *fractions)
    assert report.to_json_dict() == dict(row, flags=[])
    assert row["flags"] == ["a", "b"]
    for name, value in zip(_RATIO_FIELDS, fractions):
        assert row[name] == float(value)
        assert type(row[name]) is float


@given(
    st.tuples(ratio_ints, ratio_ints).map(sorted),
    st.floats(0, 1),
    class_thresholds(),
)
def test_classification_is_exact_for_fractions_and_floats(pair, value, thresholds):
    numerator, denominator = pair
    coverage = Fraction(numerator, denominator)
    classes = ClassificationThresholds(*thresholds)
    assert classify_journal(coverage, classes) == classify_ratio(numerator, denominator, classes)
    # A float is compared by its exact value, as the Fraction equal to it is.
    assert classify_journal(value, classes) == classify_journal(Fraction(value), classes)
    as_floats = ClassificationThresholds(float(thresholds[0]), float(thresholds[1]))
    assert classify_journal(value, as_floats) == classify_journal(Fraction(value), as_floats)
