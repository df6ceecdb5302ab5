from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citemetrics.curves import AccrualCurve, KIND_RAW, classify_journal
from citemetrics.errors import ConfigError, MissingDenominatorError, ZeroWindowError
from citemetrics.ledger import CellCount, CitationProfile, PublicationCounts
from citemetrics.cli import REPORT_COLUMNS, _render_rows
from citemetrics.metrics import (
    FLAG_HALF_LIFE_UNRELIABLE,
    FLAG_MISSING_DENOMINATOR,
    FLAG_ZERO_WINDOW_CITATIONS,
    WindowPolicy,
    adjusted_impact,
    build_indicator_report,
    cited_half_life,
    half_away_units,
    impact_factor,
    jcr_truncate,
    reliability_flags,
    round_half_away,
    scaling_factor,
    window_coverage,
)

from conftest import make_profile


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
    assert jcr_truncate(hl) == ">10"


def test_half_life_undefined_without_citations():
    assert cited_half_life(profile_from_ages([0, 0, 0]), 2004) is None
    assert cited_half_life(make_profile("J", {}), 2004) is None


def test_half_life_quantile_one_hits_last_positive_age():
    profile = profile_from_ages([5, 5, 0, 0])
    assert cited_half_life(profile, 2004, Fraction(1)) == 2


def test_jcr_truncate():
    assert jcr_truncate(Fraction(12, 5)) == Fraction(12, 5)
    assert jcr_truncate(15) == ">10"
    assert jcr_truncate(10) == 10


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


# --- coverage, scaling, adjustment ---------------------------------------


def mean_curve(values, journal="J"):
    return AccrualCurve(journal, None, KIND_RAW, tuple(values))


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


def test_reliability_flag_young_journal():
    profile = make_profile("J", {(2001, 2004): (1, 0)})  # age 4 in 2004
    assert reliability_flags(profile, 2004, Fraction(12, 5)) == {FLAG_HALF_LIFE_UNRELIABLE}


def test_reliability_flag_old_journal():
    profile = make_profile("J", {(1975, 2004): (1, 0)})
    assert reliability_flags(profile, 2004, Fraction(12, 5)) == frozenset()


def test_reliability_flag_boundary_is_strict():
    profile = make_profile("J", {(2001, 2004): (1, 0)})  # age 4, 2*2.0 == 4
    assert reliability_flags(profile, 2004, Fraction(2)) == frozenset()


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
