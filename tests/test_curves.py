from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from statistics import median

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from citemetrics.curves import (
    ACCRUAL_DEVIATION,
    CLASS_HARE,
    CLASS_INTERMEDIATE,
    CLASS_TORTOISE,
    KIND_CUMULATIVE,
    KIND_RAW,
    SELF_CITATION_SPIKE,
    AccrualCurve,
    FloatColumn,
    AnomalyFinding,
    AnomalyThresholds,
    ClassificationThresholds,
    clamp_horizon,
    classify_journal,
    cumulative,
    curves_to_csv,
    detect_anomalous_volumes,
    mean_accrual_curve,
    observable_horizon,
    observe,
    standardize_to_age2,
    standardized_volume_curves,
    volume_curves,
)
from citemetrics.errors import ConfigError, DegenerateVolumeError
from citemetrics.ledger import strip_self_references, volume_self_rates

from conftest import assert_one_form, make_profile


def raw(values, journal="J", pub_year=1990):
    return AccrualCurve(journal, pub_year, KIND_RAW, tuple(values))


# --- volume curves --------------------------------------------------------


def test_accrual_curve_nonself_mode():
    # Non-self curves are the curves of a profile stripped of self-references.
    stripped = strip_self_references(make_profile("J", {(1993, 1993): (44, 38)}))
    assert volume_curves(stripped)[1993].values == (6,)


def test_observed_volumes_as_of_a_year():
    # (1992, 1991) cites a later volume; (1989, 1991) is cited at age 2.
    profile = make_profile("J", {
        (1990, 1990): (1, 0), (1992, 1991): (2, 0), (1989, 1991): (3, 0), (1995, 1996): (4, 0),
    })
    assert observe(profile)[:2] == (1996, [1989, 1990, 1992, 1995])
    assert observe(profile, 1995)[:2] == (1991, [1989, 1990])
    assert observe(profile, 1990)[:2] == (1990, [1990])
    assert observe(profile, 1989) == (None, [], [], [])
    # Ages 0..2 as of 1991 hold 1, 0 and 3; only 1991 itself gives half-life pairs.
    assert observe(profile, 1995) == (1991, [1989, 1990], [1, 0, 3], [])
    assert observe(profile, 1991) == (1991, [1989, 1990], [1, 0, 3], [(2, 3)])


# --- cumulative ---------------------------------------------------------


def test_cumulative_prefix_sums():
    assert cumulative(raw([2, 0, 7, 0])).values == (2, 2, 9, 9)


def test_cumulative_zeros():
    assert cumulative(raw([0, 0, 0])).values == (0, 0, 0)


def test_cumulative_single_age():
    assert cumulative(raw([5])).values == (5,)


def test_cumulative_requires_raw():
    with pytest.raises(ValueError):
        cumulative(cumulative(raw([1, 2])))


# --- standardize --------------------------------------------------------


def test_standardize_scales_to_100_at_age2():
    curve = standardize_to_age2(cumulative(raw([5, 10, 10, 15, 20])))
    assert curve.values == (20, 60, 100, 160, 240)


def test_standardize_anchor_is_always_100():
    curve = standardize_to_age2(cumulative(raw([3, 1, 4, 1, 5])))
    assert curve.values[2] == 100


def test_standardize_zero_anchor_rejected():
    with pytest.raises(DegenerateVolumeError):
        standardize_to_age2(cumulative(raw([0, 0, 0, 4])))


def test_standardize_short_curve_rejected():
    with pytest.raises(DegenerateVolumeError, match="'J' volume 1990 is observed only through age 1"):
        standardize_to_age2(cumulative(raw([5, 5])))


@pytest.mark.parametrize("call, error", [
    (lambda: standardize_to_age2(raw([1, 2, 3])),
     f"expected a cumulative curve, got {KIND_RAW!r}"),
    (lambda: mean_accrual_curve([], 2), "mean_accrual_curve needs at least one curve"),
    (lambda: mean_accrual_curve([cumulative(raw([1, 2, 3]))], 2),
     f"expected raw curves, got {KIND_CUMULATIVE!r}"),
], ids=["standardize-raw", "mean-of-none", "mean-of-cumulative"])
def test_curve_functions_reject_the_wrong_curves(call, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        call()


@given(st.lists(st.one_of(st.integers(-40, 240), st.integers(-(2**60), 2**60)), min_size=3,
                max_size=12))
def test_standardize_matches_fraction_per_value(counts):
    cum = cumulative(raw(counts))
    anchor = cum.values[2]
    assume(anchor != 0)
    curve = standardize_to_age2(cum)
    assert curve.values == tuple(Fraction(c * 100, anchor) for c in cum.values)
    assert list(FloatColumn(curve)) == [float(v) for v in curve.values]
    assert all(type(f) is float for f in FloatColumn(curve))
    assert curve.scale == abs(anchor)
    assert all(type(n) is int for n in curve.numerators)


# --- ragged mean --------------------------------------------------------


def test_ragged_mean_hand_case():
    curves = [raw([1, 2, 3], pub_year=1990), raw([2, 4], pub_year=1991)]
    mean = mean_accrual_curve(curves, 2)
    assert mean.values == (Fraction(3, 2), 3, 3)
    assert mean.observations == (2, 2, 1)
    assert mean.pub_year is None


def test_ragged_mean_single_volume():
    mean = mean_accrual_curve([raw([4, 5, 6])], 2)
    assert mean.values == (4, 5, 6)


def test_ragged_mean_observation_counts_taper():
    curves = [raw([1] * (21 - i), pub_year=1984 + i) for i in range(14)]
    mean = mean_accrual_curve(curves, 20)
    assert mean.observations[0] == 14
    assert mean.observations[20] == 1


def test_ragged_mean_unobserved_age_is_error():
    with pytest.raises(ValueError, match="age 2"):
        mean_accrual_curve([raw([1, 1])], 2)


def test_ragged_mean_rejects_duplicate_pub_years():
    with pytest.raises(ValueError):
        mean_accrual_curve([raw([1]), raw([2])], 0)


@given(st.lists(st.lists(st.integers(0, 50), min_size=4, max_size=4), min_size=1, max_size=6))
def test_ragged_mean_equal_lengths_is_pointwise_mean(rows):
    curves = [raw(values, pub_year=1990 + i) for i, values in enumerate(rows)]
    mean = mean_accrual_curve(curves, 3)
    for age in range(4):
        assert mean.values[age] == Fraction(sum(r[age] for r in rows), len(rows))


# --- scale invariance ---------------------------------------------------


@given(
    st.lists(st.integers(0, 40), min_size=3, max_size=12),
    st.integers(min_value=1, max_value=100),
)
def test_standardized_curve_ignores_uniform_scaling(values, k):
    if sum(values[:3]) == 0:
        values[0] += 1
    base = standardize_to_age2(cumulative(raw(values)))
    scaled = standardize_to_age2(cumulative(raw([v * k for v in values])))
    assert base.values == scaled.values


@given(
    st.lists(st.integers(0, 40), min_size=3, max_size=12),
    st.fractions(min_value=Fraction(1, 10), max_value=10),
)
def test_standardized_curve_absorbs_proportional_boost(values, multiple):
    # one heavily cited paper lifts every age of a volume by the same factor;
    # both volumes are counted in units of the boost's denominator
    if sum(values[:3]) == 0:
        values[0] += 1
    boosted = [v * multiple.denominator + v * multiple.numerator for v in values]
    values = [v * multiple.denominator for v in values]
    base = standardize_to_age2(cumulative(raw(values)))
    lifted = standardize_to_age2(cumulative(raw(boosted)))
    assert base.values == lifted.values


# --- anomaly detection --------------------------------------------------


def _standardized(volumes):
    return {year: standardize_to_age2(cumulative(raw(v, pub_year=year)))
            for year, v in volumes.items()}


def test_no_findings_when_volumes_identical_and_no_self():
    std = _standardized({1990: [10, 10, 10, 10], 1991: [10, 10, 10, 10], 1992: [10, 10, 10, 10]})
    assert detect_anomalous_volumes(std, {}) == []


def test_self_citation_spike_flagged():
    std = _standardized({y: [10, 10, 10] for y in (1990, 1991, 1992, 1993)})
    rates = {1993: {1993: Fraction(38, 44)}}
    findings = detect_anomalous_volumes(std, rates)
    assert len(findings) == 1
    f = findings[0]
    assert f.reason == SELF_CITATION_SPIKE
    assert (f.pub_year, f.age) == (1993, 0)
    assert f.deviation == Fraction(38, 44) * 100


def test_self_rate_below_threshold_not_flagged():
    std = _standardized({y: [10, 10, 10] for y in (1990, 1991, 1992)})
    rates = {1990: {1991: Fraction(49, 100)}}
    assert detect_anomalous_volumes(std, rates) == []


def test_accrual_deviation_against_median():
    flat = [10] * 8
    bumped = [10, 10, 10, 10, 20, 10, 10, 10]
    std = _standardized({1990: flat, 1991: flat, 1992: flat, 1993: bumped})
    findings = detect_anomalous_volumes(std, {})
    assert all(f.reason == ACCRUAL_DEVIATION and f.pub_year == 1993 for f in findings)
    assert any(f.age == 4 and f.deviation >= 25 for f in findings)


def test_detection_needs_three_volumes():
    std = _standardized({1990: [1, 1, 1], 1991: [1, 1, 1]})
    with pytest.raises(ValueError):
        detect_anomalous_volumes(std, {})


def test_threshold_validation():
    with pytest.raises(ConfigError):
        AnomalyThresholds(self_rate=Fraction(0))
    with pytest.raises(ConfigError):
        AnomalyThresholds(deviation_pp=Fraction(-1))


# --- classification -----------------------------------------------------


@pytest.mark.parametrize(
    "coverage,expected",
    [
        (Fraction(38, 100), CLASS_HARE),
        (Fraction(6, 100), CLASS_TORTOISE),
        (Fraction(20, 100), CLASS_INTERMEDIATE),
        (Fraction(1, 4), CLASS_HARE),       # boundaries are inclusive
        (Fraction(3, 20), CLASS_TORTOISE),
    ],
)
def test_classification(coverage, expected):
    assert classify_journal(coverage) == expected


@pytest.mark.parametrize("coverage", [-0.1, 1.5, float("inf"), float("nan"), Fraction(-1, 3)])
def test_classification_rejects_coverage_outside_unit_range(coverage):
    with pytest.raises(ValueError, match=r"coverage must be in \[0, 1\]"):
        classify_journal(coverage)


def test_classification_threshold_order_enforced():
    with pytest.raises(ConfigError):
        ClassificationThresholds(hare=Fraction(1, 10), tortoise=Fraction(2, 10))


@pytest.mark.parametrize("hare,tortoise", [
    (2, -1), (Fraction(11, 10), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 10)),
])
def test_classification_thresholds_within_coverage_range(hare, tortoise):
    with pytest.raises(ConfigError, match=r"must lie in \[0, 1\]"):
        ClassificationThresholds(hare=hare, tortoise=tortoise)
    assert ClassificationThresholds(hare=1, tortoise=0).hare == 1


@given(
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
)
def test_classification_monotone(a, b):
    lo, hi = sorted((a, b))
    order = {CLASS_TORTOISE: 0, CLASS_INTERMEDIATE: 1, CLASS_HARE: 2}
    assert order[classify_journal(lo)] <= order[classify_journal(hi)]


# --- profile plumbing and CSV -------------------------------------------


def test_volume_curves_lengths_follow_observation_end():
    profile = make_profile(
        "J", {(1990, 1990): (1, 0), (1990, 1994): (2, 0), (1992, 1993): (3, 0)}
    )
    volumes = volume_curves(profile)
    assert volumes[1990].values == (1, 0, 0, 0, 2)
    assert volumes[1992].values == (0, 3, 0)


def test_standardized_volume_curves_skips_degenerates():
    profile = make_profile(
        "J",
        {
            (1990, 1990): (5, 0), (1990, 1991): (5, 0), (1990, 1992): (5, 0),
            (1992, 1992): (0, 0),
        },
    )
    std, skipped = standardized_volume_curves(volume_curves(profile))
    assert list(std) == [1990]
    assert [(error.pub_year, error.reason) for error in skipped] == [
        (1992, "is observed only through age 0")]


def test_curves_csv_layout():
    text = curves_to_csv([raw([1, 2]), mean_accrual_curve([raw([1, 2])], 1)])
    lines = text.splitlines()
    assert lines[0] == "journal,pub_year,kind,age,value,observations"
    assert lines[1] == "J,1990,raw,0,1.0,"
    assert lines[3] == "J,,raw,0,1.0,1"


def reference_curves_to_csv(curves):
    lines = ["journal,pub_year,kind,age,value,observations"]
    for curve in curves:
        year = "" if curve.pub_year is None else str(curve.pub_year)
        for age, value in enumerate(curve.values):
            obs = "" if curve.observations is None else str(curve.observations[age])
            lines.append(f"{curve.journal},{year},{curve.kind},{age},{float(value)!r},{obs}")
    return "\n".join(lines) + "\n"


edge_counts = st.one_of(
    st.integers(0, 50),
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, -(2**53), -(2**53) - 1, 10**16]),
)


def curve_table(rows):
    """Raw, cumulative (summing past 2**53), standardized and mean curves."""
    volumes = [raw(row, pub_year=1990 + i) for i, row in enumerate(rows)]
    table = []
    for volume in volumes:
        table += [volume, cumulative(volume)]
        if len(volume.values) >= 3 and cumulative(volume).values[2] != 0:
            table.append(standardize_to_age2(cumulative(volume)))
    return table + [mean_accrual_curve(volumes, max(len(row) for row in rows) - 1)]


@example([[2**53, 2**53 + 1, -(2**53), 10**16], [2**53, 2**53, 2**53]])
@example([[1], [3, 1, 4, 1, 5, 9]])  # the longest curve comes last
@given(st.lists(st.lists(edge_counts, min_size=1, max_size=6), min_size=1, max_size=4))
def test_curves_to_csv_matches_float_repr(rows):
    # Both orders, so the longest curve is not always first.
    table = curve_table(rows)
    mean = table[-1]
    assert curves_to_csv(table) == reference_curves_to_csv(table)
    assert curves_to_csv(table[::-1]) == reference_curves_to_csv(table[::-1])
    assert curves_to_csv([]) == reference_curves_to_csv([])
    for observations in (mean.observations[:-1], (*mean.observations, 1)):
        with pytest.raises(ValueError):
            curves_to_csv([*table, mean._replace(observations=observations)])


@example([2**53, 2**53 + 1, 7], 3, [[2**53 + 1, 2**53], [7, 7, 7]])
@example([1, 2, 3], 2, [[4, 5, 6]])
@given(st.lists(edge_counts, min_size=1, max_size=6), st.integers(2, 5),
       st.lists(st.lists(edge_counts, min_size=1, max_size=6), max_size=3))
def test_curves_to_csv_reuses_each_value_text(shared, copies, others):
    # `copies` volumes share one raw row, so most values recur within a call
    # and are printed from the text of their first occurrence; 2**53 and
    # 2**53 + 1 are two numerators that round to one float.
    table = curve_table([shared] * copies + others)
    other = curve_table([[n + 1 for n in row] for row in [shared, *others]])
    for first, second in ((table, other), (other, table), (table[::-1], other[::-1])):
        # No text carries over from one call to the next.
        assert curves_to_csv(first) == reference_curves_to_csv(first)
        assert curves_to_csv(second) == reference_curves_to_csv(second)


@pytest.mark.parametrize("numerators", [(0, -1), (-1, 0)])
def test_curves_to_csv_keeps_negative_zero(numerators):
    # Over a scale above 2**1074, -1 / scale rounds to -0.0, which equals
    # 0.0 as a float key but prints apart; in either value order, and beside
    # a curve whose 0.0 is formatted first, each keeps its own text.
    tiny = AccrualCurve("J", 1990, "raw", numerators, scale=10**400)
    plain = AccrualCurve("J", 1991, "raw", (0, 1))
    for table in ([tiny], [plain, tiny], [tiny, plain]):
        text = curves_to_csv(table)
        assert text == reference_curves_to_csv(table)
        assert f"J,1990,raw,{numerators.index(-1)},-0.0," in text.splitlines()


# --- differential tests: integer kernels vs the Fraction-per-value code --
#
# Each reference_* function is the implementation the integer kernels
# replaced, kept verbatim in behaviour: a Fraction (or statistics.median)
# operation for every value.  The kernels must return equal results and
# raise the same errors.


def reference_detect_anomalous_volumes(standardized, self_rates, thresholds):
    if len(standardized) < 3:
        raise ValueError("anomaly detection needs at least 3 standardized volumes")
    journal = next(iter(standardized.values())).journal
    findings = []
    for pub_year in sorted(self_rates):
        for citing_year, rate in self_rates[pub_year].items():
            if rate >= thresholds.self_rate:
                findings.append(AnomalyFinding(
                    journal, pub_year, citing_year - pub_year, rate * 100, SELF_CITATION_SPIKE
                ))
    max_len = max(len(c.values) for c in standardized.values())
    medians = []
    for age in range(max_len):
        observed = [c.values[age] for c in standardized.values() if age < len(c.values)]
        medians.append(median(observed) if observed else None)
    for pub_year in sorted(standardized):
        for age, value in enumerate(standardized[pub_year].values):
            reference = medians[age]
            if reference is None:
                continue
            deviation = value - reference
            if abs(deviation) >= thresholds.deviation_pp:
                findings.append(
                    AnomalyFinding(journal, pub_year, age, deviation, ACCRUAL_DEVIATION)
                )
    return findings


def reference_volume_curves(profile):
    years = sorted({cited for cited, _ in profile.cells})
    if not years:
        return {}
    end = max(citing for _, citing in profile.cells)
    curves = {}
    for year in years:
        if year <= end:
            cells = [profile.cells.get((year, citing)) for citing in range(year, end + 1)]
            values = [0 if cell is None else cell.total for cell in cells]
            curves[year] = AccrualCurve(profile.journal, year, KIND_RAW, tuple(values))
    return curves


def reference_mean_accrual_curve(curves, horizon):
    values = []
    observations = []
    for age in range(horizon + 1):
        observed = [c.values[age] for c in curves if age < len(c.values)]
        if not observed:
            raise ValueError(f"no volume observes age {age}")
        values.append(Fraction(sum(observed), len(observed)))
        observations.append(len(observed))
    return AccrualCurve(curves[0].journal, None, KIND_RAW, tuple(values), tuple(observations))


def outcome(function, *args):
    try:
        return function(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


# Small numerators over a few denominators: ties, odd and even columns and
# deviations landing exactly on the threshold are all common.
fraction_values = st.builds(Fraction, st.integers(-80, 480), st.sampled_from([1, 2, 3, 4, 6]))
# Distinct exact values that all round to the float 100.0.
near_hundred = st.sampled_from(
    [Fraction(100), Fraction(10**17 + 1, 10**15), Fraction(10**17 - 1, 10**15)]
)
anomaly_thresholds = st.builds(
    AnomalyThresholds,
    self_rate=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1)]),
    deviation_pp=st.sampled_from(
        [Fraction(1, 2), Fraction(1), Fraction(5, 3), Fraction(25), Fraction(51, 2)]
    ),
)


def curve_in_form(year, values, form):
    """A standardized curve of exact `values`: int numerators over `form`
    times their common denominator, or for the reference (form 0) the
    Fraction values themselves over scale 1."""
    if not form:
        return AccrualCurve("J", year, "standardized", tuple(values))
    scale = form * lcm(1, *(v.denominator for v in values))
    return AccrualCurve("J", year, "standardized", tuple(int(v * scale) for v in values),
                        scale=scale)


anomaly_values = st.one_of(fraction_values, near_hundred)


@given(
    st.lists(st.lists(anomaly_values, min_size=0, max_size=7), min_size=1, max_size=9),
    # One curve that many volumes share: columns of exact ties.
    st.lists(anomaly_values, min_size=0, max_size=7),
    st.integers(0, 8),
    st.lists(st.integers(1, 3), min_size=17, max_size=17),
    st.dictionaries(
        st.integers(1990, 1999),
        st.dictionaries(st.integers(1990, 2005), st.fractions(0, 1), max_size=3),
        max_size=3,
    ),
    anomaly_thresholds,
)
def test_detect_anomalous_volumes_matches_reference(
    rows, shared, copies, forms, self_rates, thresholds
):
    rows = rows + [shared] * copies
    # The reference holds Fractions only.  On a column mixing ints and
    # Fractions, statistics.median returns a float for an even count, and
    # the reference's deviation is then a rounded float.
    expected = outcome(reference_detect_anomalous_volumes, {
        1990 + i: curve_in_form(1990 + i, values, 0) for i, values in enumerate(rows)
    }, self_rates, thresholds)
    standardized = {
        1990 + i: curve_in_form(1990 + i, values, form)
        for i, (values, form) in enumerate(zip(rows, forms))
    }
    assert outcome(detect_anomalous_volumes, standardized, self_rates, thresholds) == expected


def test_detect_anomalous_volumes_threshold_is_inclusive_both_ways():
    # Odd column 50, 100, 150 (median 100): a 50-point threshold flags both
    # the -50 and the +50 volume.
    curves = {1990 + i: AccrualCurve("J", 1990 + i, "standardized", (v,))
              for i, v in enumerate([50, 100, 150])}
    findings = detect_anomalous_volumes(curves, {}, AnomalyThresholds(deviation_pp=50))
    assert [(f.pub_year, f.deviation) for f in findings] == [(1990, -50), (1992, 50)]
    # Even column adds 301/2: the median becomes the midpoint 125, and a
    # 51/2 threshold flags -75 and exactly +51/2 but not the two at 25.
    curves[1993] = AccrualCurve("J", 1993, "standardized", (301,), scale=2)
    findings = detect_anomalous_volumes(
        curves, {}, AnomalyThresholds(deviation_pp=Fraction(51, 2))
    )
    assert [(f.pub_year, f.deviation) for f in findings] == [
        (1990, -75), (1993, Fraction(51, 2))
    ]
    assert all(type(f.deviation) is Fraction for f in findings)


@given(
    st.dictionaries(
        st.tuples(st.integers(1990, 1996), st.integers(-1, 7)),
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        max_size=24,
    ),
    st.booleans(),
)
def test_volume_curves_matches_reference(cells, strip):
    profile = make_profile("J", {
        (cited, cited + age): (total + self_count, self_count)
        for (cited, age), (total, self_count) in cells.items()
    })
    counted = strip_self_references(profile) if strip else profile
    expected = reference_volume_curves(counted)
    result = volume_curves(counted)
    assert result == expected
    assert list(result) == list(expected)
    # Stripped curves count exactly the non-self citations of each cell.
    for year, curve in result.items():
        for age, value in enumerate(curve.values):
            cell = profile.cells.get((year, year + age))
            assert value == (0 if cell is None else cell.total - strip * cell.self_count)


@given(
    st.dictionaries(
        st.tuples(st.integers(1990, 1996), st.integers(-1, 7)),
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        min_size=1,
        max_size=24,
    ),
    st.integers(-1, 20),
)
def test_clamp_horizon_on_volumes_is_observable_horizon(cells, horizon):
    profile = make_profile("J", {
        (cited, cited + age): (total, 0) for (cited, age), (total, _) in cells.items()
    })
    volumes = list(volume_curves(profile).values())
    if not volumes:  # every cell cites a later year: no volume is observed
        assert observable_horizon(profile) < 0
        return
    oldest = max(curve.max_age() for curve in volumes)
    assert oldest == observable_horizon(profile)
    assert clamp_horizon(horizon, oldest) == min(horizon, oldest)


def test_clamp_horizon_never_lengthens():
    assert clamp_horizon(20, 2) == 2
    assert clamp_horizon(1, 2) == 1
    assert clamp_horizon(-1, 0) == -1


def test_volume_curves_empty_profile():
    empty = make_profile("J", {})
    assert volume_curves(empty) == {} == reference_volume_curves(empty)
    assert observe(empty) == (None, [], [], [])
    assert observable_horizon(empty) == 0


@given(
    st.lists(st.lists(st.integers(-40, 240), min_size=0, max_size=7), min_size=1, max_size=8),
    st.integers(-1, 8),
)
def test_mean_accrual_curve_matches_reference(rows, horizon):
    curves = [raw(values, pub_year=1990 + i) for i, values in enumerate(rows)]
    expected = outcome(reference_mean_accrual_curve, curves, horizon)
    result = outcome(mean_accrual_curve, curves, horizon)
    if not isinstance(expected, AccrualCurve):
        assert result == expected
        return
    assert_one_form(result, expected.values)
    assert (result.journal, result.pub_year, result.kind, result.observations) == (
        expected.journal, expected.pub_year, expected.kind, expected.observations
    )


# --- threshold coercion -------------------------------------------------


def test_thresholds_coerce_to_fraction():
    anomaly = AnomalyThresholds(self_rate=0.5, deviation_pp=25.0)
    assert anomaly == AnomalyThresholds()
    assert type(anomaly.self_rate) is Fraction and type(anomaly.deviation_pp) is Fraction
    classes = ClassificationThresholds(hare=0.25, tortoise=0.15)
    assert classes.hare == Fraction(1, 4)
    assert classes.tortoise == 0.15  # the float's exact value, not 3/20
    assert type(classes.tortoise) is Fraction


@pytest.mark.parametrize("fixture", ["hare", "tortoise"])
@pytest.mark.parametrize(
    "floats,fractions",
    [
        ((0.5, 25.0), (Fraction(1, 2), Fraction(25))),
        ((0.25, 25.5), (Fraction(1, 4), Fraction(51, 2))),
        ((0.75, 2.5), (Fraction(3, 4), Fraction(5, 2))),
    ],
)
def test_float_and_fraction_anomaly_thresholds_agree(request, fixture, floats, fractions):
    _, profile, _ = request.getfixturevalue(fixture)
    standardized, _ = standardized_volume_curves(volume_curves(profile))
    rates = volume_self_rates(profile)
    by_float = detect_anomalous_volumes(standardized, rates, AnomalyThresholds(*floats))
    by_fraction = detect_anomalous_volumes(standardized, rates, AnomalyThresholds(*fractions))
    assert by_float == by_fraction
    assert by_float == reference_detect_anomalous_volumes(
        standardized, rates, AnomalyThresholds(*fractions)
    )


@given(
    st.floats(0.01, 1.0),
    st.floats(0.0, 0.99),
    st.fractions(min_value=0, max_value=1),
)
def test_float_classification_thresholds_match_float_comparison(hare, tortoise, coverage):
    if hare <= tortoise:
        return
    expected = CLASS_HARE if coverage >= hare else (
        CLASS_TORTOISE if coverage <= tortoise else CLASS_INTERMEDIATE
    )
    thresholds = ClassificationThresholds(hare=hare, tortoise=tortoise)
    assert classify_journal(coverage, thresholds) == expected
