"""The paper's claim (b) on a population of synthetic journals with a known truth.

Each journal accrues citations by one rise/decay kernel for every volume, so
the citations per item that its window cohorts go on to earn over the
horizon, R, are in its own ledger.  Claim (b): the order by adjusted_jif is
closer to the order by R than the order by jif is.  The kernel also gives
each journal's true window share, against which report coverage is recorded.
"""
from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import correlation, median

import pytest

from citemetrics import metrics, synth
from citemetrics.metrics import WindowPolicy

EVAL_YEAR = 1984
POLICY = WindowPolicy()


def population(seed: int, size: int) -> list[synth.SynthSpec]:
    """size journals with volumes 1960-2004, each with its own kernel, size
    and yearly volume growth, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    specs = []
    for number in range(size):
        kernel = synth.RiseDecay(rng.randint(0, 10), Fraction(rng.randint(30, 100), 100),
                                 Fraction(rng.randint(50, 97), 100), 30)
        growth = 1 + Fraction(rng.randint(0, 60), 1000)  # 0 to 6 % a year
        specs.append(synth.SynthSpec(
            journal=f"J{number:02d}", first_year=1960, last_year=2004, kernel=kernel,
            base_citations=Fraction(rng.randint(200, 2000)), items_per_year=100,
            observation_end=2004,
            volume_scale={year: growth ** (year - 1960) for year in range(1961, 2005)},
        ))
    return specs


def realised_per_item(spec: synth.SynthSpec, profile) -> Fraction:
    """R: the window cohorts' citations at ages 0..horizon, per citeable item."""
    cohorts = {EVAL_YEAR - age for age in POLICY.window_ages}
    total = sum(cell.total for (cited, citing), cell in profile.cells.items()
                if cited in cohorts and citing - cited <= POLICY.horizon)
    return Fraction(total, spec.items_per_year * len(cohorts))


def spearman(xs: list, ys: list) -> float:
    """Rank correlation, tied values sharing their mean rank."""
    def ranks(values):
        ordered = sorted(values)
        return [(bisect_left(ordered, v) + bisect_right(ordered, v) - 1) / 2 for v in values]

    return correlation(ranks(xs), ranks(ys))


@pytest.fixture(scope="module")
def ranked() -> list[tuple[synth.SynthSpec, Fraction, metrics.IndicatorReport]]:
    """(spec, R, report) of each journal of the test population that has an
    adjusted_jif; the others have no window citations and are flagged, not ranked."""
    rows = []
    for spec in population(seed=2006, size=40):
        profile, pubs = synth.generate_profile(spec)
        report = metrics.build_indicator_report(profile, pubs, EVAL_YEAR, POLICY)
        if report.adjusted_jif is not None:
            rows.append((spec, realised_per_item(spec, profile), report))
    return rows


def test_adjusted_jif_ranks_journals_closer_to_their_realised_citations(ranked):
    realised = [r for _, r, _ in ranked]
    assert len(realised) >= 30
    assert (spearman([report.adjusted_jif for _, _, report in ranked], realised)
            > spearman([report.jif for _, _, report in ranked], realised))


def test_report_coverage_overstates_the_kernel_share_of_growing_journals(ranked):
    # The ragged mean averages each age over the volumes old enough to show
    # it, so with volumes growing its late ages rest on the older, smaller
    # volumes: coverage exceeds the kernel's true window share.  A coverage
    # estimator that completes the triangle should bring these ratios to 1.
    ratios = []
    for spec, _, report in ranked:
        weights = spec.kernel.weights()[:POLICY.horizon + 1]
        truth = sum(weights[a] for a in POLICY.window_ages) / sum(weights)
        ratios.append(report.coverage / truth)
    assert min(ratios) >= 1
    assert median(ratios) > Fraction(105, 100)
