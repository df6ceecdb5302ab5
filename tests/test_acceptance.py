"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime (run with -s to see them).

Criteria, tolerances, and time budgets are pinned here and nowhere else:
  1 arithmetic identities on published indicator values      (< 1 ms)
  2 bundled fixture calibration                              (< 1 s)
  3 half-life vs brute-force inversion oracle, 1000 profiles (< 5 s)
  4 count-scale invariance, 100 profiles x k in {2,7,100}    (< 5 s)
  5 generator vs closed-form oracle, 50 admissible specs     (< 5 s)
  6 ledger conservation / strip / alias merge, 1e5 records   (< 5 s)
  7 CLI end-to-end on both fixtures                          (< 10 s)
  8 one million rows ingested and reported                   (< 5 s)
"""
from __future__ import annotations

import csv
import io
import json
import random
import time
from fractions import Fraction
from statistics import median

from citemetrics import curves, ledger, metrics, synth
from citemetrics.metrics import WindowPolicy

from conftest import make_profile, run_python
from test_metrics import halflife_oracle, profile_from_ages, pubs_for, scale_profile


class timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


def report_pass(number, name, elapsed):
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed * 1000:.1f} ms)")


# --- 1: arithmetic identities on published indicator values -----------------


def test_criterion_1_published_arithmetic():
    half = Fraction(1, 2)
    metrics.scaling_factor(Fraction(38, 100), half)  # warm the code path
    with timer() as t:
        hare_scale = metrics.scaling_factor(Fraction(38, 100), half)
        tortoise_scale = metrics.scaling_factor(Fraction(65, 1000), half)
        hare_adjusted = metrics.adjusted_impact(Fraction(2, 10), Fraction(13158, 10000))
        tortoise_adjusted = metrics.adjusted_impact(Fraction(13, 10), Fraction(77, 10))
    assert Fraction(125, 100) <= hare_scale <= Fraction(135, 100)
    assert metrics.round_half_away(hare_scale) == 1.3
    assert metrics.round_half_away(tortoise_scale) == 7.7
    assert metrics.round_half_away(hare_adjusted) == 0.3
    assert abs(float(tortoise_adjusted) - 10.1) <= 0.15
    assert t.seconds < 0.001
    report_pass(1, "published-arithmetic", t.seconds)


# --- 2: bundled fixture calibration ------------------------------------------


def test_criterion_2_fixture_calibration(hare, tortoise):
    _, hare_profile, hare_pubs = hare
    _, tortoise_profile, tortoise_pubs = tortoise
    with timer() as t:
        hare_report = metrics.build_indicator_report(hare_profile, hare_pubs, 2004)
        tortoise_report = metrics.build_indicator_report(
            tortoise_profile, tortoise_pubs, 2004
        )

        assert abs(float(hare_report.jif) - 0.2) <= 0.05
        assert abs(float(tortoise_report.jif) - 1.3) <= 0.05
        assert abs(float(hare_report.coverage) - 0.38) <= 0.01
        assert abs(float(tortoise_report.coverage) - 0.06) <= 0.01
        assert abs(float(hare_report.half_life_jcr) - 2.4) <= 0.2
        assert tortoise_report.half_life_jcr == ">10"
        assert curves.classify_journal(hare_report.coverage) == "Hare"
        assert curves.classify_journal(tortoise_report.coverage) == "Tortoise"

        # the 1993 hare volume is a self-citation spike, at exactly 38/44
        std, _ = curves.standardized_volume_curves(curves.volume_curves(hare_profile))
        findings = curves.detect_anomalous_volumes(
            std, ledger.volume_self_rates(hare_profile)
        )
        spikes = [
            f for f in findings
            if f.reason == curves.SELF_CITATION_SPIKE and f.pub_year == 1993 and f.age == 0
        ]
        assert len(spikes) == 1
        assert ledger.self_reference_rate(hare_profile, 1993, [1993]) == Fraction(38, 44)

        # the 1996 tortoise volume's extra citations vanish under standardization
        tortoise_std, _ = curves.standardized_volume_curves(
            curves.volume_curves(tortoise_profile)
        )
        spike_curve = tortoise_std[1996]
        for age in range(2, len(spike_curve.values)):
            peers = [
                c.values[age]
                for year, c in tortoise_std.items()
                if year != 1996 and age < len(c.values)
            ]
            deviation = abs(float(spike_curve.values[age] - median(peers)))
            assert deviation < 1.0, f"age {age}: deviation {deviation}"
    assert t.seconds < 1.0
    report_pass(2, "fixture-calibration", t.seconds)


# --- 3: half-life inversion oracle -------------------------------------------


def test_criterion_3_half_life_oracle():
    rng = random.Random(3)
    with timer() as t:
        checked = 0
        for _ in range(1000):
            ages = rng.randint(1, 30)
            counts = [rng.randint(0, 100) for _ in range(ages)]
            profile = profile_from_ages(counts)
            exact = metrics.cited_half_life(profile, 2004)
            if sum(counts) == 0:
                assert exact is None
                continue
            assert abs(float(exact) - halflife_oracle(counts, Fraction(1, 2))) < 1e-9
            quantiles = [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(1)]
            values = [metrics.cited_half_life(profile, 2004, q) for q in quantiles]
            assert all(a <= b for a, b in zip(values, values[1:]))
            checked += 1
        assert checked > 950
    assert t.seconds < 5.0
    report_pass(3, "half-life-oracle", t.seconds)


# --- 4: count-scale invariance ------------------------------------------------


def test_criterion_4_scale_invariance():
    rng = random.Random(4)
    with timer() as t:
        for _ in range(100):
            span = rng.randint(3, 20)
            counts = [rng.randint(0, 60) for _ in range(span + 1)]
            counts[rng.randrange(3)] += 1  # anchor the age-2 cumulative count
            profile = profile_from_ages(counts)
            pubs = pubs_for("J", {y: 17 for y in range(1950, 2005)})
            policy = WindowPolicy(horizon=span)
            base_curve = metrics.journal_mean_curve(profile, policy.horizon)
            base = {
                "jif": metrics.impact_factor(profile, pubs, 2004),
                "hl": metrics.cited_half_life(profile, 2004),
                "cov": metrics.window_coverage(base_curve, policy),
            }
            base_std, _ = curves.standardized_volume_curves(curves.volume_curves(profile))
            for k in (2, 7, 100):
                scaled = scale_profile(profile, k)
                assert metrics.impact_factor(scaled, pubs, 2004) == k * base["jif"]
                assert metrics.cited_half_life(scaled, 2004) == base["hl"]
                scaled_curve = metrics.journal_mean_curve(scaled, policy.horizon)
                cov = metrics.window_coverage(scaled_curve, policy)
                assert cov == base["cov"]
                if cov > 0:
                    assert metrics.scaling_factor(cov, Fraction(1, 2)) == (
                        metrics.scaling_factor(base["cov"], Fraction(1, 2))
                    )
                scaled_std, _ = curves.standardized_volume_curves(
                    curves.volume_curves(scaled)
                )
                assert set(scaled_std) == set(base_std)
                for year, curve in base_std.items():
                    assert scaled_std[year].values == curve.values  # bit-identical
    assert t.seconds < 5.0
    report_pass(4, "scale-invariance", t.seconds)


# --- 5: generator vs closed-form oracle ----------------------------------------


def _admissible_specs(rng):
    """50 specs the oracle accepts: mostly integer-valued, some rounding ones."""
    specs = [
        (synth.SynthSpec("Flatland", 1984, 2004, synth.Flat(21), Fraction(10), 40, 2004),
         True),
    ]
    while len(specs) < 50:
        kind = rng.randrange(4)
        if kind == 0:  # integer flat
            length = rng.randint(4, 30)
            spec = synth.SynthSpec(
                "S", 2004 - max(length - 1, 2), 2004, synth.Flat(length),
                Fraction(rng.randint(1, 200)), rng.randint(5, 80), 2004,
            )
            exact = True
        elif kind == 1:  # integer geometric: base clears every denominator
            length = rng.randint(4, 12)
            base = Fraction(2 ** (length - 1) * rng.randint(1, 3))
            spec = synth.SynthSpec(
                "S", 2004 - max(length - 1, 2), 2004,
                synth.Geometric(Fraction(1, 2), length), base,
                rng.randint(5, 80), 2004,
            )
            exact = True
        elif kind == 2:  # integer rise/decay on powers of 1/2
            length = rng.randint(4, 10)
            peak = rng.randint(1, 3)
            base = Fraction(2 ** max(peak, length - 1 - peak) * rng.randint(1, 3))
            spec = synth.SynthSpec(
                "S", 2004 - max(length - 1, 2), 2004,
                synth.RiseDecay(peak, Fraction(1, 2), Fraction(1, 2), length),
                base, rng.randint(5, 80), 2004,
            )
            exact = True
        else:  # fractional cells: rounding really happens
            length = rng.randint(4, 8)
            spec = synth.SynthSpec(
                "S", 2004 - max(length - 1, 2), 2004,
                synth.RiseDecay(1, Fraction(1), Fraction(7, 10), length),
                Fraction(rng.randint(60, 300), 7), rng.randint(5, 80), 2004,
            )
            exact = False
        specs.append((spec, exact))
    return specs


def test_criterion_5_generator_oracle_agreement():
    rng = random.Random(5)
    with timer() as t:
        exact_checked = rounded_checked = 0
        for spec, exact in _admissible_specs(rng):
            length = len(spec.kernel.weights())
            policy = WindowPolicy(horizon=max(length - 1, 2))
            expected = synth.expected_metrics(spec, policy)
            profile, pubs = synth.generate_profile(spec)
            report = metrics.build_indicator_report(
                profile, pubs, spec.observation_end, policy
            )
            if exact:
                assert report.coverage == expected["coverage"]
                assert report.half_life_exact == expected["half_life_exact"]
                assert report.scaling_factor == expected["scaling_factor"]
                exact_checked += 1
            else:
                bounds = synth.rounding_bounds(spec, policy)
                assert abs(report.coverage - expected["coverage"]) <= bounds["coverage"]
                assert (
                    abs(report.half_life_exact - expected["half_life_exact"])
                    <= bounds["half_life_exact"]
                )
                rounded_checked += 1
        # the named flat case is among the exact ones
        flat = synth.SynthSpec(
            "Flatland", 1984, 2004, synth.Flat(21), Fraction(10), 40, 2004
        )
        expected = synth.expected_metrics(flat, WindowPolicy())
        assert expected["coverage"] == Fraction(2, 21)
        assert expected["half_life_exact"] == Fraction(21, 2)
        assert exact_checked + rounded_checked == 50
        assert rounded_checked >= 5
    assert t.seconds < 5.0
    report_pass(5, "generator-oracle", t.seconds)


# --- 6: ledger conservation and strip-self properties ----------------------------


def test_criterion_6_ledger_conservation():
    rng = random.Random(6)
    journals = [f"J{i:02d}" for i in range(25)]
    records = []
    for _ in range(100_000):
        cited = rng.randint(1984, 2004)
        records.append(ledger.CitationRecord(
            rng.choice(journals), cited + rng.randint(0, 2004 - cited),
            rng.choice(journals), cited, rng.randint(0, 9),
        ))
    with timer() as t:
        profiles = ledger.build_profiles(records)
        total = sum(p.total_citations() for p in profiles.values())
        assert total == sum(r.count for r in records)

        for profile in profiles.values():
            stripped = ledger.strip_self_references(profile)
            assert ledger.strip_self_references(stripped) == stripped
            for key, cell in stripped.cells.items():
                assert cell.total <= profile.cells[key].total
                assert cell.self_count == 0

        # alias merge: J00 -> J01 via the alias map, byte-for-byte equal to
        # substituting before ingestion
        aliases = ledger.AliasMap({"j00": "J01"})
        rows = [f"{r.citing_journal},{r.citing_year},{r.cited_journal},{r.cited_year},{r.count}"
                for r in records]
        text = ledger.CITATIONS_HEADER + "\n" + "\n".join(rows)
        via_alias = ledger.build_profiles(
            ledger.iter_citation_records(io.StringIO(text), aliases)
        )
        substituted = [
            ledger.CitationRecord(
                "J01" if r.citing_journal == "J00" else r.citing_journal,
                r.citing_year,
                "J01" if r.cited_journal == "J00" else r.cited_journal,
                r.cited_year, r.count,
            )
            for r in records
        ]
        direct = ledger.build_profiles(substituted)
        assert ledger.profiles_to_citation_csv(via_alias) == (
            ledger.profiles_to_citation_csv(direct)
        )
    assert t.seconds < 5.0
    report_pass(6, "ledger-conservation", t.seconds)


# --- 7: CLI end-to-end --------------------------------------------------------------


def _run_cli(*args):
    return run_python("-m", "citemetrics", *args)


def test_criterion_7_cli_end_to_end(tmp_path):
    with timer() as t:
        for name in ("hare", "tortoise"):
            outdir = tmp_path / name
            done = _run_cli("synth", name, "--outdir", str(outdir))
            assert done.returncode == 0, done.stderr

            report_args = (
                "report",
                "--citations", str(outdir / "citations.csv"),
                "--publications", str(outdir / "publications.csv"),
                "--year", "2004",
            )
            first = _run_cli(*report_args)
            second = _run_cli(*report_args)
            assert first.returncode == 0 and second.returncode == 0
            assert first.stdout == second.stdout  # byte-identical rerun

            as_json = _run_cli(*report_args, "--format", "json")
            assert as_json.returncode == 0
            csv_row = next(csv.DictReader(first.stdout.splitlines()))
            json_row = json.loads(as_json.stdout)[0]
            for key, value in json_row.items():
                cell = csv_row[key]
                if key == "flags":
                    assert sorted(filter(None, cell.split("|"))) == value
                elif value is None:
                    assert cell == ""
                elif isinstance(value, float):
                    assert float(cell) == value
                else:
                    assert cell == str(value)

            if name == "tortoise":
                assert csv_row["half_life_jcr"] == ">10"
                assert '">10"' in as_json.stdout

            svg_path = tmp_path / f"{name}.svg"
            curves_args = (
                "curves", name.capitalize(),
                "--citations", str(outdir / "citations.csv"),
                "--svg", str(svg_path),
            )
            first_curves = _run_cli(*curves_args)
            assert first_curves.returncode == 0
            svg_text = svg_path.read_text()
            assert svg_text.count("<polyline") >= 3
            second_curves = _run_cli(*curves_args)
            assert second_curves.stdout == first_curves.stdout
            assert svg_path.read_text() == svg_text
    assert t.seconds < 10.0
    report_pass(7, "cli-end-to-end", t.seconds)


# --- 8: throughput --------------------------------------------------------------------


def test_criterion_8_throughput():
    rng = random.Random(8)
    journals = [f"Journal {chr(65 + i)}" for i in range(20)]
    rows = [ledger.CITATIONS_HEADER]
    for _ in range(1_000_000):
        cited = rng.randint(1984, 2004)
        rows.append(
            f"{rng.choice(journals)},{cited + rng.randint(0, 2004 - cited)},"
            f"{rng.choice(journals)},{cited},{rng.randint(1, 9)}"
        )
    text = "\n".join(rows)
    pubs = ledger.parse_publication_csv(
        ["journal,year,citeable_items"]
        + [f"{j},{y},50" for j in journals for y in range(1984, 2005)]
    )
    with timer() as t:
        profiles = ledger.build_profiles(ledger.iter_citation_records(io.StringIO(text)))
        reports = [
            metrics.build_indicator_report(profiles[j], pubs, 2004)
            for j in sorted(profiles)
        ]
    assert len(reports) == 20
    assert all(r.jif is not None and r.coverage is not None for r in reports)
    assert t.seconds < 5.0
    assert ledger.read_citation_profiles(io.StringIO(text)) == (profiles, 1_000_000)
    report_pass(8, "throughput", t.seconds)
