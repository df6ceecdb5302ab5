from __future__ import annotations

import io
import re
from fractions import Fraction
from importlib import resources

import pytest

from citemetrics.errors import OracleError, ParseError
from citemetrics.ledger import profiles_to_citation_csv
from citemetrics.metrics import WindowPolicy
from citemetrics.synth import (
    FIXTURE_NAMES,
    RiseDecay,
    Spike,
    SynthSpec,
    expected_metrics,
    fixture_spec,
    generate_profile,
    _parse_kernel,
    parse_synth_spec,
    rounding_bounds,
)


def flat(length):
    """The spec format's flat:length kernel, weight 1 at ages 0..length-1."""
    return RiseDecay(0, Fraction(1), Fraction(1), length)


def flat_spec(**overrides):
    base = dict(
        journal="Flatland",
        first_year=1984,
        last_year=2004,
        kernel=flat(21),
        base_citations=Fraction(10),
        items_per_year=40,
        observation_end=2004,
    )
    base.update(overrides)
    return SynthSpec(**base)


# --- generation -----------------------------------------------------------


def test_flat_kernel_single_volume():
    spec = flat_spec(first_year=1984, last_year=1984)
    profile, pubs = generate_profile(spec)
    curve = [profile.cells[(1984, 1984 + a)].total for a in range(21)]
    assert curve == [10] * 21
    assert pubs.get("Flatland", 1984) == 40


def test_spike_adds_to_one_cell():
    spec = flat_spec(first_year=1984, last_year=1984,
                     spikes=(Spike(1984, 0, 162),))
    profile, _ = generate_profile(spec)
    assert profile.cells[(1984, 1984)].total == 10 + 162
    assert profile.cells[(1984, 1985)].total == 10


def test_spike_past_the_kernel_lands_up_to_observation_end():
    # w = 0 past the kernel's last age, so the cell holds the spike alone.
    spec = flat_spec(first_year=1990, last_year=1990, kernel=flat(3), observation_end=1995,
                     spikes=(Spike(1990, 4, 500), Spike(1990, 6, 7)))
    profile, _ = generate_profile(spec)
    assert list(profile.cells) == [(1990, 1990), (1990, 1991), (1990, 1992), (1990, 1994)]
    assert profile.cells[(1990, 1994)].total == 500  # age 6 cites 1996, past the end


@pytest.mark.parametrize("spike", [
    Spike(1990, 0, -50),  # a negative count
    Spike(1990, -1, 5),  # a negative age
    Spike(1980, 0, 500),  # a year outside pub_years
    Spike(1996, 0, 500),
])
def test_spec_rejects_spike_it_cannot_write(spike):
    with pytest.raises(ValueError, match=f"spike {spike.pub_year},{spike.age},{spike.extra}"):
        flat_spec(first_year=1990, last_year=1995, kernel=flat(6), spikes=(spike,))
    text = ("journal = J\npub_years = 1990-1995\nkernel = flat:6\nbase_citations = 10\n"
            f"items_per_year = 4\nobservation_end = 2004\n"
            f"spike = {spike.pub_year},{spike.age},{spike.extra}\n")
    with pytest.raises(ParseError, match="needs a year in pub_years"):
        parse_synth_spec(io.StringIO(text))


@pytest.mark.parametrize("line, error", [
    ("self_fraction = 1939,0,38/44", "self_fraction 1939,0,19/22 needs a year in pub_years"),
    ("self_fraction = 1993,-1,1/2", "self_fraction 1993,-1,1/2 needs a year in pub_years"),
    ("volume_scale = 2010,2", "volume_scale 2010,2 needs a year in pub_years"),
], ids=["self-fraction-year", "self-fraction-age", "volume-scale-year"])
def test_spec_rejects_keyed_entry_it_cannot_apply(line, error):
    # The hare fixture with one more entry, naming a year outside 1984-2004
    # or a negative age: it used to be accepted and never applied.
    text = fixture_text("hare") + line + "\n"
    with pytest.raises(ParseError, match=error) as err:
        parse_synth_spec(io.StringIO(text), source="hare.synth")
    assert err.value.line == len(text.splitlines())


@pytest.mark.parametrize("year, age", [(1993, 25), (2004, 1)],
                         ids=["past-the-kernel", "past-observation-end"])
def test_spec_rejects_self_fraction_on_a_cell_it_never_writes(year, age):
    # The hare kernel covers ages 0-20 and its spikes sit at 1993 ages 0 and
    # 1, so neither cell is generated and the fraction would apply to nothing.
    error = f"self_fraction {year},{age},1/2 needs .* a cell the spec writes"
    hare = fixture_spec("hare")
    with pytest.raises(ValueError, match=error):
        hare._replace(self_fraction={**hare.self_fraction, (year, age): Fraction(1, 2)})
    text = fixture_text("hare") + f"self_fraction = {year},{age},1/2\n"
    with pytest.raises(ParseError, match=error) as err:
        parse_synth_spec(io.StringIO(text), source="hare.synth")
    assert err.value.line == len(text.splitlines())


def test_self_fraction_past_the_kernel_needs_a_spike():
    # Age 8 is past flat(5) but cites 1998, by observation_end: only a spike
    # on that cell makes the generator write it.
    entry = {(1990, 8): Fraction(1, 2)}
    with pytest.raises(ValueError, match="self_fraction 1990,8,1/2 needs"):
        flat_spec(kernel=flat(5), self_fraction=entry)
    spec = flat_spec(kernel=flat(5), spikes=(Spike(1990, 8, 10),), self_fraction=entry)
    assert generate_profile(spec)[0].cells[(1990, 1998)] == (10, 5)


@pytest.mark.parametrize("line, error", [
    ("volume_scale = 1993,5", "duplicate volume_scale year 1993"),
    ("self_fraction = 1993, 1 ,1/2", "duplicate self_fraction year and age 1993,1"),
], ids=["volume-scale", "self-fraction"])
def test_spec_repeated_keyed_entry_names_its_line(line, error):
    # A second entry for the same key used to override the first in silence.
    text = fixture_text("hare") + "# one more\n" + line + "\n"
    with pytest.raises(ParseError) as err:
        parse_synth_spec(io.StringIO(text), source="hare.synth")
    assert (err.value.line, err.value.reason) == (len(text.splitlines()), error)


def fixture_text(name):
    path = resources.files("citemetrics.fixtures").joinpath(f"{name}.synth")
    return path.read_text(encoding="utf-8")


def test_self_fraction_rounds_half_away():
    spec = flat_spec(first_year=1993, last_year=1993, observation_end=2013,
                     base_citations=Fraction(44),
                     self_fraction={(1993, 0): Fraction(864, 1000)})
    profile, _ = generate_profile(spec)
    cell = profile.cells[(1993, 1993)]
    assert (cell.total, cell.self_count) == (44, 38)


def test_observation_end_truncates():
    spec = flat_spec(first_year=2000, last_year=2004, observation_end=2004)
    profile, _ = generate_profile(spec)
    assert max(citing for _, citing in profile.cells) == 2004
    assert profile.cells[(2004, 2004)].total == 10


def test_generation_is_deterministic():
    a, pubs_a = generate_profile(flat_spec())
    b, pubs_b = generate_profile(flat_spec())
    assert a == b
    assert pubs_a == pubs_b
    assert profiles_to_citation_csv({a.journal: a}) == profiles_to_citation_csv({b.journal: b})


def test_spec_validation():
    with pytest.raises(ValueError):
        flat_spec(first_year=2005)  # empty year range
    with pytest.raises(ValueError):
        flat_spec(base_citations=Fraction(0))
    with pytest.raises(ValueError):
        flat_spec(observation_end=2000)
    with pytest.raises(ValueError):
        flat_spec(self_fraction={(1990, 0): Fraction(3, 2)})
    with pytest.raises(ValueError):
        flat_spec(volume_scale={1990: Fraction(0)})
    for name in ("(external)", " (EXTERNAL) "):  # the ledger's reserved source name
        with pytest.raises(ValueError, match="reserved"):
            flat_spec(journal=name)


@pytest.mark.parametrize("field, value, error", [
    ("journal", "", "journal name must be non-empty"),
    ("journal", "A,B", "journal name must not contain commas"),
    ("items_per_year", 0, "items_per_year must be >= 1"),
    ("kernel", _parse_kernel("risedecay:2:0:0:2"),
     "kernel must have at least one positive weight"),
    ("kernel", _parse_kernel("risedecay:1:-1/2:1/2:5"), "kernel weights must be non-negative"),
], ids=["empty-journal", "comma-journal", "no-items", "zero-kernel", "negative-weight"])
def test_spec_rejects_bad_field(field, value, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        flat_spec(**{field: value})


def test_spec_file_and_fixture_name_errors():
    text = fixture_text("hare") + "volume_scale = 1990\n"
    with pytest.raises(ParseError, match="bad value for 'volume_scale'"):
        parse_synth_spec(io.StringIO(text), source="hare.synth")
    with pytest.raises(ValueError, match="unknown fixture 'nope'"):
        fixture_spec("nope")


# --- kernels ----------------------------------------------------------------


def test_geometric_weights():
    assert RiseDecay(0, Fraction(1), Fraction(1, 2), 4).weights() == (
        Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
    )


def test_risedecay_weights():
    w = RiseDecay(2, Fraction(1, 2), Fraction(3, 5), 5).weights()
    assert w == (Fraction(1, 4), Fraction(1, 2), Fraction(1),
                 Fraction(3, 5), Fraction(9, 25))


# --- closed-form oracle ------------------------------------------------------


def test_expected_metrics_flat():
    out = expected_metrics(flat_spec(), WindowPolicy())
    assert out["coverage"] == Fraction(2, 21)
    assert out["half_life_exact"] == Fraction(21, 2)
    assert out["scaling_factor"] == Fraction(21, 4)


def test_expected_metrics_window_only_kernel():
    spec = flat_spec(kernel=RiseDecay(1, Fraction(1, 10**9), Fraction(1, 10**9), 3))
    out = expected_metrics(spec, WindowPolicy())
    assert abs(out["coverage"] - 1) < Fraction(1, 10**8)


def test_expected_metrics_geometric():
    spec = flat_spec(kernel=RiseDecay(0, Fraction(1), Fraction(1, 2), 21))
    out = expected_metrics(spec, WindowPolicy())
    expected = Fraction(3, 4) / sum(Fraction(1, 2) ** a for a in range(21))
    assert out["coverage"] == expected
    assert abs(float(expected) - 0.375) < 1e-5


@pytest.mark.parametrize(
    "overrides",
    [
        {"spikes": (Spike(1990, 0, 5),)},
        {"volume_scale": {1990: Fraction(2)}},
        {"first_year": 1999},                      # span shorter than horizon
        {"last_year": 2003, "observation_end": 2004},
    ],
)
def test_oracle_refuses_out_of_form_specs(overrides):
    with pytest.raises(OracleError):
        expected_metrics(flat_spec(**overrides), WindowPolicy())


@pytest.mark.parametrize("oracle, kernel, base, error", [
    (expected_metrics, "risedecay:25:0:1/2:30", 10, "no weight inside the horizon"),
    (expected_metrics, "risedecay:5:0:1/2:30", 10, "no weight inside the window"),
    (rounding_bounds, "geometric:1/10:25", 3, "half-life bound needs every kernel age above 1/2"),
], ids=["horizon", "window", "half-life-bound"])
def test_oracle_refuses_kernel_it_cannot_bound(oracle, kernel, base, error):
    spec = flat_spec(first_year=1960, kernel=_parse_kernel(kernel), base_citations=Fraction(base))
    with pytest.raises(OracleError, match=error):
        oracle(spec, WindowPolicy())


def test_oracle_half_life_ignores_target_quantile():
    spec = flat_spec(kernel=RiseDecay(2, Fraction(1, 2), Fraction(9, 10), 21),
                     base_citations=Fraction(77))
    median = expected_metrics(spec, WindowPolicy())
    ninety = expected_metrics(spec, WindowPolicy(target_quantile=Fraction(9, 10)))
    assert ninety["half_life_exact"] == median["half_life_exact"]
    assert ninety["scaling_factor"] == Fraction(9, 10) / median["coverage"]
    bounds = rounding_bounds(spec, WindowPolicy())
    assert bounds["half_life_exact"] > 0
    assert rounding_bounds(spec, WindowPolicy(target_quantile=Fraction(9, 10))) == bounds


def test_rounding_bounds_zero_for_integer_specs():
    bounds = rounding_bounds(flat_spec(), WindowPolicy())
    assert bounds["coverage"] == 0
    assert bounds["half_life_exact"] == 0


# --- spec files ---------------------------------------------------------------


def test_parse_spec_repeatable_keys():
    spec = parse_synth_spec(io.StringIO(
        "journal = Flatland\npub_years = 1984-2004\nkernel = risedecay:1:1:18/25:21\n"
        "base_citations = 10\nitems_per_year = 40\nobservation_end = 2004\n"
        "volume_scale = 1993,3/25\nself_fraction = 1993,0,19/22\nspike = 1993,0,38\n"
    ))
    assert spec == flat_spec(
        kernel=RiseDecay(1, Fraction(1), Fraction(18, 25), 21),
        volume_scale={1993: Fraction(3, 25)},
        self_fraction={(1993, 0): Fraction(19, 22)},
        spikes=(Spike(1993, 0, 38),),
    )


def test_parse_spec_decimal_fractions_are_exact():
    spec = parse_synth_spec(io.StringIO(
        "journal = X\npub_years = 2000-2001\nkernel = geometric:0.5:2\n"
        "base_citations = 0.72\nitems_per_year = 3\nobservation_end = 2004\n"
    ))
    assert spec.base_citations == Fraction(18, 25)
    assert spec.kernel == RiseDecay(0, Fraction(1), Fraction(1, 2), 2)


def test_parse_spec_flat_and_geometric_keywords_are_risedecay():
    header = "journal = X\npub_years = 2000-2001\nbase_citations = 1\nitems_per_year = 1\n"
    for kernel, expected in (("flat:3", (1, 1, 1)),
                             ("geometric:2/3:3", (1, Fraction(2, 3), Fraction(4, 9)))):
        spec = parse_synth_spec(io.StringIO(f"{header}kernel = {kernel}\nobservation_end = 2004\n"))
        assert type(spec.kernel) is RiseDecay and spec.kernel.peak_age == 0
        assert spec.kernel.weights() == expected


def test_parse_spec_missing_key():
    with pytest.raises(ParseError, match="kernel") as err:
        parse_synth_spec(io.StringIO("journal = X\npub_years = 2000-2001\n"))
    assert err.value.line == 0  # no line gives the key


def test_parse_spec_bad_kernel():
    with pytest.raises(ParseError):
        parse_synth_spec(io.StringIO(
            "journal = X\npub_years = 2000-2001\nkernel = wavelet:3\n"
            "base_citations = 1\nitems_per_year = 1\nobservation_end = 2004\n"
        ))


def test_parse_spec_duplicate_scalar_key():
    with pytest.raises(ParseError, match="duplicate"):
        parse_synth_spec(io.StringIO("journal = X\njournal = Y\n"))


def test_parse_spec_unknown_key_names_its_line():
    # A misspelt repeatable key used to be stored and never read.
    with pytest.raises(ParseError) as err:
        parse_synth_spec(io.StringIO(
            "journal = X\npub_years = 2000-2001\nkernel = flat:2\n"
            "base_citations = 1\nitems_per_year = 1\nobservation_end = 2004\n"
            "self_fracton = 2000,0,1/2\n"
        ), source="typo.synth")
    assert (err.value.line, err.value.reason) == (7, "unknown key 'self_fracton'")


def test_parse_spec_first_line_may_open_with_bom():
    text = ("journal = X\npub_years = 2000-2001\nkernel = flat:2\n"
            "base_citations = 1\nitems_per_year = 1\nobservation_end = 2004\n")
    plain = parse_synth_spec(io.StringIO(text))
    assert parse_synth_spec(io.StringIO("\ufeff" + text)) == plain
    assert parse_synth_spec(io.StringIO("\ufeff# comment\n" + text)) == plain
    with pytest.raises(ParseError) as err:  # only on line 1
        parse_synth_spec(io.StringIO("# comment\n\ufeff" + text))
    assert err.value.line == 2 and "unknown key" in err.value.reason


def test_padded_journal_name_is_one_journal():
    # generate_profile keys its counts by the trimmed identity that every lookup uses.
    from citemetrics.ledger import find_profile
    from citemetrics.metrics import build_indicator_report

    reports = {}
    for name in ("Hare", " Hare "):
        profile, pubs = generate_profile(flat_spec(journal=name))
        reports[name] = build_indicator_report(profile, pubs, 2004)
        assert find_profile({name: profile}, "hare") is profile
    assert reports[" Hare "].jif == reports["Hare"].jif == Fraction(1, 4)
    assert reports[" Hare "].flags == reports["Hare"].flags


def test_fixtures_load_and_generate():
    for name in FIXTURE_NAMES:
        spec = fixture_spec(name)
        profile, pubs = generate_profile(spec)
        assert profile.cells
        assert pubs.entries


# --- pipeline agreement (spot check; the acceptance suite sweeps 50) ---------


def test_flat_spec_pipeline_matches_oracle_exactly():
    from citemetrics.metrics import build_indicator_report

    spec = flat_spec()
    profile, pubs = generate_profile(spec)
    report = build_indicator_report(profile, pubs, spec.observation_end)
    expected = expected_metrics(spec, WindowPolicy())
    assert report.coverage == expected["coverage"]
    assert report.half_life_exact == expected["half_life_exact"]
    assert report.scaling_factor == expected["scaling_factor"]


@pytest.mark.parametrize("policy", [
    WindowPolicy(), WindowPolicy((0, 1, 2), 25, Fraction(1, 4)),
])
def test_report_before_observation_end_matches_oracle_exactly(policy):
    from citemetrics.metrics import build_indicator_report

    # Integer-valued cells: 2048 * 2**-abs(age - 2) at every age.
    spec = flat_spec(first_year=1960, kernel=RiseDecay(2, Fraction(1, 2), Fraction(1, 2), 14),
                     base_citations=Fraction(2048))
    assert rounding_bounds(spec, policy)["coverage"] == 0
    profile, pubs = generate_profile(spec)
    report = build_indicator_report(profile, pubs, 1990, policy)
    expected = expected_metrics(spec._replace(last_year=1990, observation_end=1990), policy)
    assert report.coverage == expected["coverage"]
    assert report.half_life_exact == expected["half_life_exact"]
    assert report.scaling_factor == expected["scaling_factor"]
