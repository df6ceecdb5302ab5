from __future__ import annotations

import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics.errors import ParseError, UndefinedRateError
from citemetrics.ledger import (
    AliasMap,
    CellCount,
    CitationRecord,
    build_profiles,
    iter_citation_records,
    parse_alias_csv,
    parse_publication_csv,
    profiles_to_citation_csv,
    read_citation_profiles,
    self_reference_rate,
    strip_self_references,
    volume_self_rates,
)

from conftest import make_profile

HEADER = "citing_journal,citing_year,cited_journal,cited_year,count"


def lines(*rows):
    return [HEADER, *rows]


# --- citation parsing ---------------------------------------------------


def test_parse_single_record():
    records = list(iter_citation_records(lines("A,2004,B,2003,5")))
    assert records == [CitationRecord("A", 2004, "B", 2003, 5)]


def test_parse_preserves_order():
    records = list(iter_citation_records(lines("A,2004,B,2003,5", "A,2003,B,2003,1")))
    assert [r.citing_year for r in records] == [2004, 2003]


def test_citing_before_cited_is_an_error_with_line():
    with pytest.raises(ParseError) as err:
        list(iter_citation_records(lines("A,2002,B,2003,5")))
    assert err.value.line == 2
    assert "precede" in err.value.reason


def test_alias_substitution():
    aliases = AliasMap({"oldname": "NewName"})
    records = list(iter_citation_records(lines("OldName,2004,B,2003,5"), aliases))
    assert records[0].citing_journal == "NewName"


def test_header_only_is_empty_not_error():
    assert list(iter_citation_records([HEADER])) == []


def test_missing_header():
    with pytest.raises(ParseError):
        list(iter_citation_records([]))
    with pytest.raises(ParseError):
        list(iter_citation_records(["A,2004,B,2003,5"]))


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("A,2004,B,2003", "5 fields"),
        ("A,2004,B,2003,5,9", "5 fields"),  # comma inside an identifier
        ("A,x,B,2003,5", "integer"),
        ("A,2004,B,2003,-1", "non-negative"),
        ("A,2004,B,2003,1.5", "integer"),
        (" ,2004,B,2003,5", "non-empty"),
        ("A,204,B,2003,5", "4-digit"),
    ],
)
def test_malformed_rows(row, fragment):
    with pytest.raises(ParseError) as err:
        list(iter_citation_records(lines(row)))
    assert err.value.line == 2
    assert fragment in err.value.reason


def test_crlf_and_bom_tolerated():
    text = ["﻿" + HEADER + "\r\n", "A,2004,B,2003,5\r\n"]
    assert len(list(iter_citation_records(text))) == 1


# --- alias parsing ------------------------------------------------------


def test_alias_basic():
    aliases = parse_alias_csv(["alias,canonical", "Old J,New J"])
    assert aliases.resolve("Old J") == "New J"
    assert aliases.resolve("old j") == "New J"
    assert aliases.resolve("Unmapped") == "Unmapped"


def test_alias_duplicate_identical_ok():
    aliases = parse_alias_csv(["alias,canonical", "Old J,New J", "Old J,New J"])
    assert len(aliases.entries) == 1


def test_alias_conflict():
    with pytest.raises(ParseError) as err:
        parse_alias_csv(["alias,canonical", "Old J,New J", "Old J,Other J"])
    assert err.value.line == 3


def test_alias_to_itself_rejected():
    with pytest.raises(ParseError):
        parse_alias_csv(["alias,canonical", "Same,same"])


def test_alias_chain_rejected():
    with pytest.raises(ParseError):
        parse_alias_csv(["alias,canonical", "A,B", "B,C"])
    with pytest.raises(ParseError):
        parse_alias_csv(["alias,canonical", "B,C", "A,B"])


# --- publication parsing ------------------------------------------------


def test_publications_basic():
    pubs = parse_publication_csv(["journal,year,citeable_items", "A,2003,40"])
    assert pubs.get("A", 2003) == 40
    assert pubs.get("a ", 2003) == 40
    assert pubs.get("A", 1999) is None


def test_publications_zero_items_rejected():
    with pytest.raises(ParseError):
        parse_publication_csv(["journal,year,citeable_items", "A,2003,0"])


def test_publications_duplicate_rejected():
    with pytest.raises(ParseError):
        parse_publication_csv(
            ["journal,year,citeable_items", "A,2003,40", "A,2003,41"]
        )


# --- profile building ---------------------------------------------------


def test_build_profiles_sums_counts():
    records = [
        CitationRecord("A", 2004, "B", 2003, 5),
        CitationRecord("C", 2004, "B", 2003, 2),
    ]
    profiles = build_profiles(records)
    assert profiles["B"].cells[(2003, 2004)] == CellCount(5 + 2, 0)


def test_build_profiles_self_component():
    profiles = build_profiles([CitationRecord("B", 1993, "B", 1993, 38)])
    assert profiles["B"].cells[(1993, 1993)] == CellCount(38, 38)


def test_build_profiles_empty():
    assert build_profiles([]) == {}


def test_build_profiles_merges_case_variants():
    records = [
        CitationRecord("A", 2004, "Journal B", 2003, 1),
        CitationRecord("A", 2004, "journal b", 2003, 2),
    ]
    profiles = build_profiles(records)
    assert len(profiles) == 1
    assert profiles["Journal B"].cells[(2003, 2004)].total == 3


# --- self-reference rate ------------------------------------------------


def test_self_rate_jif_window_case():
    profile = make_profile("H", {(1991, 1993): (12, 8), (1992, 1993): (20, 13)})
    rate = self_reference_rate(profile, 1993, {1991, 1992})
    assert rate == Fraction(21, 32)
    assert float(rate) == 0.65625


def test_self_rate_same_year_case():
    profile = make_profile("H", {(1993, 1993): (44, 38)})
    assert self_reference_rate(profile, 1993, {1993}) == Fraction(38, 44)


def test_self_rate_zero_self():
    profile = make_profile("H", {(2000, 2001): (10, 0)})
    assert self_reference_rate(profile, 2001, {2000}) == 0


def test_self_rate_undefined_when_no_citations():
    profile = make_profile("H", {(2000, 2001): (0, 0)})
    with pytest.raises(UndefinedRateError):
        self_reference_rate(profile, 2001, {2000})


def test_volume_self_rates_skips_empty_cells():
    profile = make_profile("H", {(1993, 1993): (44, 38), (1993, 1994): (0, 0)})
    rates = volume_self_rates(profile)
    assert rates == {1993: {1993: Fraction(38, 44)}}


# --- strip --------------------------------------------------------------


def test_strip_removes_self_share():
    profile = make_profile("H", {(1993, 1993): (44, 38)})
    assert strip_self_references(profile).cells[(1993, 1993)] == CellCount(6, 0)


def test_strip_leaves_clean_cells():
    profile = make_profile("H", {(2000, 2001): (10, 0)})
    assert strip_self_references(profile) == profile


def test_strip_idempotent_example():
    profile = make_profile("H", {(1993, 1993): (44, 38), (1993, 1994): (36, 30)})
    once = strip_self_references(profile)
    assert strip_self_references(once) == once


# --- properties ---------------------------------------------------------

journal_names = st.sampled_from(["Alpha", "Beta", "Gamma Project", "Delta"])


@st.composite
def citation_records(draw):
    cited = draw(st.integers(min_value=1985, max_value=2004))
    age = draw(st.integers(min_value=0, max_value=15))
    return CitationRecord(
        draw(journal_names), cited + age, draw(journal_names), cited,
        draw(st.integers(min_value=0, max_value=50)),
    )


@given(st.lists(citation_records(), max_size=60))
def test_aggregation_conserves_counts(records):
    profiles = build_profiles(records)
    total_cells = sum(p.total_citations() for p in profiles.values())
    assert total_cells == sum(r.count for r in records)
    for profile in profiles.values():
        for cell in profile.cells.values():
            assert 0 <= cell.self_count <= cell.total


@given(st.lists(citation_records(), max_size=60))
def test_strip_idempotent_and_non_increasing(records):
    for profile in build_profiles(records).values():
        stripped = strip_self_references(profile)
        assert strip_self_references(stripped) == stripped
        for key, cell in stripped.cells.items():
            assert cell.self_count == 0
            assert cell.total <= profile.cells[key].total


@given(st.lists(citation_records(), max_size=60))
def test_alias_merge_equivalence(records):
    # mapping Alpha -> Beta must equal pre-substituted input, bit for bit
    aliases = AliasMap({"alpha": "Beta"})
    substituted = [
        CitationRecord(
            "Beta" if r.citing_journal == "Alpha" else r.citing_journal,
            r.citing_year,
            "Beta" if r.cited_journal == "Alpha" else r.cited_journal,
            r.cited_year,
            r.count,
        )
        for r in records
    ]
    rows = [f"{r.citing_journal},{r.citing_year},{r.cited_journal},{r.cited_year},{r.count}"
            for r in records]
    via_alias = build_profiles(iter_citation_records(lines(*rows), aliases))
    direct = build_profiles(substituted)
    assert via_alias == direct
    assert profiles_to_citation_csv(via_alias) == profiles_to_citation_csv(direct)


@given(st.lists(citation_records(), max_size=60))
@settings(max_examples=50)
def test_profile_csv_round_trip(records):
    profiles = build_profiles(records)
    text = profiles_to_citation_csv(profiles)
    reparsed = build_profiles(iter_citation_records(text.splitlines()))
    assert reparsed == profiles


# --- single-pass loader against the reference parse + fold ---------------

# Spelling variants of three journals, plus two former names that the
# alias map folds into them.  The first spelling seen becomes the display name.
NAME_TEXTS = ["Alpha", "alpha", " Alpha ", "ALPHA", "Beta", "beta ", "Gamma Project",
              "gamma project", "Old Alpha", " old alpha", " Gamma"]
LEDGER_ALIASES = AliasMap({"old alpha": "Alpha", "gamma": "Gamma Project"})

BAD_ROW_KINDS = ["fields", "integer", "range", "negative", "order", "empty", "header", "missing"]


@st.composite
def ledger_rows(draw):
    cited = draw(st.integers(min_value=2000, max_value=2003))
    citing = cited + draw(st.integers(min_value=0, max_value=2))
    year_text = st.sampled_from(["{}", " {}", "{} "])
    return [
        draw(st.sampled_from(NAME_TEXTS)),
        draw(year_text).format(citing),
        draw(st.sampled_from(NAME_TEXTS)),
        draw(year_text).format(cited),
        draw(st.sampled_from(["0", "1", "2", "7", " 3"])),
    ]


def corrupt(kind, row):
    """A row that raises `kind`'s ParseError, built from a valid row's texts."""
    citing, citing_year, cited, cited_year, count = row
    if kind == "fields":
        return [citing, citing_year, cited, cited_year, count, "9"]
    if kind == "integer":
        return [citing, citing_year, cited, cited_year, "x"]
    if kind == "range":
        return [citing, "10000", cited, cited_year, count]
    if kind == "negative":
        return [citing, citing_year, cited, cited_year, "-1"]
    if kind == "order":
        if int(citing_year) > int(cited_year):
            return [citing, cited_year, cited, citing_year, count]
        return [citing, citing_year, cited, str(int(cited_year) + 1), count]
    if kind == "empty":
        return [" ", citing_year, cited, cited_year, count]
    raise ValueError(kind)


@st.composite
def ledger_texts(draw, bad_kind):
    """Ledger text with repeated keys, CRLF/BOM/blank lines and maybe one bad row."""
    if bad_kind == "missing":
        return ""
    rows = draw(st.lists(ledger_rows(), max_size=40))
    if rows:
        # Repeat some rows verbatim and with another count, so keys recur.
        for row in draw(st.lists(st.sampled_from(rows), max_size=10)):
            rows.append(row)
            rows.append(row[:4] + [draw(st.sampled_from(["0", "5"]))])
    rows = draw(st.permutations(rows))
    header = HEADER
    if bad_kind == "header":
        header = draw(st.sampled_from(["", "citing,cited", HEADER + ",extra"]))
    elif bad_kind is not None:
        # Built from an earlier row when there is one, so its texts are cached.
        at = draw(st.integers(min_value=0, max_value=len(rows)))
        base = rows[draw(st.integers(min_value=0, max_value=at - 1))] if at else None
        rows.insert(at, corrupt(bad_kind, base or draw(ledger_rows())))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), "")
    bom = draw(st.sampled_from(["", "\ufeff"]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return bom + ending.join([header, *lines]) + draw(st.sampled_from(["", ending]))


def reference_load(text, aliases):
    try:
        profiles = build_profiles(iter_citation_records(io.StringIO(text), aliases))
        rows = len(list(iter_citation_records(io.StringIO(text), aliases)))
    except ParseError as exc:
        return None, (exc.line, exc.reason)
    return (profiles, rows), None


def single_pass_load(text, aliases):
    try:
        return read_citation_profiles(io.StringIO(text), aliases), None
    except ParseError as exc:
        return None, (exc.line, exc.reason)


@pytest.mark.parametrize("bad_kind", [None, *BAD_ROW_KINDS])
@given(data=st.data(), use_aliases=st.booleans())
@settings(max_examples=60)
def test_read_citation_profiles_matches_reference(bad_kind, data, use_aliases):
    text = data.draw(ledger_texts(bad_kind))
    aliases = LEDGER_ALIASES if use_aliases else AliasMap()
    expected, expected_error = reference_load(text, aliases)
    loaded, error = single_pass_load(text, aliases)
    assert error == expected_error
    if bad_kind is not None:
        assert error is not None
    if expected is None:
        return
    (profiles, rows), (expected_profiles, expected_rows) = loaded, expected
    assert rows == expected_rows
    assert profiles == expected_profiles
    assert list(profiles) == list(expected_profiles)
    for name, profile in profiles.items():
        assert profile.journal == expected_profiles[name].journal
        assert list(profile.cells) == list(expected_profiles[name].cells)

