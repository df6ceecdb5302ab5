from __future__ import annotations

import io
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from citemetrics import ledger, parallel
from citemetrics.errors import CitemetricsError, ParseError, UndefinedRateError
from citemetrics.ledger import (
    CITATIONS_HEADER,
    AliasMap,
    CellCount,
    CitationProfile,
    CitationRecord,
    MAX_COUNT,
    _data_lines,
    _fields,
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


def test_alias_repeated_keeps_the_first_spelling_of_its_canonical():
    """As the publications reader keeps a journal's first spelling."""
    aliases = parse_alias_csv(["alias,canonical", "Old,New", "old,NEW"])
    assert aliases.entries == {"old": "New"}
    assert aliases.resolve("Old") == "New"


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


@pytest.mark.parametrize("year", [999, 10000, -1])
@pytest.mark.parametrize("field", ["cited_year", "citing_year"])
def test_build_profiles_rejects_years_out_of_range(field, year):
    # Cells are keyed by one int per year pair while they fold, so a year
    # outside YEAR_MIN..YEAR_MAX would alias another pair.
    valid = CitationRecord("A", 2004, "B", 2003, 1)
    record = valid._replace(**{field: year})
    with pytest.raises(ValueError, match=re.escape(repr(record))):
        build_profiles([valid, record])


def test_build_profiles_keeps_boundary_years():
    profiles = build_profiles([CitationRecord("A", 9999, "B", 1000, 2),
                               CitationRecord("B", 9999, "B", 9999, 1)])
    assert profiles["B"].cells == {(1000, 9999): CellCount(2, 0), (9999, 9999): CellCount(1, 1)}


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
    # Only cells with a self share are rated: an empty cell has no rate, and
    # a cell without self-citations rates zero, which never fires a spike.
    profile = make_profile(
        "H", {(1993, 1993): (44, 38), (1993, 1994): (0, 0), (1993, 1995): (5, 0)}
    )
    assert volume_self_rates(profile) == {1993: {1993: Fraction(38, 44)}}


@pytest.mark.parametrize("strip_self", [False, True], ids=["plain", "strip-self"])
def test_read_profiles_share_one_int_per_year(tmp_path, strip_self):
    # Each cell key is a (cited_year, citing_year) pair; the read keeps one
    # int object per distinct year across all keys of all its profiles.
    path = tmp_path / "citations.csv"
    path.write_text("\n".join(lines(*[
        f"{citing},{cited_year + age},{cited},{cited_year},{age + 1}"
        for citing, cited in (("A", "A"), ("B", "A"), ("A", "B"))
        for cited_year in range(1990, 2000) for age in range(0, 2000 - cited_year)
    ])) + "\n")
    profiles, _ = ledger.read_citation_file(path, strip_self=strip_self)
    assert sorted(profiles) == ["A", "B"]
    years = [year for profile in profiles.values() for key in profile.cells for year in key]
    assert len({id(year) for year in years}) == len(set(years)) == 10


# --- strip --------------------------------------------------------------


def test_strip_removes_self_share():
    profile = make_profile("H", {(1993, 1993): (44, 38)})
    assert strip_self_references(profile).cells[(1993, 1993)] == CellCount(6, 0)


def test_strip_leaves_clean_cells():
    profile = make_profile("H", {(2000, 2001): (10, 0)})
    assert strip_self_references(profile) == profile


def test_strip_shares_equal_cells():
    profiles = build_profiles([
        CitationRecord("A", 2001, "H", 2000, 10),
        CitationRecord("H", 2002, "H", 2000, 3),
        CitationRecord("A", 2002, "H", 2000, 10),
        CitationRecord("H", 2003, "H", 2000, 4),
        CitationRecord("A", 2003, "H", 2000, 9),
    ])
    cells = strip_self_references(profiles["H"]).cells
    assert cells[(2000, 2002)] is cells[(2000, 2001)] is profiles["H"].cells[(2000, 2001)]
    assert cells[(2000, 2003)] == CellCount(9, 0)
    assert_shared_cells({"H": CitationProfile("H", cells)})


def test_strip_idempotent_example():
    profile = make_profile("H", {(1993, 1993): (44, 38), (1993, 1994): (36, 30)})
    once = strip_self_references(profile)
    assert strip_self_references(once) == once


# --- properties ---------------------------------------------------------

journal_names = st.sampled_from(["Alpha", "Beta", "Gamma Project", "Delta"])


@st.composite
def citation_records(draw, names=journal_names):
    cited = draw(st.integers(min_value=1985, max_value=2004))
    age = draw(st.integers(min_value=0, max_value=15))
    return CitationRecord(
        draw(names), cited + age, draw(names), cited,
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


@given(st.lists(citation_records(st.sampled_from(["Alpha", " Alpha", "ALPHA ", "alpha", "Beta"])),
                max_size=60))
@example([CitationRecord("X", 2000, " Hare ", 1999, 1), CitationRecord("X", 2000, "hare", 1999, 2),
          CitationRecord("Hare", 2000, " Hare ", 1999, 4)])
def test_build_profiles_folds_names_as_the_readers_do(records):
    # Padded and case variants are one journal to every fold, named by its
    # first-seen cited spelling, trimmed.
    profiles = build_profiles(records)
    rows = [",".join(map(str, record)) for record in records]
    read, count = read_citation_profiles(lines(*rows))
    assert (read, count) == (profiles, len(records))
    assert [(name, list(p.cells)) for name, p in read.items()] == [
        (name, list(p.cells)) for name, p in profiles.items()]
    text = profiles_to_citation_csv(profiles)
    assert read_citation_profiles(text.splitlines())[0] == profiles


def reference_strip(profile):
    # Stripping before it shared the cells it leaves unchanged.
    return CitationProfile(
        profile.journal,
        {key: CellCount(c.total - c.self_count, 0) for key, c in profile.cells.items()},
    )


@given(
    st.dictionaries(
        st.tuples(st.integers(1990, 1996), st.integers(1990, 2004)),
        st.tuples(st.integers(0, 9), st.integers(1, 9)),
        max_size=30,
    ),
    st.sampled_from(["no self", "only self", "mix"]),
    st.data(),
)
def test_strip_self_references_matches_reference(cells, shape, data):
    # (non-self, self) per cell; the shape decides which cells keep a self share.
    if shape == "no self":
        keep_self = set()
    elif shape == "only self":
        keep_self = set(cells)
    else:
        keep_self = data.draw(st.sets(st.sampled_from(sorted(cells)))) if cells else set()
    profile = make_profile("J", {
        key: (other + self_count, self_count if key in keep_self else 0)
        for key, (other, self_count) in cells.items()
    })
    before = dict(profile.cells)
    stripped = strip_self_references(profile)
    expected = reference_strip(profile)
    assert stripped == expected
    assert list(stripped.cells) == list(expected.cells)
    assert strip_self_references(stripped) == stripped
    assert profile.cells == before and list(profile.cells) == list(before)
    assert stripped.cells is not profile.cells
    for key, cell in profile.cells.items():
        if not cell.self_count:
            assert stripped.cells[key] is cell


# --- single-pass loader against the reference parse + fold ---------------

# Spelling variants of three journals, plus two former names that the
# alias map folds into them.  The first spelling seen becomes the display name.
NAME_TEXTS = ["Alpha", "alpha", " Alpha ", "ALPHA", "Beta", "beta ", "Gamma Project",
              "gamma project", "Old Alpha", " old alpha", " Gamma"]
LEDGER_ALIASES = AliasMap({"old alpha": "Alpha", "gamma": "Gamma Project"})

ROW_KINDS = ["fields", "integer", "range", "negative", "order", "empty"]
BAD_ROW_KINDS = [*ROW_KINDS, "header", "missing", "utf-8"]

# Texts read from bytes that are not UTF-8 with errors="surrogateescape"; each
# stays invalid next to ASCII text, a line end or the end of the file.
NOT_UTF8 = ["\udcff", "\udcc3", "\udce2\udc82", "\udced\udcb3\udcbf", "\udc80"]


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
        # Spellings that int() accepts, each its own text in the count cache.
        draw(st.sampled_from(["0", "1", "2", "7", " 3", "+4", "04", "4 ", "\u0664"])),
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


def lay_out(draw, lines, bad_kind):
    """The text of a header and its data lines, with blank lines, LF or CRLF
    line ends, maybe a BOM, and for the "utf-8" kind one run of bytes that
    are not UTF-8 anywhere, the header and blank lines included."""
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=1, max_value=len(lines))), "")
    if bad_kind == "utf-8":
        at = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        cut = draw(st.integers(min_value=0, max_value=len(lines[at])))
        lines[at] = lines[at][:cut] + draw(st.sampled_from(NOT_UTF8)) + lines[at][cut:]
    bom = draw(st.sampled_from(["", "\ufeff"]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return bom + ending.join(lines) + draw(st.sampled_from(["", ending]))


@st.composite
def ledger_texts(draw, bad_kind):
    """Ledger text with repeated keys, CRLF/BOM/blank lines and maybe one bad
    row.  The "utf-8" kind puts bytes that are not UTF-8 anywhere, the header
    and blank lines included, and may add a bad row before or after them."""
    if bad_kind == "missing":
        return ""
    rows = draw(st.lists(ledger_rows(), max_size=40))
    if rows:
        # Repeat some rows verbatim and with another count, so keys recur.
        for row in draw(st.lists(st.sampled_from(rows), max_size=10)):
            rows.append(row)
            rows.append(row[:4] + [draw(st.sampled_from(["0", "5"]))])
    rows = draw(st.permutations(rows))
    # Cite a row's citing text later on, so a cited text may be known as a
    # citing name before the fold has tables for it.
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        at = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        citing, citing_year, cited, cited_year, count = rows[at]
        later = draw(st.integers(min_value=at + 1, max_value=len(rows)))
        rows.insert(later, [cited, citing_year, citing, cited_year, count])
    header = HEADER
    if bad_kind == "header":
        header = draw(st.sampled_from(["", "citing,cited", HEADER + ",extra"]))
    elif bad_kind is not None:
        kinds = [bad_kind]
        if bad_kind == "utf-8":
            kinds = draw(st.lists(st.sampled_from(ROW_KINDS), max_size=1))
        for kind in kinds:
            # Built from an earlier row when there is one, so its texts are cached.
            at = draw(st.integers(min_value=0, max_value=len(rows)))
            base = rows[draw(st.integers(min_value=0, max_value=at - 1))] if at else None
            rows.insert(at, corrupt(kind, base or draw(ledger_rows())))
    return lay_out(draw, [header, *(",".join(row) for row in rows)], bad_kind)


def reference_parse_row(number, parts, resolved, alias_map, source):
    # A copy of the row check as it was before the readers cached fields
    # (its year bounds written out), kept here so that the oracle shares no
    # row logic with the code under test.
    citing_raw, citing_year_s, cited_raw, cited_year_s, count_s = parts
    try:
        citing_year = int(citing_year_s)
        cited_year = int(cited_year_s)
        count = int(count_s)
    except ValueError:
        raise ParseError(number, "year and count fields must be integers", source)
    if not (1000 <= citing_year <= 9999 and 1000 <= cited_year <= 9999):
        raise ParseError(number, "years must be 4-digit integers", source)
    if count < 0:
        raise ParseError(number, "count must be non-negative", source)
    if citing_year < cited_year:
        raise ParseError(number, "citing year precedes cited year", source)
    citing = resolved.get(citing_raw)
    if citing is None:
        resolved[citing_raw] = citing = alias_map.resolve(citing_raw)
    cited = resolved.get(cited_raw)
    if cited is None:
        resolved[cited_raw] = cited = alias_map.resolve(cited_raw)
    if not citing or not cited:
        raise ParseError(number, "journal identifiers must be non-empty", source)
    return CitationRecord(citing, citing_year, cited, cited_year, count)


def reference_utf8(lines, source):
    # A copy of the readers' UTF-8 check: each line is checked, before the
    # layout or row checks see it, by encoding it back to the bytes read.
    for number, line in enumerate(lines, start=1):
        try:
            line.rstrip("\r\n").encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeError as exc:
            raise ParseError(number, f"not UTF-8 text ({exc.reason})", source)
        yield line


def reference_records(lines, alias_map=AliasMap(), source=None):
    # The record path before it shared the field caches: every row goes
    # through the full row check.
    resolved = {}
    numbered = _data_lines(reference_utf8(lines, source), CITATIONS_HEADER, source)
    rows = ((number, parts) for number, line in numbered
            if (parts := _fields(number, line, 5, source)) is not None)
    for number, parts in rows:
        yield reference_parse_row(number, parts, resolved, alias_map, source)


def reference_load(text, aliases):
    try:
        records = list(reference_records(io.StringIO(text), aliases))
    except ParseError as exc:
        return None, (exc.line, exc.reason)
    return (build_profiles(records), len(records)), None


def single_pass_load(text, aliases):
    try:
        return read_citation_profiles(io.StringIO(text), aliases), None
    except ParseError as exc:
        return None, (exc.line, exc.reason)


def record_path_load(text, aliases):
    try:
        records = list(iter_citation_records(io.StringIO(text), aliases))
    except ParseError as exc:
        return None, (exc.line, exc.reason)
    return (build_profiles(records), len(records)), None


def assert_shared_cells(profiles):
    """Every key is a tuple of two ints and every cell a CellCount, and the
    profiles hold one object per distinct key and per distinct cell."""
    keys = [key for profile in profiles.values() for key in profile.cells]
    cells = [cell for profile in profiles.values() for cell in profile.cells.values()]
    assert all(type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int
               for key in keys)
    assert all(type(cell) is CellCount for cell in cells)
    assert len({id(key) for key in keys}) == len(set(keys))
    assert len({id(cell) for cell in cells}) == len({tuple(cell) for cell in cells})


def assert_same_load(outcome, expected_outcome):
    """Equal profiles, key and cell order, display names and row count, or
    the same (line, reason); the loaded keys and cells are shared, and so
    are the cells of each stripped profile."""
    (loaded, error), (expected, expected_error) = outcome, expected_outcome
    assert error == expected_error
    if expected is None:
        return
    (profiles, rows), (expected_profiles, expected_rows) = loaded, expected
    assert rows == expected_rows
    assert profiles == expected_profiles
    assert list(profiles) == list(expected_profiles)
    for name, profile in profiles.items():
        assert profile.journal == expected_profiles[name].journal
        assert list(profile.cells) == list(expected_profiles[name].cells)
    assert_shared_cells(profiles)
    for name, profile in profiles.items():
        stripped = strip_self_references(profile)
        expected_stripped = reference_strip(expected_profiles[name])
        assert stripped == expected_stripped
        assert list(stripped.cells) == list(expected_stripped.cells)
        assert_shared_cells({name: stripped})


@pytest.mark.parametrize("bad_kind", [None, *BAD_ROW_KINDS])
@given(data=st.data(), use_aliases=st.booleans())
@settings(max_examples=60)
def test_read_citation_profiles_matches_reference(bad_kind, data, use_aliases):
    # Both cached readers against the uncached record path.
    text = data.draw(ledger_texts(bad_kind))
    aliases = LEDGER_ALIASES if use_aliases else AliasMap()
    expected = reference_load(text, aliases)
    if bad_kind is not None:
        assert expected[1] is not None
    for load in (single_pass_load, record_path_load):
        assert_same_load(load(text, aliases), expected)
    if expected[0] is not None:
        assert list(iter_citation_records(io.StringIO(text), aliases)) == list(
            reference_records(io.StringIO(text), aliases)
        )


def strip_load(text, aliases):
    try:
        return read_citation_profiles(io.StringIO(text), aliases, strip_self=True), None
    except ParseError as exc:
        return None, (exc.line, exc.reason)


def mapped_strip(outcome):
    """A load's outcome with strip_self_references mapped over its profiles."""
    loaded, error = outcome
    if loaded is None:
        return outcome
    profiles, rows = loaded
    return ({name: strip_self_references(p) for name, p in profiles.items()}, rows), error


@pytest.mark.parametrize("bad_kind", [None, *BAD_ROW_KINDS])
@given(data=st.data(), use_aliases=st.booleans())
@settings(max_examples=40)
def test_read_time_strip_matches_mapped_strip(bad_kind, data, use_aliases):
    # Stripping while the fold is frozen gives the profiles, journal order,
    # cell order and row count of stripping after the read, and a bad row
    # raises the same ParseError on the same line.
    text = data.draw(ledger_texts(bad_kind))
    aliases = LEDGER_ALIASES if use_aliases else AliasMap()
    expected = mapped_strip(single_pass_load(text, aliases))
    if bad_kind is not None:
        assert expected[1] is not None
    outcome = strip_load(text, aliases)
    assert_same_load(outcome, expected)
    if outcome[0] is not None:
        assert all(not cell.self_count for profile in outcome[0][0].values()
                   for cell in profile.cells.values())


# --- the split file reader against the reference ----------------------------

LINE_BREAK = re.compile(rb"\r\n|\r|\n")


@st.composite
def split_texts(draw, bad_kind):
    """ledger_texts with blank lines ended by a lone CR, which universal
    newlines read as a line end too, inserted after some line breaks."""
    text = draw(ledger_texts(bad_kind))
    breaks = [m.end() for m in re.finditer(r"\n", text)]
    for at in sorted(draw(st.sets(st.sampled_from(breaks), max_size=3)) if breaks else [],
                     reverse=True):
        text = text[:at] + draw(st.sampled_from(["\r", "\r\r"])) + text[at:]
    return text


def split_offsets(raw, error_line):
    """Byte offsets around every line break, which include those right after
    the header, on blank lines and inside CRLF and lone-CR runs, and around
    the start and end of the bad line."""
    ends = [m.end() for m in LINE_BREAK.finditer(raw)]
    near = {0, len(raw)}
    for end in ends:
        near.update((end - 2, end - 1, end, end + 1))
    if error_line is not None and error_line >= 2:
        starts = [0, *ends]
        start = starts[error_line - 1]
        end = starts[error_line] if error_line < len(starts) else len(raw)
        near.update((start - 1, start, start + 1, end - 1, end))
    return sorted(at for at in near if 0 <= at <= len(raw))


def split_load(path, aliases, parts=None, offsets=None, strip_self=False):
    """read_citation_file forced into `parts` parts, or read_ranges at
    `offsets` with its fold records frozen here."""
    try:
        if offsets is not None:
            with open(path, "rb") as handle:
                journals, rows = parallel.read_ranges(handle.fileno(), offsets, aliases, None)
            return (ledger._freeze_profiles(journals, strip_self=strip_self), rows), None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ledger, "MIN_SPLIT_BYTES", 1)
            patch.setattr(ledger, "_usable_cpus", lambda: parts)
            return ledger.read_citation_file(path, aliases, strip_self=strip_self), None
    except ParseError as exc:
        return None, (exc.line, exc.reason)


@pytest.mark.parametrize("bad_kind", [None, *BAD_ROW_KINDS])
@given(data=st.data(), use_aliases=st.booleans())
@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_split_file_read_matches_reference(tmp_path, bad_kind, data, use_aliases):
    # The file reader forks one child per part after the first; every split
    # must give what one stream over the file gives.
    text = data.draw(split_texts(bad_kind))
    aliases = LEDGER_ALIASES if use_aliases else AliasMap()
    path = tmp_path / "citations.csv"
    raw = text.encode("utf-8", "surrogateescape")
    path.write_bytes(raw)
    # A file read with universal newlines turns CRLF and a lone CR into LF.
    expected = reference_load(text.replace("\r\n", "\n").replace("\r", "\n"), aliases)
    if bad_kind is not None:
        assert expected[1] is not None
    for parts in (2, 3):
        assert_same_load(split_load(path, aliases, parts=parts), expected)
    error_line = expected[1][0] if expected[1] else None
    offsets = data.draw(st.lists(st.sampled_from(split_offsets(raw, error_line)),
                                 min_size=1, max_size=2))
    assert_same_load(split_load(path, aliases, offsets=offsets), expected)


@pytest.mark.parametrize("bad_kind", [None, *BAD_ROW_KINDS])
@given(data=st.data(), use_aliases=st.booleans())
@settings(max_examples=10, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_split_read_time_strip_matches_mapped_strip(tmp_path, bad_kind, data, use_aliases):
    # The split read strips the merged tables as they are frozen: the same
    # outcome as strip_self_references mapped over one stream's profiles.
    text = data.draw(split_texts(bad_kind))
    aliases = LEDGER_ALIASES if use_aliases else AliasMap()
    path = tmp_path / "citations.csv"
    raw = text.encode("utf-8", "surrogateescape")
    path.write_bytes(raw)
    expected = mapped_strip(reference_load(text.replace("\r\n", "\n").replace("\r", "\n"),
                                           aliases))
    assert_same_load(split_load(path, aliases, parts=2, strip_self=True), expected)
    error_line = expected[1][0] if expected[1] else None
    offsets = data.draw(st.lists(st.sampled_from(split_offsets(raw, error_line)),
                                 min_size=1, max_size=2))
    assert_same_load(split_load(path, aliases, offsets=offsets, strip_self=True), expected)


@pytest.mark.parametrize("rows,line", [
    (["A,2004,B,2003,{}"], 2),  # through the full row check
    (["A,2004,B,2003,1", "A,2004,B,2003,{}"], 3),  # every field text cached
])
def test_readers_bound_counts(rows, line):
    for load in (single_pass_load, record_path_load):
        loaded, error = load("\n".join([HEADER, *rows]).format(MAX_COUNT), AliasMap())
        assert error is None
        assert loaded[0]["B"].cells[(2003, 2004)].total == MAX_COUNT + len(rows) - 1
        _, error = load("\n".join([HEADER, *rows]).format(MAX_COUNT + 1), AliasMap())
        assert error == (line, f"count must be at most {MAX_COUNT}")


def test_readers_cite_a_text_first_seen_as_citing():
    # "beta" is a known citing name before it is cited; each cited text
    # gets the tables of its own journal, and a self row is found by
    # identity, not by text.
    rows = ["beta,2004,Alpha,2003,1", "Alpha,2004,beta,2003,2",
            "ALPHA,2004,Beta,2003,3", "Beta,2004,beta,2003,4", "beta,2004,Alpha,2003,5"]
    for load in (single_pass_load, record_path_load):
        (profiles, count), error = load("\n".join([HEADER, *rows]), AliasMap())
        assert error is None and count == 5
        assert list(profiles) == ["Alpha", "beta"]
        assert profiles["Alpha"].cells == {(2003, 2004): CellCount(6, 0)}
        assert profiles["beta"].cells == {(2003, 2004): CellCount(9, 4)}


def test_citation_csv_rows_stay_within_count_bound():
    # A cell may pass MAX_COUNT when its self and external rows each stay
    # within it; a row that would not read back is refused.
    split = make_profile("J", {(2003, 2004): (2 * MAX_COUNT, MAX_COUNT)})
    text = profiles_to_citation_csv({"J": split})
    assert read_citation_profiles(text.splitlines()) == ({"J": split}, 2)
    over = make_profile("J", {(2003, 2004): (MAX_COUNT + 1, 0)})
    with pytest.raises(CitemetricsError, match=re.escape(
            f"row '(external),2004,J,2003,{MAX_COUNT + 1}' would not read back: "
            f"count must be at most {MAX_COUNT}")):
        profiles_to_citation_csv({"J": over})


@pytest.mark.parametrize("key, cell, row, reason", [
    ((1990, 1991), (-40, 0), "(external),1991,J,1990,-40", "count must be non-negative"),
    ((1990, 1991), (3, 5), "(external),1991,J,1990,-2", "count must be non-negative"),
    ((1990, 1991), (2, -1), "J,1991,J,1990,-1", "count must be non-negative"),
    ((1995, 1993), (2, 0), "(external),1993,J,1995,2", "citing year precedes cited year"),
    ((999, 1000), (2, 0), "(external),1000,J,999,2", "years must be 4-digit integers"),
], ids=["total", "external", "self", "citing-first", "3-digit-year"])
def test_citation_csv_refuses_negative_share(key, cell, row, reason):
    # A cell no ledger row can hold; dropping the cell would change the profile.
    profile = make_profile("J", {(1990, 1990): (1, 0), key: cell})
    with pytest.raises(CitemetricsError, match=re.escape(
            f"the ledger row {row!r} would not read back: {reason}")):
        profiles_to_citation_csv({"J": profile})


@pytest.mark.parametrize("names, message", [
    ([("(External)", "(External)")], "'(External)': its ledger rows would not read back"),
    ([("A,B", "A,B")], "row 'A,B,2004,A,B,2003,2' would not read back: expected 5 fields, got 7"),
    ([("A\nB", "A\nB")], "row 'A\\nB,2004,A\\nB,2003,2' would not read back: expected 5 fields"),
    ([("A\rB", "A\rB")], "row 'A\\rB,2004,A\\rB,2003,2' would not read back: expected 5 fields"),
    ([("  ", "  ")], "row '  ,2004,  ,2003,2' would not read back: journal identifiers must be"),
    ([(" J", " J")], "' J': its ledger rows would not read back"),
    ([("J", "J"), ("j", "j")], "'J': its ledger rows would not read back"),
    ([("J", "J"), ("K", "J")], "'J': its ledger rows would not read back"),
], ids=["reserved", "comma", "newline", "carriage-return", "blank", "padded", "case-twins",
        "key-of-another"])
def test_citation_csv_refuses_the_reserved_name(names, message):
    # Written back under the reserved citing name, A's five citations would
    # read as the journal's own; the other names would split, empty, trim or
    # merge a journal.
    profiles = {key: make_profile(name, {(2003, 2004): (7, 2)}) for key, name in names}
    if names[0][0] == "(External)":  # a ledger the readers accept gives this profile
        assert read_citation_profiles(
            lines("A,2004,(External),2003,5", "(External),2004,(External),2003,2"))[0] == profiles
    with pytest.raises(CitemetricsError, match=re.escape(message)):
        profiles_to_citation_csv(profiles)


def test_citation_csv_writes_an_all_self_reserved_name():
    # Its rows are all self rows, so the reserved citing name never meets it.
    profiles = {"(External)": make_profile("(External)", {(2003, 2004): (7, 7)})}
    text = profiles_to_citation_csv(profiles)
    assert text == f"{HEADER}\n(External),2004,(External),2003,7\n"
    assert read_citation_profiles(text.splitlines())[0] == profiles


WRITER_NAMES = ["J", " J", "j", "K", "A,B", "A\nB", "A\rB", "  ", "(External)"]
# Years and shares the readers accept, then the ones they refuse, drawn
# four times less often so that some profiles write cleanly.
WRITER_YEARS = ([1000, 2003, 2004, 9999], [999, 10000])
WRITER_SHARES = ([0, 1, MAX_COUNT], [-1, MAX_COUNT + 1])


def mostly(accepted, refused):
    return st.sampled_from(accepted * 4 + refused)


@st.composite
def written_profiles(draw):
    profiles = {}
    pairs = st.tuples(mostly(*WRITER_YEARS), mostly(*WRITER_YEARS))
    for name in draw(st.lists(st.sampled_from(WRITER_NAMES), min_size=1, max_size=2)):
        key = draw(st.sampled_from([name, *WRITER_NAMES]))
        cells = draw(st.dictionaries(
            pairs | pairs.map(sorted).map(tuple),  # half of them sorted into year order
            st.tuples(mostly(*WRITER_SHARES), mostly(*WRITER_SHARES)),
            max_size=2))
        profiles[key] = CitationProfile(name, {
            years: CellCount(self_count + other, self_count)
            for years, (self_count, other) in cells.items()})
    return profiles


@given(written_profiles())
@settings(max_examples=150)
@example({" J": make_profile(" J", {(2003, 2004): (7, 2)})})
@example({"J": make_profile("J", {(2003, 2004): (7, 2)}),
          "j": make_profile("j", {(2003, 2004): (7, 2)})})
@example({"J": make_profile("J", {(2003, 2004): (7, 2)}),
          "K": make_profile("J", {(2003, 2004): (7, 2)})})
def test_citation_csv_reads_back_or_raises(profiles):
    # The writer's promise: its text reads back as exactly the profiles with
    # cells, or it raises.
    try:
        text = profiles_to_citation_csv(profiles)
    except CitemetricsError:
        return
    read, _ = read_citation_profiles(io.StringIO(text, newline=None))
    assert read == {p.journal: p for p in profiles.values() if p.cells}


# --- publications against the uncached parse ---------------------------------

PUBLICATIONS_HEADER = "journal,year,citeable_items"
PUBLICATION_KINDS = ["duplicate", "empty", "integer", "range", "items", "fields"]
# A bad row whose other two texts are cached, and a duplicate row whose
# three texts are all cached.
CACHED_KINDS = ["cached bad", "cached duplicate"]


def reference_publications(lines, alias_map, source=None):
    # parse_publication_csv before it cached names: every row resolves its
    # name and casefolds it.
    entries = {}
    journals = {}
    numbered = _data_lines(reference_utf8(lines, source), PUBLICATIONS_HEADER, source)
    rows = ((number, parts) for number, line in numbered
            if (parts := _fields(number, line, 3, source)) is not None)
    for number, (name, year_s, items_s) in rows:
        journal = alias_map.resolve(name)
        if not journal:
            raise ParseError(number, "journal identifier must be non-empty", source)
        try:
            year = int(year_s)
            items = int(items_s)
        except ValueError:
            raise ParseError(number, "year and citeable_items must be integers", source)
        if not 1000 <= year <= 9999:
            raise ParseError(number, "years must be 4-digit integers", source)
        if items < 1:
            raise ParseError(number, "citeable_items must be positive", source)
        key = (journal.casefold(), year)
        if key in entries:
            raise ParseError(number, f"duplicate entry for {journal!r}, {year}", source)
        entries[key] = items
        journals.setdefault(key[0], journal)
    return entries, journals


def corrupt_publication(kind, row, spelling):
    """A row that raises `kind`'s ParseError, built from a valid row."""
    name, year, items = row
    if kind == "duplicate":
        # Another spelling of the same journal; with the alias map that may
        # be a former name, a duplicate only once it is resolved.
        return [spelling, year, items]
    if kind == "empty":
        return [" ", year, items]
    if kind == "integer":
        return [name, "x", items]
    if kind == "range":
        return [name, "999", items]
    if kind == "items":
        return [name, year, "0"]
    if kind == "fields":
        return [name, year, items, "9"]
    raise ValueError(kind)


@st.composite
def publication_texts(draw, bad_kind, aliases):
    """Publication text over spelling variants with distinct (journal, year)
    keys under `aliases`, and maybe one bad row."""
    def identity(name):
        return aliases.resolve(name).casefold()

    keys = draw(st.lists(
        st.tuples(st.sampled_from(NAME_TEXTS), st.integers(min_value=2000, max_value=2004)),
        min_size=1 if bad_kind in CACHED_KINDS else 0, max_size=30,
        unique_by=lambda key: (identity(key[0]), key[1]),
    ))
    rows = [[name, draw(st.sampled_from(["{}", " {}"])).format(year),
             draw(st.sampled_from(["1", "40", " 7", "+3"]))] for name, year in keys]
    header = PUBLICATIONS_HEADER
    if bad_kind == "header":
        header = draw(st.sampled_from(["", "journal,year", PUBLICATIONS_HEADER + ",extra"]))
    elif bad_kind in PUBLICATION_KINDS and rows:
        at = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        name = rows[at][0]
        spelling = draw(st.sampled_from([text for text in NAME_TEXTS
                                         if identity(text) == identity(name)]))
        later = draw(st.integers(min_value=at + 1, max_value=len(rows)))
        rows.insert(later, corrupt_publication(bad_kind, rows[at], spelling))
    elif bad_kind in CACHED_KINDS and rows:
        # Each text but a corrupted one comes from an earlier valid row, so
        # the field caches know it when the bad row is read.
        first, second = (draw(st.integers(min_value=0, max_value=len(rows) - 1))
                         for _ in range(2))
        if bad_kind == "cached duplicate":
            bad = [rows[first][0], rows[first][1], rows[second][2]]
        else:
            kind = draw(st.sampled_from(["empty", "integer", "range", "items"]))
            bad = corrupt_publication(kind, [rows[first][0], rows[second][1], rows[first][2]],
                                      None)
        later = draw(st.integers(min_value=max(first, second) + 1, max_value=len(rows)))
        rows.insert(later, bad)
    return lay_out(draw, [header, *(",".join(row) for row in rows)], bad_kind)


def publication_outcome(parse, text, aliases):
    try:
        return parse(io.StringIO(text), aliases), None
    except ParseError as exc:
        return None, (exc.line, exc.reason)


def test_publications_duplicate_after_alias():
    with pytest.raises(ParseError) as err:
        parse_publication_csv(["journal,year,citeable_items", "Alpha,2003,4", "",
                               " old alpha,2003,5"], LEDGER_ALIASES)
    assert (err.value.line, err.value.reason) == (4, "duplicate entry for 'Alpha', 2003")


@pytest.mark.parametrize("bad_kind",
                         [None, *PUBLICATION_KINDS, "header", "utf-8", *CACHED_KINDS])
@given(data=st.data(), use_aliases=st.booleans())
@settings(max_examples=60)
def test_parse_publication_csv_matches_reference(bad_kind, data, use_aliases):
    aliases = LEDGER_ALIASES if use_aliases else AliasMap()
    text = data.draw(publication_texts(bad_kind, aliases))
    expected, expected_error = publication_outcome(reference_publications, text, aliases)
    pubs, error = publication_outcome(parse_publication_csv, text, aliases)
    if bad_kind in CACHED_KINDS:
        assert expected_error is not None
        assert expected_error[1].startswith("duplicate") == (bad_kind == "cached duplicate")
    assert error == expected_error
    if expected is None:
        return
    entries, journals = expected
    assert list(pubs.entries.items()) == list(entries.items())
    assert list(pubs.journals.items()) == list(journals.items())


# --- aliases against a reference written out rule by rule ---------------------

# Padded and case-variant spellings of two former names and two current ones.
# Most rows map a former name to a current one; a row that takes its alias
# from the current names, or its canonical from the former ones, may map a
# name to itself or make a chain, in either order.
OLD_NAMES = ["Old A", " old a", "OLD A ", "Old B", "old b "]
NEW_NAMES = ["New A", "new a ", " NEW A", "New B", "new b"]


def reference_aliases(lines, source=None):
    # parse_alias_csv with its line layout spelled out: every line is checked
    # for UTF-8 as it is read, then the header, then each non-blank row.
    entries, canonical_keys = {}, set()
    numbered = enumerate(reference_utf8(lines, source), start=1)
    _, header = next(numbered, (1, None))
    if header is None:
        raise ParseError(1, "missing header", source)
    if header.removeprefix("\ufeff").strip() != "alias,canonical":
        raise ParseError(1, "expected header 'alias,canonical'", source)
    for number, line in numbered:
        fields = line.rstrip("\r\n").split(",")
        if fields == [""]:
            continue
        if len(fields) != 2:
            raise ParseError(number, f"expected 2 fields, got {len(fields)}", source)
        alias, canonical = (field.strip() for field in fields)
        if not alias or not canonical:
            raise ParseError(number, "alias and canonical must be non-empty", source)
        alias_key, canonical_key = alias.casefold(), canonical.casefold()
        if alias_key == canonical_key:
            raise ParseError(number, f"alias {alias!r} maps to itself", source)
        existing = entries.get(alias_key)
        if existing is not None and existing.casefold() != canonical_key:
            raise ParseError(
                number, f"alias {alias!r} maps to both {existing!r} and {canonical!r}", source
            )
        if alias_key in canonical_keys:
            raise ParseError(number, f"{alias!r} is already a canonical name", source)
        if canonical_key in entries:
            raise ParseError(number, f"{canonical!r} is already an alias", source)
        entries.setdefault(alias_key, canonical)
        canonical_keys.add(canonical_key)
    return entries


@st.composite
def alias_texts(draw, bad_kind):
    """Alias text with repeated, self-mapping and chained aliases, blank lines,
    LF or CRLF ends and maybe a BOM; the "fields" kind adds a row with one or
    three fields, the "utf-8" kind bytes that are not UTF-8."""
    rows = draw(st.lists(st.tuples(
        st.sampled_from(OLD_NAMES * 4 + NEW_NAMES + [" "]),
        st.sampled_from(NEW_NAMES * 4 + OLD_NAMES + [""]),
    ), max_size=12))
    lines = [",".join(row) for row in rows]
    if bad_kind == "fields":
        bad = ",".join(draw(st.sampled_from([[], ["x", "y"]])) + ["Old A"])
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), bad)
    return lay_out(draw, ["alias,canonical", *lines], bad_kind)


def alias_outcome(parse, text):
    try:
        return parse(io.StringIO(text)), None
    except ParseError as exc:
        return None, (exc.line, exc.reason)


@pytest.mark.parametrize("bad_kind", [None, "fields", "utf-8"])
@given(data=st.data())
@settings(max_examples=100)
def test_parse_alias_csv_matches_reference(bad_kind, data):
    text = data.draw(alias_texts(bad_kind))
    expected, expected_error = alias_outcome(reference_aliases, text)
    aliases, error = alias_outcome(parse_alias_csv, text)
    assert error == expected_error
    if expected is not None:
        assert list(aliases.entries.items()) == list(expected.items())


# --- line layout, shared by every reader ----------------------------------------

# Header, one valid data row and its field count per reader; each reader is
# called through a function returning the number of rows or entries it kept.
LAYOUT_READERS = {
    "iter_citation_records": (HEADER, "A,2004,B,2003,5", 5,
                              lambda f: len(list(iter_citation_records(f)))),
    "read_citation_profiles": (HEADER, "A,2004,B,2003,5", 5,
                               lambda f: read_citation_profiles(f)[1]),
    "parse_publication_csv": ("journal,year,citeable_items", "A,2003,40", 3,
                              lambda f: len(parse_publication_csv(f).entries)),
    "parse_alias_csv": ("alias,canonical", "Old,New", 2,
                        lambda f: len(parse_alias_csv(f).entries)),
}

# (layout, text from header h and row r, outcome from h and field count n):
# an int is the number of rows kept, a pair the ParseError's (line, reason).
# Every outcome was captured from the readers before they shared one layer.
LAYOUT_CASES = [
    ("empty", lambda h, r: "", lambda h, n: (1, "missing header")),
    ("wrong header", lambda h, r: f"{h},extra\n{r}\n",
     lambda h, n: (1, f"expected header {h!r}")),
    ("header only, no newline", lambda h, r: h, lambda h, n: 0),
    ("bom and crlf header", lambda h, r: f"\ufeff{h}\r\n{r}\r\n", lambda h, n: 1),
    ("padded header", lambda h, r: f"  {h} \t\n{r}\n", lambda h, n: 1),
    ("blank and crlf data lines", lambda h, r: f"{h}\n\n\r\n{r}\r\n\n\r\n",
     lambda h, n: 1),
    ("too many fields", lambda h, r: f"{h}\n{r}\n{r},x\n",
     lambda h, n: (3, f"expected {n} fields, got {n + 1}")),
    ("too few fields after blank lines", lambda h, r: f"{h}\r\n\r\n\nA\r\n",
     lambda h, n: (4, f"expected {n} fields, got 1")),
    ("whitespace-only line", lambda h, r: f"{h}\n \n",
     lambda h, n: (2, f"expected {n} fields, got 1")),
    # Bytes that are not UTF-8, read with errors="surrogateescape".
    ("bad row before a non-utf-8 byte", lambda h, r: f"{h}\n{r},x\n\udcff\n",
     lambda h, n: (2, f"expected {n} fields, got {n + 1}")),
    ("non-utf-8 byte in a known row", lambda h, r: f"{h}\n{r}\n{r}\udcc3\r\n",
     lambda h, n: (3, "not UTF-8 text (unexpected end of data)")),
    ("non-utf-8 byte ending the header", lambda h, r: f"{h}\udcc3\r\n{r}\n",
     lambda h, n: (1, "not UTF-8 text (unexpected end of data)")),
]


@pytest.mark.parametrize("reader", sorted(LAYOUT_READERS))
@pytest.mark.parametrize("case", LAYOUT_CASES, ids=[c[0] for c in LAYOUT_CASES])
def test_readers_share_line_layout(reader, case):
    header, row, width, read = LAYOUT_READERS[reader]
    _, make_text, outcome = case
    text = make_text(header, row)
    expected = outcome(header, width)
    # A list of lines without their endings reads the same.
    for lines in (io.StringIO(text), text.splitlines()):
        if isinstance(expected, int):
            assert read(lines) == expected
            continue
        with pytest.raises(ParseError) as err:
            read(lines)
        assert (err.value.line, err.value.reason) == expected
