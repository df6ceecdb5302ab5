"""Citation-ledger ingestion: parse CSV inputs, canonicalize journal names,
and aggregate records into per-journal citation profiles.

A ledger row says "journal X, in year i, cited journal Y's year-j volume
n times".  Profiles aggregate those rows into a (cited_year, citing_year)
matrix per cited journal, keeping the self-referencing portion (citing
journal == cited journal) separate so it can be reported or stripped.

All profile values are exact integers; nothing here rounds.  Profiles are
returned as plain frozen dataclasses and are treated as immutable: every
transformation returns a new value.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .errors import ParseError, UndefinedRateError

CITATIONS_HEADER = "citing_journal,citing_year,cited_journal,cited_year,count"
PUBLICATIONS_HEADER = "journal,year,citeable_items"
ALIASES_HEADER = "alias,canonical"

# Citing-journal label used when a profile is serialized back to ledger CSV:
# the non-self share of a cell has no recorded origin, so it is attributed to
# this reserved name.  It must never collide with a real (casefolded) journal.
EXTERNAL_SOURCE = "(external)"

YEAR_MIN, YEAR_MAX = 1000, 9999


class CitationRecord(NamedTuple):
    citing_journal: str
    citing_year: int
    cited_journal: str
    cited_year: int
    count: int


class CellCount(NamedTuple):
    """Total and self-referencing citations for one (cited, citing) year pair."""

    total: int
    self_count: int


@dataclass(frozen=True)
class AliasMap:
    """Single-step journal name resolution (old name / merged name -> canonical).

    Keys are casefolded; values keep the canonical spelling as written.
    Unmapped names resolve to themselves (trimmed).  Chains are rejected at
    parse time, so resolution order can never matter.
    """

    entries: dict[str, str] = field(default_factory=dict)

    def resolve(self, name: str) -> str:
        trimmed = name.strip()
        return self.entries.get(trimmed.casefold(), trimmed)


EMPTY_ALIASES = AliasMap()


@dataclass(frozen=True)
class PublicationCounts:
    """Citeable-item counts keyed by (casefolded journal, year)."""

    entries: dict[tuple[str, int], int] = field(default_factory=dict)

    def get(self, journal: str, year: int) -> int | None:
        return self.entries.get((journal.strip().casefold(), year))


@dataclass(frozen=True)
class CitationProfile:
    """All citations received by one journal: (cited_year, citing_year) -> counts."""

    journal: str
    cells: dict[tuple[int, int], CellCount] = field(default_factory=dict)

    def total_citations(self) -> int:
        return sum(c.total for c in self.cells.values())


def journal_identity(name: str) -> str:
    """Casefolded, trimmed form used for all journal-name comparisons."""
    return name.strip().casefold()


def _clean_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) with newline chars and a BOM removed."""
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if number == 1 and line.startswith("﻿"):
            line = line[1:]
        yield number, line


def _check_header(number: int, line: str, expected: str, source: str | None) -> None:
    if line.strip() != expected:
        raise ParseError(number, f"expected header {expected!r}", source)


def _parse_row(
    number: int, line: str, resolved: dict[str, str], alias_map: AliasMap, source: str | None
) -> CitationRecord:
    """Validate and canonicalize one non-blank data row, or raise its ParseError.

    `resolved` caches alias resolution by raw name text across calls.
    """
    parts = line.split(",")
    if len(parts) != 5:
        raise ParseError(number, f"expected 5 fields, got {len(parts)}", source)
    citing_raw, citing_year_s, cited_raw, cited_year_s, count_s = parts
    try:
        citing_year = int(citing_year_s)
        cited_year = int(cited_year_s)
        count = int(count_s)
    except ValueError:
        raise ParseError(number, "year and count fields must be integers", source)
    if not (YEAR_MIN <= citing_year <= YEAR_MAX and YEAR_MIN <= cited_year <= YEAR_MAX):
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


def iter_citation_records(
    lines: Iterable[str],
    alias_map: AliasMap = EMPTY_ALIASES,
    source: str | None = None,
) -> Iterator[CitationRecord]:
    """Stream validated, canonicalized records from citation-ledger CSV lines.

    The format is deliberately rigid: exactly the documented header, five
    comma-separated fields, no quoting (identifiers containing commas are
    rejected as a wrong field count).  Malformed rows raise ParseError with
    the offending line number; a header-only file yields nothing.
    """
    resolved: dict[str, str] = {}
    saw_header = False
    for number, line in _clean_lines(lines):
        if not saw_header:
            _check_header(number, line, CITATIONS_HEADER, source)
            saw_header = True
            continue
        if line:
            yield _parse_row(number, line, resolved, alias_map, source)
    if not saw_header:
        raise ParseError(1, "missing header", source)


def parse_alias_csv(lines: Iterable[str], source: str | None = None) -> AliasMap:
    """Parse alias,canonical rows into an AliasMap.

    Rejects: an alias repeated with a different canonical, an alias equal to
    its own canonical, and any name that appears both as an alias and as a
    canonical (chains would make resolution order-dependent).
    """
    entries: dict[str, str] = {}
    canonical_keys: set[str] = set()
    saw_header = False
    for number, line in _clean_lines(lines):
        if not saw_header:
            _check_header(number, line, ALIASES_HEADER, source)
            saw_header = True
            continue
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(number, f"expected 2 fields, got {len(parts)}", source)
        alias = parts[0].strip()
        canonical = parts[1].strip()
        if not alias or not canonical:
            raise ParseError(number, "alias and canonical must be non-empty", source)
        alias_key = alias.casefold()
        canonical_key = canonical.casefold()
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
        entries[alias_key] = canonical
        canonical_keys.add(canonical_key)
    if not saw_header:
        raise ParseError(1, "missing header", source)
    return AliasMap(entries)


def parse_publication_csv(
    lines: Iterable[str],
    alias_map: AliasMap = EMPTY_ALIASES,
    source: str | None = None,
) -> PublicationCounts:
    """Parse journal,year,citeable_items rows.

    Journal names pass through the alias map so denominators line up with
    canonicalized ledgers; a name-change that leaves two rows for the same
    canonical (journal, year) is reported as a duplicate for the curator to
    resolve rather than silently summed.
    """
    entries: dict[tuple[str, int], int] = {}
    saw_header = False
    for number, line in _clean_lines(lines):
        if not saw_header:
            _check_header(number, line, PUBLICATIONS_HEADER, source)
            saw_header = True
            continue
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(number, f"expected 3 fields, got {len(parts)}", source)
        journal = alias_map.resolve(parts[0])
        if not journal:
            raise ParseError(number, "journal identifier must be non-empty", source)
        try:
            year = int(parts[1])
            items = int(parts[2])
        except ValueError:
            raise ParseError(number, "year and citeable_items must be integers", source)
        if not YEAR_MIN <= year <= YEAR_MAX:
            raise ParseError(number, "years must be 4-digit integers", source)
        if items < 1:
            raise ParseError(number, "citeable_items must be positive", source)
        key = (journal.casefold(), year)
        if key in entries:
            raise ParseError(number, f"duplicate entry for {journal!r}, {year}", source)
        entries[key] = items
    if not saw_header:
        raise ParseError(1, "missing header", source)
    return PublicationCounts(entries)


def build_profiles(records: Iterable[CitationRecord]) -> dict[str, CitationProfile]:
    """Fold records into one CitationProfile per cited journal.

    Aggregation is lossless: the sum of all cell totals equals the sum of
    ingested counts.  The mapping key is the canonical display name under
    which the journal was first seen; lookups elsewhere compare casefolded.
    """
    display: dict[str, str] = {}
    cells_by_journal: dict[str, dict[tuple[int, int], list[int]]] = {}
    identity_cache: dict[str, str] = {}
    for citing, citing_year, cited, cited_year, count in records:
        cited_id = identity_cache.get(cited)
        if cited_id is None:
            identity_cache[cited] = cited_id = cited.casefold()
        citing_id = identity_cache.get(citing)
        if citing_id is None:
            identity_cache[citing] = citing_id = citing.casefold()
        cells = cells_by_journal.get(cited_id)
        if cells is None:
            cells_by_journal[cited_id] = cells = {}
            display[cited_id] = cited
        key = (cited_year, citing_year)
        cell = cells.get(key)
        if cell is None:
            cells[key] = cell = [0, 0]
        cell[0] += count
        if citing_id == cited_id:
            cell[1] += count
    return _freeze_profiles(display, cells_by_journal)


def _freeze_profiles(
    display: dict[str, str], cells_by_journal: dict[str, dict[tuple[int, int], list[int]]]
) -> dict[str, CitationProfile]:
    return {
        display[jid]: CitationProfile(
            display[jid], {key: CellCount(t, s) for key, (t, s) in cells.items()}
        )
        for jid, cells in cells_by_journal.items()
    }


def read_citation_profiles(
    lines: Iterable[str],
    alias_map: AliasMap = EMPTY_ALIASES,
    source: str | None = None,
) -> tuple[dict[str, CitationProfile], int]:
    """Parse a citation ledger and fold it into profiles in one streaming pass.

    Returns what `build_profiles(iter_citation_records(...))` returns, plus
    the number of data rows, and raises the same ParseError on the same
    line.  Memory grows with the number of profile cells, not with the
    number of rows.  Validation is cached by field text: a year text maps to
    its in-range year and a name text to its non-empty canonical name and
    identity, so a row whose four texts are all known only needs its count
    and year order checked.  Every other row goes through the reference row
    check, which either raises or admits the row's texts to the caches.
    """
    years: dict[str, int] = {}
    names: dict[str, tuple[str, str]] = {}
    resolved: dict[str, str] = {}
    display: dict[str, str] = {}
    cells_by_journal: dict[str, dict[tuple[int, int], list[int]]] = {}
    rows = 0
    it = iter(lines)
    header = next(it, None)
    if header is None:
        raise ParseError(1, "missing header", source)
    _check_header(1, header.rstrip("\r\n").removeprefix("\ufeff"), CITATIONS_HEADER, source)
    for number, line in enumerate(it, start=2):
        # int() ignores the line ending left on the count text.
        try:
            citing_raw, citing_year_s, cited_raw, cited_year_s, count_s = line.split(",")
            citing, citing_id = names[citing_raw]
            cited, cited_id = names[cited_raw]
            citing_year = years[citing_year_s]
            cited_year = years[cited_year_s]
            count = int(count_s)
            if count < 0 or citing_year < cited_year:
                raise ValueError  # the reference check below raises the error
        except (ValueError, KeyError):
            line = line.rstrip("\r\n")
            if not line:
                continue
            citing, citing_year, cited, cited_year, count = _parse_row(
                number, line, resolved, alias_map, source
            )
            citing_raw, citing_year_s, cited_raw, cited_year_s, _ = line.split(",")
            years[citing_year_s] = citing_year
            years[cited_year_s] = cited_year
            citing_id = citing.casefold()
            cited_id = cited.casefold()
            names[citing_raw] = (citing, citing_id)
            names[cited_raw] = (cited, cited_id)
        rows += 1
        cells = cells_by_journal.get(cited_id)
        if cells is None:
            cells_by_journal[cited_id] = cells = {}
            display[cited_id] = cited
        key = (cited_year, citing_year)
        cell = cells.get(key)
        if cell is None:
            cells[key] = cell = [0, 0]
        cell[0] += count
        if citing_id == cited_id:
            cell[1] += count
    return _freeze_profiles(display, cells_by_journal), rows


def find_profile(profiles: dict[str, CitationProfile], name: str) -> CitationProfile | None:
    """Look a journal up by name, comparing casefolded identities."""
    wanted = journal_identity(name)
    for journal, profile in profiles.items():
        if journal.casefold() == wanted:
            return profile
    return None


def self_reference_rate(
    profile: CitationProfile, citing_year: int, cited_years: Iterable[int]
) -> Fraction:
    """Share of citations in `citing_year` to `cited_years` that are self-references.

    Exact rational.  Raises UndefinedRateError when the selected cells sum to
    zero total citations: a 0/0 rate must be the caller's decision, never a
    silent zero.
    """
    total = 0
    self_count = 0
    for cited in cited_years:
        cell = profile.cells.get((cited, citing_year))
        if cell is not None:
            total += cell.total
            self_count += cell.self_count
    if total == 0:
        raise UndefinedRateError(
            f"{profile.journal!r}: no citations in {citing_year} to {sorted(cited_years)}"
        )
    return Fraction(self_count, total)


def volume_self_rates(profile: CitationProfile) -> dict[int, dict[int, Fraction]]:
    """Per-volume, per-citing-year self-reference rates (zero-total cells skipped)."""
    rates: dict[int, dict[int, Fraction]] = {}
    for (cited_year, citing_year), cell in profile.cells.items():
        if cell.total > 0:
            rates.setdefault(cited_year, {})[citing_year] = Fraction(
                cell.self_count, cell.total
            )
    return {year: dict(sorted(by_citing.items())) for year, by_citing in sorted(rates.items())}


def strip_self_references(profile: CitationProfile) -> CitationProfile:
    """Return a copy with self-references removed from every cell.

    Idempotent, and never increases any cell total.
    """
    return CitationProfile(
        profile.journal,
        {key: CellCount(c.total - c.self_count, 0) for key, c in profile.cells.items()},
    )


def profiles_to_citation_csv(profiles: dict[str, CitationProfile]) -> str:
    """Serialize profiles back to ledger CSV, one row per cell per self split.

    The self share is attributed to the journal itself, the remainder to the
    reserved EXTERNAL_SOURCE name; cells with zero total keep a count-0 row so
    re-parsing reproduces the profiles exactly.
    """
    lines = [CITATIONS_HEADER]
    for journal in sorted(profiles, key=str.casefold):
        profile = profiles[journal]
        name = profile.journal
        for (cited_year, citing_year) in sorted(profile.cells):
            cell = profile.cells[(cited_year, citing_year)]
            other = cell.total - cell.self_count
            if cell.self_count > 0:
                lines.append(f"{name},{citing_year},{name},{cited_year},{cell.self_count}")
            if other > 0 or cell.total == 0:
                lines.append(f"{EXTERNAL_SOURCE},{citing_year},{name},{cited_year},{other}")
    return "\n".join(lines) + "\n"
