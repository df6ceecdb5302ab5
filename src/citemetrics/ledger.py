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

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, TextIO

from .errors import CitemetricsError, ParseError, UndefinedRateError

CITATIONS_HEADER = "citing_journal,citing_year,cited_journal,cited_year,count"
PUBLICATIONS_HEADER = "journal,year,citeable_items"
ALIASES_HEADER = "alias,canonical"

# Citing-journal label used when a profile is serialized back to ledger CSV:
# the non-self share of a cell has no recorded origin, so it is attributed to
# this reserved name.  It must never collide with a real (casefolded) journal.
EXTERNAL_SOURCE = "(external)"

YEAR_MIN, YEAR_MAX = 1000, 9999
# While rows are folded, a (cited_year, citing_year) cell is keyed by the one
# int cited_year * YEAR_BASE + citing_year, exact for years in range.
YEAR_BASE = YEAR_MAX + 1

# The largest count one ledger row may carry.  Counts up to 2**53 are exact
# as floats, and their sums stay far below the largest float for any ledger
# that fits in memory, so every value a report or curve table prints is finite.
MAX_COUNT = 2**53


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
    """Citeable-item counts keyed by (casefolded journal, year); `journals`
    maps each casefolded journal to its first canonical spelling."""

    entries: dict[tuple[str, int], int] = field(default_factory=dict)
    journals: dict[str, str] = field(default_factory=dict)

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


def _data_lines(
    lines: Iterable[str], header: str, source: str | None
) -> Iterator[tuple[int, str]]:
    """Check the header (a BOM and padding allowed); number the lines after it.

    Every reader takes its lines from here, so all inputs share one layout.
    """
    it = iter(lines)
    first = next(it, None)
    if first is None:
        raise ParseError(1, "missing header", source)
    check_utf8(1, first, source)
    if first.removeprefix("\ufeff").strip() != header:
        raise ParseError(1, f"expected header {header!r}", source)
    return enumerate(it, start=2)


def check_utf8(number: int, line: str, source: str | None) -> None:
    """Raise line `number`'s ParseError if it holds a byte that is not UTF-8.

    Inputs are read with errors="surrogateescape", which keeps such a byte
    as a lone surrogate; the line, without its end, is encoded back to find it.
    """
    if not line.isascii():
        try:
            line.rstrip("\r\n").encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeError as exc:
            raise ParseError(number, f"not UTF-8 text ({exc.reason})", source) from None


def _rows(
    numbered: Iterable[tuple[int, str]], width: int, source: str | None
) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each non-blank line: UTF-8, with `width` fields."""
    for number, line in numbered:
        line = line.rstrip("\r\n")
        if line:
            check_utf8(number, line, source)
            parts = line.split(",")
            if len(parts) != width:
                raise ParseError(number, f"expected {width} fields, got {len(parts)}", source)
            yield number, parts


def _check_row(
    number: int,
    line: str,
    years: dict[str, int],
    names: dict[str, tuple[str, str]],
    alias_map: AliasMap,
    source: str | None,
) -> tuple[str, str, int, str, str, int, int] | None:
    """The full check of one ledger line, for lines that missed the field caches.

    Returns None for a blank line and raises the line's ParseError.  A valid
    row's year texts are admitted to `years` (text -> year) and its name
    texts to `names` (text -> canonical name and identity); the result is
    (citing, citing_id, citing_year, cited, cited_id, cited_year, count).
    """
    checked = next(_rows([(number, line)], 5, source), None)
    if checked is None:
        return None
    citing_raw, citing_year_s, cited_raw, cited_year_s, count_s = checked[1]
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
    if count > MAX_COUNT:
        raise ParseError(number, f"count must be at most {MAX_COUNT}", source)
    if citing_year < cited_year:
        raise ParseError(number, "citing year precedes cited year", source)
    citing = alias_map.resolve(citing_raw)
    cited = alias_map.resolve(cited_raw)
    if not citing or not cited:
        raise ParseError(number, "journal identifiers must be non-empty", source)
    years[citing_year_s] = citing_year
    years[cited_year_s] = cited_year
    citing_id = citing.casefold()
    cited_id = cited.casefold()
    names[citing_raw] = (citing, citing_id)
    names[cited_raw] = (cited, cited_id)
    return citing, citing_id, citing_year, cited, cited_id, cited_year, count


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
    Validation is cached by field text as in _fold.
    """
    years: dict[str, int] = {}
    names: dict[str, tuple[str, str]] = {}
    for number, line in _data_lines(lines, CITATIONS_HEADER, source):
        try:
            citing_raw, citing_year_s, cited_raw, cited_year_s, count_s = line.split(",")
            citing = names[citing_raw][0]
            cited = names[cited_raw][0]
            citing_year = years[citing_year_s]
            cited_year = years[cited_year_s]
            count = int(count_s)
            if not 0 <= count <= MAX_COUNT or citing_year < cited_year:
                raise ValueError
        except (ValueError, KeyError):
            row = _check_row(number, line, years, names, alias_map, source)
            if row is None:  # a blank line
                continue
            citing, _, citing_year, cited, _, cited_year, count = row
        yield CitationRecord(citing, citing_year, cited, cited_year, count)


def parse_alias_csv(lines: Iterable[str], source: str | None = None) -> AliasMap:
    """Parse alias,canonical rows into an AliasMap.

    Rejects: an alias repeated with a different canonical, an alias equal to
    its own canonical, and any name that appears both as an alias and as a
    canonical (chains would make resolution order-dependent).
    """
    entries: dict[str, str] = {}
    canonical_keys: set[str] = set()
    numbered = _data_lines(lines, ALIASES_HEADER, source)
    for number, (alias, canonical) in _rows(numbered, 2, source):
        alias = alias.strip()
        canonical = canonical.strip()
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
    journals: dict[str, str] = {}
    numbered = _data_lines(lines, PUBLICATIONS_HEADER, source)
    for number, (name, year_s, items_s) in _rows(numbered, 3, source):
        journal = alias_map.resolve(name)
        if not journal:
            raise ParseError(number, "journal identifier must be non-empty", source)
        try:
            year = int(year_s)
            items = int(items_s)
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
        journals.setdefault(key[0], journal)
    return PublicationCounts(entries, journals)


def build_profiles(records: Iterable[CitationRecord]) -> dict[str, CitationProfile]:
    """Fold records into one CitationProfile per cited journal.

    Aggregation is lossless: the sum of all cell totals equals the sum of
    ingested counts.  The mapping key is the canonical display name under
    which the journal was first seen; lookups elsewhere compare casefolded.
    A record with a year outside YEAR_MIN..YEAR_MAX raises ValueError.

    This is the reference fold: the tests compare _fold, which parses and
    folds each line in one loop, against iter_citation_records + this.  The
    two keep their own copy of the per-row body on purpose: feeding one
    fold loop from a generator shared by both paths made the 1e6-row read
    about 11 % slower.
    """
    display: dict[str, str] = {}
    totals_by_journal: dict[str, dict[int, int]] = {}
    selfs_by_journal: dict[str, dict[int, int]] = {}
    identity_cache: dict[str, str] = {}
    for citing, citing_year, cited, cited_year, count in records:
        if not (YEAR_MIN <= citing_year <= YEAR_MAX and YEAR_MIN <= cited_year <= YEAR_MAX):
            record = CitationRecord(citing, citing_year, cited, cited_year, count)
            raise ValueError(f"{record!r}: years must be in {YEAR_MIN}..{YEAR_MAX}")
        cited_id = identity_cache.get(cited)
        if cited_id is None:
            identity_cache[cited] = cited_id = cited.casefold()
        citing_id = identity_cache.get(citing)
        if citing_id is None:
            identity_cache[citing] = citing_id = citing.casefold()
        totals = totals_by_journal.get(cited_id)
        if totals is None:
            totals_by_journal[cited_id] = totals = {}
            selfs_by_journal[cited_id] = {}
            display[cited_id] = cited
        key = cited_year * YEAR_BASE + citing_year
        totals[key] = totals.get(key, 0) + count
        if citing_id == cited_id:
            selfs = selfs_by_journal[cited_id]
            selfs[key] = selfs.get(key, 0) + count
    return _freeze_profiles(display, totals_by_journal, selfs_by_journal)


def _freeze_profiles(
    display: dict[str, str],
    totals_by_journal: dict[str, dict[int, int]],
    selfs_by_journal: dict[str, dict[int, int]],
) -> dict[str, CitationProfile]:
    """Profiles from the fold's tables, in first-seen journal and cell order.

    Each journal's tables are dropped as it is frozen.  Profiles share one
    (cited_year, citing_year) key per distinct int key and one CellCount per
    distinct (total, self) pair; both are immutable.
    """
    pairs: dict[int, tuple[int, int]] = {}
    shared: dict[tuple[int, int], CellCount] = {}
    profiles: dict[str, CitationProfile] = {}
    for jid, name in display.items():
        selfs = selfs_by_journal.pop(jid)
        cells: dict[tuple[int, int], CellCount] = {}
        for key, total in totals_by_journal.pop(jid).items():
            pair = pairs.get(key)
            if pair is None:
                pairs[key] = pair = divmod(key, YEAR_BASE)
            counts = (total, selfs.get(key, 0))
            cell = shared.get(counts)
            if cell is None:
                shared[counts] = cell = CellCount._make(counts)
            cells[pair] = cell
        profiles[name] = CitationProfile(name, cells)
    return profiles


def _fold(
    numbered: Iterable[tuple[int, str]],
    alias_map: AliasMap,
    source: str | None,
    number: int = 0,
) -> tuple[dict[str, str], dict[str, dict[int, int]], dict[str, dict[int, int]], int, int]:
    """Parse (line number, line) pairs and fold their rows: the one per-row
    loop behind read_citation_profiles and read_citation_file.

    Returns (display name by identity, cell totals by identity, cell self
    counts by identity, data rows, last line number); each journal's totals
    and self counts are int -> int tables keyed by cited_year * YEAR_BASE +
    citing_year, and the self table holds only cells that self rows reached.
    `number` is the last line number when there are no pairs.  Validation
    is cached by field text: a year text maps to its in-range year and a
    name text to its non-empty canonical name and identity, so a row whose
    four texts are all known only needs its count range and year order
    checked.  Every other row goes through the one full row check
    (_check_row), which either raises or admits the row's texts to the
    caches; iter_citation_records shares it.  A known row needs no UTF-8
    check: its bytes all lie in its five fields, its four texts passed
    check_utf8 in _check_row, and int() rejects a lone surrogate in the count.
    """
    years: dict[str, int] = {}
    names: dict[str, tuple[str, str]] = {}
    display: dict[str, str] = {}
    totals_by_journal: dict[str, dict[int, int]] = {}
    selfs_by_journal: dict[str, dict[int, int]] = {}
    rows = 0
    for number, line in numbered:
        # int() ignores the line ending left on the count text.
        try:
            citing_raw, citing_year_s, cited_raw, cited_year_s, count_s = line.split(",")
            citing, citing_id = names[citing_raw]
            cited, cited_id = names[cited_raw]
            citing_year = years[citing_year_s]
            cited_year = years[cited_year_s]
            count = int(count_s)
            if not 0 <= count <= MAX_COUNT or citing_year < cited_year:
                raise ValueError  # the full row check below raises the error
        except (ValueError, KeyError):
            row = _check_row(number, line, years, names, alias_map, source)
            if row is None:  # a blank line
                continue
            citing, citing_id, citing_year, cited, cited_id, cited_year, count = row
        rows += 1
        totals = totals_by_journal.get(cited_id)
        if totals is None:
            totals_by_journal[cited_id] = totals = {}
            selfs_by_journal[cited_id] = {}
            display[cited_id] = cited
        key = cited_year * YEAR_BASE + citing_year
        totals[key] = totals.get(key, 0) + count
        if citing_id == cited_id:
            selfs = selfs_by_journal[cited_id]
            selfs[key] = selfs.get(key, 0) + count
    return display, totals_by_journal, selfs_by_journal, rows, number


def read_citation_profiles(
    lines: Iterable[str],
    alias_map: AliasMap = EMPTY_ALIASES,
    source: str | None = None,
) -> tuple[dict[str, CitationProfile], int]:
    """Parse a citation ledger and fold it into profiles in one streaming pass.

    Returns what `build_profiles(iter_citation_records(...))` returns, plus
    the number of data rows, and raises the same ParseError on the same
    line.  Memory grows with the number of profile cells, not with the
    number of rows.
    """
    numbered = _data_lines(lines, CITATIONS_HEADER, source)
    display, totals_by_journal, selfs_by_journal, rows, _ = _fold(numbered, alias_map, source)
    return _freeze_profiles(display, totals_by_journal, selfs_by_journal), rows


# read_citation_file cuts a ledger into one byte range per usable CPU, but
# never into ranges shorter than this.  On 2 CPUs, reading criterion 8's
# rows (CLI `validate`) in two processes broke even at 1 MB and took 0.88 of
# the single stream's time at 2-4 MB and 0.75 at 8-16 MB.  A wide ledger
# (0.84 cells per row) sends far more cells back: at 3.2 MB a `report` took
# 0.91 of the time but peaked 4 MB (10 %) higher, so below 4 MiB it streams.
MIN_SPLIT_BYTES = 2 << 20


def read_citation_file(
    handle: TextIO,
    alias_map: AliasMap = EMPTY_ALIASES,
    source: str | None = None,
) -> tuple[dict[str, CitationProfile], int]:
    """read_citation_profiles over a ledger file opened as UTF-8 text with
    errors="surrogateescape", as the CLI opens it.

    A file of at least 2 * MIN_SPLIT_BYTES, on a host with os.fork and two or
    more usable CPUs, is cut into up to one byte range per CPU, each at
    least MIN_SPLIT_BYTES long, and the ranges are read by as many processes
    (parallel.read_ranges); any other file is streamed from `handle`.
    Profiles, their order, display names and row count are the same either
    way, and so is the ParseError and its line.  Forking a process that
    runs other threads is unsafe, so a threaded caller should use
    read_citation_profiles.
    """
    fd = handle.fileno()
    size = os.fstat(fd).st_size
    parts = min(_usable_cpus(), size // MIN_SPLIT_BYTES) if hasattr(os, "fork") else 1
    if parts < 2:
        return read_citation_profiles(handle, alias_map, source)
    # Imported here, so a run that streams never compiles the process code.
    from .parallel import read_ranges

    return read_ranges(fd, [k * size // parts for k in range(1, parts)], alias_map, source)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # os.sched_getaffinity is not on every platform
        return os.cpu_count() or 1


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
    zero = Fraction(0)  # immutable, so every cell without a self share can hold it
    for (cited_year, citing_year), cell in profile.cells.items():
        if cell.total > 0:
            rates.setdefault(cited_year, {})[citing_year] = (
                Fraction(cell.self_count, cell.total) if cell.self_count else zero
            )
    return {year: dict(sorted(by_citing.items())) for year, by_citing in sorted(rates.items())}


def strip_self_references(profile: CitationProfile) -> CitationProfile:
    """Return a copy with self-references removed from every cell.

    Idempotent, and never increases any cell total.  Cells without a self
    share are the same (immutable) CellCount objects in the copy, and
    stripped cells with equal totals share one, the copy's own if it has one.
    """
    cells = profile.cells.copy()
    shared = {cell.total: cell for cell in cells.values() if not cell.self_count}
    for key, cell in profile.cells.items():
        if cell.self_count:
            other = cell.total - cell.self_count
            stripped = shared.get(other)
            if stripped is None:
                shared[other] = stripped = CellCount(other, 0)
            cells[key] = stripped
    return CitationProfile(profile.journal, cells)


def profiles_to_citation_csv(profiles: dict[str, CitationProfile]) -> str:
    """Serialize profiles back to ledger CSV, one row per cell per self split.

    The self share is attributed to the journal itself, the remainder to the
    reserved EXTERNAL_SOURCE name; cells with zero total keep a count-0 row so
    re-parsing reproduces the profiles exactly.  A row whose count the
    ledger readers would reject (below 0 or above MAX_COUNT) raises
    CitemetricsError.
    """
    lines = [CITATIONS_HEADER]
    for journal in sorted(profiles, key=str.casefold):
        profile = profiles[journal]
        name = profile.journal
        for (cited_year, citing_year) in sorted(profile.cells):
            cell = profile.cells[(cited_year, citing_year)]
            other = cell.total - cell.self_count
            if min(cell.self_count, other) < 0 or max(cell.self_count, other) > MAX_COUNT:
                bound = "below 0" if min(cell.self_count, other) < 0 else f"above {MAX_COUNT}"
                raise CitemetricsError(
                    f"{name!r}: the citations of {citing_year} to {cited_year} need a "
                    f"ledger row with a count {bound}"
                )
            if cell.self_count > 0:
                lines.append(f"{name},{citing_year},{name},{cited_year},{cell.self_count}")
            if other > 0 or cell.total == 0:
                lines.append(f"{EXTERNAL_SOURCE},{citing_year},{name},{cited_year},{other}")
    return "\n".join(lines) + "\n"
