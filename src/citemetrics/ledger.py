"""Citation-ledger ingestion: parse CSV inputs, canonicalize journal names,
and aggregate records into per-journal citation profiles.

A ledger row says "journal X, in year i, cited journal Y's year-j volume
n times".  Profiles aggregate those rows into a (cited_year, citing_year)
matrix per cited journal, keeping the self-referencing portion (citing
journal == cited journal) separate so it can be reported or stripped.

All profile values are exact integers; nothing here rounds.  Records and
profiles are NamedTuples and are treated as immutable: every transformation
returns a new value.
"""
from __future__ import annotations

import codecs
import io
import os
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, TextIO

from .errors import CitemetricsError, ParseError, UndefinedRateError

CITATIONS_HEADER = "citing_journal,citing_year,cited_journal,cited_year,count"
PUBLICATIONS_HEADER = "journal,year,citeable_items"
ALIASES_HEADER = "alias,canonical"
ENCODING, DECODE_ERRORS = "utf-8", "surrogateescape"  # the rule open_input reads inputs by

# Citing-journal label for the non-self share of a cell, which has no recorded
# origin, when a profile is written back to ledger CSV.  A journal of this
# identity would read those rows as its own, so SynthSpec refuses the name.
EXTERNAL_SOURCE = "(external)"

YEAR_MIN, YEAR_MAX = 1000, 9999
# While rows are folded, a (cited_year, citing_year) cell is keyed by the one
# int cited_year * YEAR_BASE + citing_year, exact for years in range.
YEAR_BASE = YEAR_MAX + 1
# A journal's fold record: (display name, cell totals, cell self counts), int
# tables by those int keys; the self table holds only cells self rows reached.
_Journal = tuple[str, dict[int, int], dict[int, int]]

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


# The default of every dict-valued record field: empty and read-only, so no
# two records share a dict that one of them could change.
_EMPTY = MappingProxyType({})


class AliasMap(NamedTuple):
    """Single-step journal name resolution (old name / merged name -> canonical).

    Keys are alias identities; values keep the canonical spelling as first
    written.  Unmapped names resolve to themselves (trimmed).  Chains are
    rejected at parse time, so resolution order can never matter.
    """

    entries: Mapping[str, str] = _EMPTY

    def resolve(self, name: str) -> str:
        return self.entries.get(journal_identity(name), name.strip())


EMPTY_ALIASES = AliasMap()


class PublicationCounts(NamedTuple):
    """Citeable-item counts keyed by (journal identity, year); `journals`
    maps each journal identity to its first canonical spelling."""

    entries: Mapping[tuple[str, int], int] = _EMPTY
    journals: Mapping[str, str] = _EMPTY

    def get(self, journal: str, year: int) -> int | None:
        return self.entries.get((journal_identity(journal), year))


class CitationProfile(NamedTuple):
    """All citations received by one journal: (cited_year, citing_year) -> counts."""

    journal: str
    cells: Mapping[tuple[int, int], CellCount] = _EMPTY

    def total_citations(self) -> int:
        return sum(c.total for c in self.cells.values())


def open_input(path) -> TextIO:
    """The input file at path as text, by the one rule for every input: UTF-8, a
    byte that is not UTF-8 kept as a lone surrogate for check_utf8 to reject,
    and universal newlines."""
    return open(path, encoding=ENCODING, errors=DECODE_ERRORS)


def text_decoder() -> io.IncrementalNewlineDecoder:
    """Makes of bytes the text open_input reads from them, each line end an LF."""
    decoder = codecs.getincrementaldecoder(ENCODING)(DECODE_ERRORS)
    return io.IncrementalNewlineDecoder(decoder, True)


def journal_identity(name: str) -> str:
    """Trim, then casefold: the one rule for when two journal names are one journal."""
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

    Inputs are read by open_input, which keeps such a byte as a lone
    surrogate; the line, without its end, is encoded back to find it.
    """
    if not line.isascii():
        try:
            line.rstrip("\r\n").encode(ENCODING, DECODE_ERRORS).decode(ENCODING)
        except UnicodeError as exc:
            raise ParseError(number, f"not UTF-8 text ({exc.reason})", source) from None


def _fields(number: int, line: str, width: int, source: str | None) -> list[str] | None:
    """The fields of data line `number`, without its end; None for a blank
    line.  Raises the line's ParseError if it is not UTF-8 or has other than
    `width` fields."""
    line = line.rstrip("\r\n")
    if not line:
        return None
    check_utf8(number, line, source)
    parts = line.split(",")
    if len(parts) != width:
        raise ParseError(number, f"expected {width} fields, got {len(parts)}", source)
    return parts


def _check_row(
    number: int,
    line: str,
    years: dict[str, int],
    names: dict[str, tuple[str, str]],
    counts: dict[str, int],
    alias_map: AliasMap,
    source: str | None,
) -> tuple[str, str, int, str, str, int, int] | None:
    """The full check of one ledger line, for lines that missed the field caches.

    Returns None for a blank line and raises the line's ParseError.  A valid
    row's year texts are admitted to `years` (text -> year), its name texts
    to `names` (text -> canonical name and identity) and its count text, as
    the line holds it with any line end, to `counts` (text -> count); the
    result is (citing, citing_id, citing_year, cited, cited_id, cited_year,
    count).
    """
    fields = _fields(number, line, 5, source)
    if fields is None:
        return None
    citing_raw, citing_year_s, cited_raw, cited_year_s, count_s = fields
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
    citing_id = journal_identity(citing)
    cited_id = journal_identity(cited)
    names[citing_raw] = (citing, citing_id)
    names[cited_raw] = (cited, cited_id)
    counts[line[line.rindex(",") + 1:]] = count
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
    counts: dict[str, int] = {}
    for number, line in _data_lines(lines, CITATIONS_HEADER, source):
        try:
            citing_raw, citing_year_s, cited_raw, cited_year_s, count_s = line.split(",")
            citing = names[citing_raw][0]
            cited = names[cited_raw][0]
            citing_year = years[citing_year_s]
            cited_year = years[cited_year_s]
            count = counts[count_s]
            if citing_year < cited_year:
                raise ValueError
        except (ValueError, KeyError):
            row = _check_row(number, line, years, names, counts, alias_map, source)
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
    for number, line in _data_lines(lines, ALIASES_HEADER, source):
        fields = _fields(number, line, 2, source)
        if fields is None:  # a blank line
            continue
        alias, canonical = fields
        alias = alias.strip()
        canonical = canonical.strip()
        if not alias or not canonical:
            raise ParseError(number, "alias and canonical must be non-empty", source)
        alias_key = journal_identity(alias)
        canonical_key = journal_identity(canonical)
        if alias_key == canonical_key:
            raise ParseError(number, f"alias {alias!r} maps to itself", source)
        existing = entries.get(alias_key)
        if existing is not None and journal_identity(existing) != canonical_key:
            raise ParseError(
                number, f"alias {alias!r} maps to both {existing!r} and {canonical!r}", source
            )
        if alias_key in canonical_keys:
            raise ParseError(number, f"{alias!r} is already a canonical name", source)
        if canonical_key in entries:
            raise ParseError(number, f"{canonical!r} is already an alias", source)
        entries.setdefault(alias_key, canonical)
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
    resolve rather than silently summed.  Fields are cached by text as in
    _fold: a name text maps to its non-empty canonical name and identity,
    a year text to its in-range year and an items text (with any line end)
    to its positive count.  A row whose three texts are all known and whose
    key is new costs three dict reads; every other row gets the full row
    check, which raises its ParseError or admits its texts.
    """
    entries: dict[tuple[str, int], int] = {}
    journals: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    years: dict[str, int] = {}
    counts: dict[str, int] = {}
    for number, line in _data_lines(lines, PUBLICATIONS_HEADER, source):
        try:
            name, year_s, items_s = line.split(",")
            key = (names[name][1], years[year_s])
            items = counts[items_s]
            if key in entries:
                raise ValueError  # the full row check below raises the error
        except (ValueError, KeyError):
            fields = _fields(number, line, 3, source)
            if fields is None:  # a blank line
                continue
            name, year_s, items_s = fields
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
            key = (journal_identity(journal), year)
            if key in entries:
                raise ParseError(number, f"duplicate entry for {journal!r}, {year}", source)
            names[name] = (journal, key[0])
            years[year_s] = year
            counts[line[line.rindex(",") + 1:]] = items
            # A known name text was admitted by a row that set its journal.
            journals.setdefault(key[0], journal)
        entries[key] = items
    return PublicationCounts(entries, journals)


def build_profiles(records: Iterable[CitationRecord]) -> dict[str, CitationProfile]:
    """Fold records into one CitationProfile per cited journal.

    Aggregation is lossless: the sum of all cell totals equals the sum of
    ingested counts.  Records of one journal identity fold together, keyed
    and named by its first-seen cited name, trimmed as the readers trim it.
    A record with a year outside YEAR_MIN..YEAR_MAX raises ValueError.

    This is the reference fold: the tests compare _fold, which parses and
    folds each line in one loop, against iter_citation_records + this.  The
    two keep their own copy of the per-row body on purpose: feeding one
    fold loop from a generator shared by both paths made the 1e6-row read
    about 11 % slower.
    """
    journals: dict[str, _Journal] = {}
    tables: dict[str, tuple[str, dict[int, int], dict[int, int]]] = {}  # by cited name
    identities = _Memo(journal_identity)
    for citing, citing_year, cited, cited_year, count in records:
        if not (YEAR_MIN <= citing_year <= YEAR_MAX and YEAR_MIN <= cited_year <= YEAR_MAX):
            record = CitationRecord(citing, citing_year, cited, cited_year, count)
            raise ValueError(f"{record!r}: years must be in {YEAR_MIN}..{YEAR_MAX}")
        try:
            cited_id, totals, selfs = tables[cited]
        except KeyError:
            cited_id = identities[cited]
            _, totals, selfs = journals.setdefault(cited_id, (cited.strip(), {}, {}))
            tables[cited] = (cited_id, totals, selfs)
        key = cited_year * YEAR_BASE + citing_year
        totals[key] = totals.get(key, 0) + count
        if identities[citing] == cited_id:
            selfs[key] = selfs.get(key, 0) + count
    return _freeze_profiles(journals)


def _freeze_profiles(
    journals: dict[str, _Journal], *, strip_self: bool = False
) -> dict[str, CitationProfile]:
    """Profiles from the fold's records by identity, in first-seen journal
    and cell order, each keyed and named by its record's display name.

    With strip_self, each journal's self counts are subtracted from its
    totals first, so every cell is (total - self, 0): the profiles equal
    strip_self_references mapped over the unstripped ones, which are never
    built.  Each record is popped from `journals` as it is frozen.  Profiles
    share one (cited_year, citing_year) key per distinct int key, one int
    object per distinct year across those keys (divmod makes two new ints
    per key), one self-free CellCount per distinct total and one CellCount
    per distinct (total, self) pair with a self share; all are immutable.
    """
    year = _Memo(lambda value: value)  # the first int object seen for each year
    pairs = _Memo(lambda key: (year[key // YEAR_BASE], year[key % YEAR_BASE]))
    clean = _Memo(lambda total: CellCount(total, 0))
    with_self = _Memo(CellCount._make)
    profiles: dict[str, CitationProfile] = {}
    for jid in [*journals]:
        name, totals, selfs = journals.pop(jid)
        if strip_self:
            for key, self_count in selfs.items():
                totals[key] -= self_count
            selfs = {}
        cells = dict(zip(map(pairs.__getitem__, totals), map(clean.__getitem__, totals.values())))
        for key, self_count in selfs.items():
            if self_count:  # a cell reached only by count-0 self rows stays self-free
                cells[pairs[key]] = with_self[totals[key], self_count]
        profiles[name] = CitationProfile(name, cells)
    return profiles


class _Memo(dict):
    """key -> make(key), made on the first lookup only.

    A hit is a C-level dict read, so `map(memo.__getitem__, keys)` runs
    Python only for a key it has not seen.
    """

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


def _fold(
    numbered: Iterable[tuple[int, str]],
    alias_map: AliasMap,
    source: str | None,
    number: int = 0,
) -> tuple[dict[str, _Journal], int, int]:
    """Parse (line number, line) pairs and fold their rows: the one per-row
    loop behind read_citation_profiles and read_citation_file.

    Returns (journals, data rows, last line number), where journals maps
    each cited journal's identity to its record (display name, cell totals,
    cell self counts), the tables keyed by cited_year * YEAR_BASE +
    citing_year.  `number` is the last line number when there are no pairs.

    Each field costs one dict read, keyed by its text as the line holds it:
    a year text maps to its in-range year, a citing name text to its
    identity, a cited name text to its identity and its journal's two
    tables, and a count text (with any line end) to its count, between 0
    and MAX_COUNT.  A row whose five texts are all known only needs its
    year order checked.  Every other row goes through the one full row
    check (_check_row), which either raises or admits the row's texts to
    the caches; iter_citation_records shares it.  A journal's record is
    made at the first row that cites it, on that path, so first-seen order
    and display names are those of build_profiles.  The caches grow with
    the distinct texts, not with the rows; the count cache has no bound, by
    design, since a ledger holds few distinct count texts (9 in the seed-7
    benchmark ledgers ingest-1m and wide-2k, 33 in deep-curves).  A known
    row needs no UTF-8 check: each of its texts came from a line that
    passed check_utf8, and UTF-8 text cut or joined at ASCII commas stays
    UTF-8.
    """
    years: dict[str, int] = {}
    names: dict[str, tuple[str, str]] = {}
    counts: dict[str, int] = {}
    tables: dict[str, tuple[str, dict[int, int], dict[int, int]]] = {}
    journals: dict[str, _Journal] = {}
    rows = 0
    for number, line in numbered:
        try:
            citing_raw, citing_year_s, cited_raw, cited_year_s, count_s = line.split(",")
            citing_id = names[citing_raw][1]
            cited_id, totals, selfs = tables[cited_raw]
            citing_year = years[citing_year_s]
            cited_year = years[cited_year_s]
            count = counts[count_s]
            if citing_year < cited_year:
                raise ValueError  # the full row check below raises the error
        except (ValueError, KeyError):
            row = _check_row(number, line, years, names, counts, alias_map, source)
            if row is None:  # a blank line
                continue
            _, citing_id, citing_year, cited, cited_id, cited_year, count = row
            _, totals, selfs = journals.setdefault(cited_id, (cited, {}, {}))
            # A checked row has five fields, so the split above bound cited_raw.
            tables[cited_raw] = (cited_id, totals, selfs)
        rows += 1
        key = cited_year * YEAR_BASE + citing_year
        totals[key] = totals.get(key, 0) + count
        if citing_id == cited_id:
            selfs[key] = selfs.get(key, 0) + count
    return journals, rows, number


def _merge_journal(journals: dict[str, _Journal], identity: str, record: _Journal) -> None:
    """Add the record of a journal folded from later rows to `journals`, as
    one fold of both parts' rows would: a known journal keeps its display
    name and cell order and adds each count, new cells after its own."""
    merged = journals.setdefault(identity, record)
    if merged is not record:
        for into, part in zip(merged[1:], record[1:]):
            for key, count in part.items():
                into[key] = into.get(key, 0) + count


def read_citation_profiles(
    lines: Iterable[str],
    alias_map: AliasMap = EMPTY_ALIASES,
    source: str | None = None,
    *,
    strip_self: bool = False,
) -> tuple[dict[str, CitationProfile], int]:
    """Parse a citation ledger and fold it into profiles in one streaming pass.

    Returns what `build_profiles(iter_citation_records(...))` returns, plus
    the number of data rows, and raises the same ParseError on the same
    line.  With strip_self, each profile is what strip_self_references
    returns for it, made without building the unstripped one.  Memory grows
    with the number of profile cells and of distinct field texts (names,
    years and counts, which _fold caches), not with the number of rows.
    """
    numbered = _data_lines(lines, CITATIONS_HEADER, source)
    journals, rows, _ = _fold(numbered, alias_map, source)
    return _freeze_profiles(journals, strip_self=strip_self), rows


# read_citation_file cuts a ledger into one byte range per usable CPU, but
# never into ranges shorter than this.  On 2 CPUs, with every field of a
# known row read from a cache, reading criterion 8's rows (CLI `validate`)
# in two processes took 1.06-1.09 of the single stream's time at 1-4 MB,
# 0.96 at 8 MB and 0.63 at 16 MB (medians of 11 alternating runs).  A wide
# ledger (0.84 cells per row) sends far more cells back: at 3.2 MB a
# `report` took 1.08 of the time in two processes, so below 4 MiB it streams.
MIN_SPLIT_BYTES = 2 << 20


def read_citation_file(
    path,
    alias_map: AliasMap = EMPTY_ALIASES,
    *,
    strip_self: bool = False,
) -> tuple[dict[str, CitationProfile], int]:
    """read_citation_profiles (strip_self included) over the ledger file at
    path, opened by open_input; a ParseError names the file by path.

    A file of at least 2 * MIN_SPLIT_BYTES, on a host with os.fork and two or
    more usable CPUs, is cut into up to one byte range per CPU, each at
    least MIN_SPLIT_BYTES long, and the ranges are folded by as many
    processes (parallel.read_ranges); any other file is folded in one
    stream.  Profiles, their order, display names and row count are the same
    either way, and so is the ParseError and its line.  Forking a process
    that runs other threads is unsafe, so a threaded caller should use
    read_citation_profiles.
    """
    with open_input(path) as handle:
        size = os.fstat(handle.fileno()).st_size
        parts = min(_usable_cpus(), size // MIN_SPLIT_BYTES) if hasattr(os, "fork") else 1
        if parts < 2:  # a pipe or other unseekable ledger has size 0 and cannot be pread
            return read_citation_profiles(handle, alias_map, path, strip_self=strip_self)
        from .parallel import read_ranges  # only here, so a stream never compiles it

        offsets = [k * size // parts for k in range(1, parts)]
        journals, rows = read_ranges(handle.fileno(), offsets, alias_map, path)
    return _freeze_profiles(journals, strip_self=strip_self), rows


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # os.sched_getaffinity is not on every platform
        return os.cpu_count() or 1


def find_profile(profiles: dict[str, CitationProfile], name: str) -> CitationProfile | None:
    """Look a journal up by name, comparing journal identities."""
    wanted = journal_identity(name)
    for journal, profile in profiles.items():
        if journal_identity(journal) == wanted:
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
    """Per-volume, per-citing-year self-reference rates of the cells with a self share.

    Any other cell rates zero, and a zero rate never fires SelfCitationSpike
    (its threshold is > 0), so it is not rated.
    """
    rates: dict[int, dict[int, Fraction]] = {}
    for (cited_year, citing_year), cell in profile.cells.items():
        if cell.self_count and cell.total > 0:
            rates.setdefault(cited_year, {})[citing_year] = Fraction(cell.self_count, cell.total)
    return {year: dict(sorted(by_citing.items())) for year, by_citing in sorted(rates.items())}


def strip_self_references(profile: CitationProfile) -> CitationProfile:
    """Return a copy with self-references removed from every cell.

    Idempotent, and never increases any cell total.  Cells without a self
    share are the same (immutable) CellCount objects in the copy, and
    stripped cells with equal totals share one, the copy's own if it has one.
    """
    cells = profile.cells.copy()
    shared = _Memo(lambda total: CellCount(total, 0))
    shared.update((cell.total, cell) for cell in cells.values() if not cell.self_count)
    for key, cell in profile.cells.items():
        if cell.self_count:
            cells[key] = shared[cell.total - cell.self_count]
    return CitationProfile(profile.journal, cells)


def profiles_to_citation_csv(profiles: dict[str, CitationProfile]) -> str:
    """Serialize profiles back to ledger CSV, one row per cell per self split.

    The self share is attributed to the journal itself, the remainder to the
    reserved EXTERNAL_SOURCE name; cells with zero total keep a count-0 row.
    The text is read back as open_input would read its file, so every
    profile with cells reads back exactly or raises CitemetricsError: a row
    the readers refuse, with their reason, or a journal that reads back as
    another profile (a padded name, two profiles of one journal identity).
    """
    lines = [CITATIONS_HEADER]
    for journal in sorted(profiles, key=journal_identity):
        profile = profiles[journal]
        name = profile.journal
        for (cited_year, citing_year) in sorted(profile.cells):
            cell = profile.cells[(cited_year, citing_year)]
            other = cell.total - cell.self_count
            if cell.self_count:
                lines.append(f"{name},{citing_year},{name},{cited_year},{cell.self_count}")
            if other or not cell.total:
                lines.append(f"{EXTERNAL_SOURCE},{citing_year},{name},{cited_year},{other}")
    text = "\n".join(lines) + "\n"
    try:
        read, _ = read_citation_profiles(io.StringIO(text, newline=None))
    except ParseError as exc:  # a row with a line end in its name spans several lines
        rows = [row for row in lines for _ in io.StringIO(row, newline=None)]
        raise CitemetricsError(
            f"the ledger row {rows[exc.line - 1]!r} would not read back: {exc.reason}"
        ) from None
    by_identity = {journal_identity(name): profile for name, profile in read.items()}
    for profile in profiles.values():
        if profile.cells and by_identity[journal_identity(profile.journal)] != profile:
            raise CitemetricsError(
                f"{profile.journal!r}: its ledger rows would not read back as its profile"
            )
    return text
