"""End-to-end oracles for `report`, `adjust` and `curves` over the flags they accept.

Every REPORT_COLUMNS cell, and every row of the `curves` table, is restated
here from the raw CSV text, with Fractions, and nothing is imported from
citemetrics: the CLI runs in process as `python -m citemetrics` runs it, and
what it prints must equal, byte for byte, the table printed from the
restated values, each value as float(Fraction).
"""
from __future__ import annotations

import io
import json
import runpy
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

COLUMNS = {
    "report": ("journal", "eval_year", "jif", "immediacy", "half_life_exact", "half_life_jcr",
               "coverage", "scaling_factor", "adjusted_jif", "class", "flags"),
    "adjust": ("journal", "eval_year", "jif", "coverage", "scaling_factor", "adjusted_jif",
               "class"),
}
# Padded and case-variant spellings of a few journals ("Straße" casefolds to
# "strasse"); "Old Beta" is an alias of beta when the alias file is given, and
# "Epsilon" only ever publishes.
NAMES = ["Alpha", " alpha", "ALPHA ", "Beta", "beta ", "Old Beta", " old BETA", "Straße",
         "STRASSE "]
ALIASES = "alias,canonical\n old beta ,beta \n"
CITATIONS_HEADER = "citing_journal,citing_year,cited_journal,cited_year,count\n"


def identity(name):
    return name.strip().casefold()


def resolve(name, aliases):
    return aliases.get(identity(name), name.strip())


def expected_rows(ledger, pubs, aliases, strip, year, window, horizon, quantile, hare, tortoise):
    """The rows of `report` for `year`: one per cited or publishing journal."""
    names, cells, items = {}, {}, {}  # by identity: display name, cells, items by year
    for citing, cited, cited_year, age, count in ledger:
        citing, cited = resolve(citing, aliases), resolve(cited, aliases)
        names.setdefault(identity(cited), cited)
        table = cells.setdefault(identity(cited), {})
        key = (cited_year, cited_year + age)
        self_cite = strip and identity(citing) == identity(cited)
        table[key] = table.get(key, 0) + (0 if self_cite else count)
    for name, pub_year, count in pubs:
        journal = resolve(name, aliases)
        names.setdefault(identity(journal), journal)
        items.setdefault(identity(journal), {})[pub_year] = count
    return [expected_row(names[key], cells.get(key, {}), items.get(key, {}),
                         year, window, horizon, quantile, hare, tortoise)
            for key in sorted(names)]


def expected_row(journal, cells, items, year, window, horizon, quantile, hare, tortoise):
    flags = set()
    seen = {key: n for key, n in cells.items() if key[1] <= year}  # known as of year
    at_year = {year - cited: n for (cited, citing), n in seen.items() if citing == year}

    def impact(ages):  # citations in year to the volumes `ages` old, per item
        if any(year - age not in items for age in ages):
            flags.add("MissingDenominator")
            return None
        return Fraction(sum(at_year.get(age, 0) for age in ages),
                        sum(items[year - age] for age in ages))

    jif, immediacy = impact(window), impact([0])
    half_life = jcr = None
    total = sum(at_year.values())
    if total:  # each age's citations spread evenly over [age, age + 1)
        running = 0
        for age in sorted(at_year):
            if at_year[age] and running + at_year[age] >= Fraction(total, 2):
                half_life = age + (Fraction(total, 2) - running) / at_year[age]
                break
            running += at_year[age]
        first = min(cited for cited, _ in seen)
        if year - first + 1 < 2 * half_life:
            flags.add("HalfLifeUnreliable")
        jcr = ">10" if half_life > 10 else half_life
    coverage = scaling = adjusted = None
    if seen:  # the ragged mean: age a over the volumes that have reached it
        end = max(citing for _, citing in seen)
        volumes = {cited for cited, _ in seen}
        mean = [Fraction(sum(n for (cited, citing), n in seen.items() if citing - cited == age),
                         sum(end - v >= age for v in volumes))
                for age in range(min(horizon, end - min(volumes)) + 1)]
        if len(mean) > max(window) and sum(mean):
            coverage = sum(mean[age] for age in window) / sum(mean)
    if coverage:
        scaling = quantile / coverage
        adjusted = None if jif is None else jif * scaling
    else:
        flags.add("ZeroWindowCitations")
    group = ("" if coverage is None else "Hare" if coverage >= hare
             else "Tortoise" if coverage <= tortoise else "Intermediate")
    values = [jif, immediacy, half_life, jcr, coverage, scaling, adjusted]
    return {"journal": journal, "eval_year": year,
            **{column: None if v is None else v if isinstance(v, str) else float(v)
               for column, v in zip(COLUMNS["report"][2:9], values)},
            "class": group, "flags": sorted(flags)}


def printed(rows, columns, fmt):
    if fmt == "json":
        return json.dumps([{column: row[column] for column in columns} for row in rows],
                          indent=2) + "\n"

    def cell(column, value):
        if column == "flags":
            return "|".join(value)
        return "" if value is None else value if isinstance(value, str) else repr(value)

    lines = [",".join(columns)]
    lines += [",".join(cell(column, row[column]) for column in columns) for row in rows]
    return "\n".join(lines) + "\n"


def run_cli(argv):
    """The exit code of `python -m citemetrics *argv`, run in this process."""
    saved, sys.argv = sys.argv, ["citemetrics", *argv]
    try:
        runpy.run_module("citemetrics", run_name="__main__")
    except SystemExit as stop:
        return stop.code
    finally:
        sys.argv = saved


ledgers = st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES),
                             st.integers(1995, 2004), st.integers(0, 3) | st.integers(0, 13),
                             st.integers(0, 4)),
                   min_size=1, max_size=20)  # citing, cited, cited year, age, count
# Each journal publishes from a first year on, with the same items each year.
publications = st.lists(st.tuples(st.sampled_from([*NAMES, "Epsilon"]), st.integers(1990, 2005),
                                  st.integers(0, 20), st.integers(1, 9)), max_size=6)
thresholds = st.sampled_from([None, ("0.5", "0.1"), ("1", "0"), ("1/3", "1/4")])


@settings(max_examples=150, deadline=None)
# Coverage 1/6 (Intermediate) and a half-life of 12.5 (">10") in 2007.
@example([("Alpha", "Alpha", 1995, 12, 1), *(("Beta", "Alpha", 2000, age, count)
                                            for age, count in ((1, 1), (2, 1), (3, 4), (4, 4)))],
         [("Alpha", 1995, 20, 3)], False, False, 0, None, None, None, None, "report", "csv")
# A half-life of exactly 10, which is not ">10".
@example([("Alpha", "Alpha", 1994, 10, 2), ("Alpha", "Alpha", 1995, 9, 2)], [], False, False, 0,
         None, None, None, None, "report", "json")
@given(ledgers, publications, st.booleans(), st.booleans(), st.integers(-1, 4),
       st.none() | st.sets(st.integers(0, 3), min_size=1), st.none() | st.integers(0, 4),
       st.sampled_from([None, "1/2", "0.3", "1"]), thresholds,
       st.sampled_from(["report", "adjust"]), st.sampled_from(["csv", "json"]))
def test_cli_matches_oracle(ledger, runs, aliased, strip, back, window, extra, quantile,
                            cutoffs, command, fmt):
    aliases = {"old beta": "beta"} if aliased else {}
    unique = {}  # a repeated (journal, year) publication is an input error
    for name, first, span, count in runs:
        for pub_year in range(first, first + span + 1):
            key = (identity(resolve(name, aliases)), pub_year)
            unique.setdefault(key, (name, pub_year, count))
    pubs = list(unique.values())
    year = max(cited_year + age for _, _, cited_year, age, _ in ledger) - back
    window_given, window = window is not None, sorted(window or (1, 2))
    horizon = 20 if extra is None else window[-1] + extra
    hare, tortoise = cutoffs or ("1/4", "3/20")
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: Path(tmp, f"{name}.csv") for name in ("c", "p", "a", "out")}
        files["c"].write_text(CITATIONS_HEADER + "".join(
            f"{citing},{cited_year + age},{cited},{cited_year},{count}\n"
            for citing, cited, cited_year, age, count in ledger), encoding="utf-8")
        files["p"].write_text("journal,year,citeable_items\n" + "".join(
            f"{name},{pub_year},{count}\n" for name, pub_year, count in pubs), encoding="utf-8")
        files["a"].write_text(ALIASES, encoding="utf-8")
        argv = [command, "--citations", str(files["c"]), "--publications", str(files["p"]),
                "--year", str(year), "-o", str(files["out"])]
        argv += ["--format", "json"] if fmt == "json" else []
        argv += ["--aliases", str(files["a"])] if aliased else []
        argv += ["--strip-self"] if strip else []
        argv += ["--window", ",".join(map(str, window))] if window_given else []
        argv += ["--horizon", str(horizon)] if extra is not None else []
        argv += ["--quantile", quantile] if quantile else []
        argv += ["--hare", hare, "--tortoise", tortoise] if cutoffs else []
        assert run_cli(argv) == 0
        output = files["out"].read_text(encoding="utf-8")
    rows = expected_rows(ledger, pubs, aliases, strip, year, window, horizon,
                         Fraction(quantile or "1/2"), Fraction(hare), Fraction(tortoise))
    assert output == printed(rows, COLUMNS[command], fmt)


def expected_curves(ledger, aliases, strip, journal, horizon):
    """(stdout, stderr skip lines) of `curves journal`, or None for a journal
    the ledger never cites.

    Each volume, a year some row cites, count-0 rows included, prints its raw,
    cumulative and standardized (cumulative * 100 / the count through age 2)
    curve over ages 0..(last citing year - volume); a volume observed only
    through age 0 or 1, or with no citations through age 2, is skipped from
    standardized output.  Then the ragged mean row: age a over the volumes
    old enough to have reached it, through min(horizon, oldest age), with
    those volume counts.
    """
    wanted = identity(resolve(journal, aliases))
    name, cells = None, {}  # the first cited spelling; (volume, age) -> count
    for citing, cited, cited_year, age, count in ledger:
        citing, cited = resolve(citing, aliases), resolve(cited, aliases)
        if identity(cited) == wanted:
            name = name or cited
            self_cite = strip and identity(citing) == wanted
            cells[cited_year, age] = cells.get((cited_year, age), 0) + (0 if self_cite else count)
    if name is None:
        return None
    end = max(year + age for year, age in cells)
    volumes = sorted({year for year, _ in cells})
    lines, skips, standardized = [], [], 0

    def table(year, kind, values, observations=None):
        lines.extend(f"{name},{year},{kind},{age},{float(value)!r},"
                     f"{'' if observations is None else observations[age]}\n"
                     for age, value in enumerate(values))

    for year in volumes:
        raw = [cells.get((year, age), 0) for age in range(end - year + 1)]
        cumulative = list(accumulate(raw))
        table(year, "raw", raw)
        table(year, "cumulative", cumulative)
        if len(cumulative) < 3:
            reason = f"is observed only through age {end - year}"
        elif cumulative[2] == 0:
            reason = "has no citations through age 2"
        else:
            standardized += 1
            table(year, "standardized", [Fraction(100 * n, cumulative[2]) for n in cumulative])
            continue
        skips.append(f"warning: volume {year} {reason}; skipped from standardized output")
    ages = range(min(horizon, end - volumes[0]) + 1)
    counts = [sum(end - year >= age for year in volumes) for age in ages]
    table("", "raw", [Fraction(sum(cells.get((year, age), 0) for year in volumes), counts[age])
                      for age in ages], counts)
    if standardized < 3:
        skips.append(f"warning: {name!r} has {standardized} standardized volumes, fewer than 3; "
                     "AccrualDeviation and SelfCitationSpike tests skipped")
    return "journal,pub_year,kind,age,value,observations\n" + "".join(lines), skips


# Rows cite one of Alpha's spellings more often than another journal, so
# Alpha often has three or more standardizable volumes and the anomaly tests run.
curve_ledgers = st.lists(st.tuples(st.sampled_from(NAMES),
                                   st.sampled_from(NAMES[:3]) | st.sampled_from(NAMES),
                                   st.integers(1998, 2004), st.integers(0, 2) | st.integers(0, 13),
                                   st.integers(0, 4)),
                         min_size=1, max_size=40)  # citing, cited, cited year, age, count


@settings(max_examples=120, deadline=None)
# Three standardizable volumes beside one observed through age 1 (2003) and
# one with no citations through age 2 (1999); a stripped self row; horizon 25
# clamped to the oldest age, 5.
@example([("Beta", "Alpha", 2000, 0, 1), ("Beta", "Alpha", 2000, 4, 3),
          ("Beta", "Alpha", 2001, 1, 2), (" alpha", "Alpha", 2001, 2, 4),
          ("Beta", "ALPHA ", 2002, 0, 5), ("Beta", "Alpha", 2002, 2, 1),
          ("Beta", "Alpha", 2003, 1, 2), ("Alpha", "Alpha", 1999, 1, 0),
          ("Beta", "Alpha", 1999, 3, 2)], False, True, 25, " alpha")
@given(curve_ledgers, st.booleans(), st.booleans(), st.none() | st.integers(0, 25),
       st.sampled_from(NAMES[:3]) | st.sampled_from([*NAMES, " old beta ", "EPSILON"]))
def test_curves_matches_oracle(ledger, aliased, strip, horizon, journal):
    aliases = {"old beta": "beta"} if aliased else {}
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: Path(tmp, f"{name}.csv") for name in ("c", "a")}
        files["c"].write_text(CITATIONS_HEADER + "".join(
            f"{citing},{cited_year + age},{cited},{cited_year},{count}\n"
            for citing, cited, cited_year, age, count in ledger), encoding="utf-8")
        files["a"].write_text(ALIASES, encoding="utf-8")
        argv = ["curves", journal, "--citations", str(files["c"])]
        argv += ["--aliases", str(files["a"])] if aliased else []
        argv += ["--strip-self"] if strip else []
        argv += ["--horizon", str(horizon)] if horizon is not None else []
        stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = run_cli(argv)
    expected = expected_curves(ledger, aliases, strip, journal, 20 if horizon is None else horizon)
    stdout.flush()
    if expected is None:
        assert (code, stdout.buffer.getvalue(), stderr.getvalue()) == (
            2, b"", f"error: unknown journal {journal!r}\n")
        return
    table, skips = expected
    assert code == 0
    assert stdout.buffer.getvalue() == table.encode("utf-8")
    assert [line for line in stderr.getvalue().splitlines()
            if line.startswith("warning: volume ") or "fewer than 3" in line] == skips
