from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from citemetrics import curves as curves_mod
from citemetrics import ledger as ledger_mod
from citemetrics import metrics as metrics_mod
from citemetrics import synth
from citemetrics.cli import ADJUST_COLUMNS, REPORT_COLUMNS, _render_rows, build_parser, main
from citemetrics.ledger import MAX_COUNT
from citemetrics.settings import AnomalyThresholds, ClassificationThresholds, WindowPolicy
from citemetrics.svg import (
    HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, WIDTH, chart_lines,
    emit_svg_chart,
)

from conftest import run_python

HEADER = "citing_journal,citing_year,cited_journal,cited_year,count"


@pytest.fixture()
def hare_dir(tmp_path):
    out = tmp_path / "hare"
    assert main(["synth", "hare", "--outdir", str(out)]) == 0
    return out


@pytest.fixture()
def tortoise_dir(tmp_path):
    out = tmp_path / "tortoise"
    assert main(["synth", "tortoise", "--outdir", str(out)]) == 0
    return out


def run_report(capsys, dirpath, *extra):
    code = main([
        "report",
        "--citations", str(dirpath / "citations.csv"),
        "--publications", str(dirpath / "publications.csv"),
        "--year", "2004",
        *extra,
    ])
    out = capsys.readouterr().out
    assert code == 0
    return out


# --- synth ------------------------------------------------------------------


def test_synth_writes_ledger_files(hare_dir, tortoise_dir):
    for name, outdir in (("hare", hare_dir), ("tortoise", tortoise_dir)):
        first = (outdir / "citations.csv").read_text().splitlines()[0]
        assert first == HEADER
        # Both files read back as the profile and counts the spec generates.
        profile, pubs = synth.generate_profile(synth.fixture_spec(name))
        profiles, _ = ledger_mod.read_citation_file(outdir / "citations.csv")
        assert profiles == {profile.journal: profile}
        with ledger_mod.open_input(outdir / "publications.csv") as handle:
            assert ledger_mod.parse_publication_csv(handle) == pubs


def test_synth_accepts_spec_path(tmp_path):
    spec = tmp_path / "mini.synth"
    spec.write_text(
        "journal = Mini\npub_years = 2000-2004\nkernel = flat:3\n"
        "base_citations = 4\nitems_per_year = 2\nobservation_end = 2004\n"
    )
    assert main(["synth", str(spec), "--outdir", str(tmp_path / "mini")]) == 0
    text = (tmp_path / "mini" / "citations.csv").read_text()
    assert "Mini" in text


def test_synth_spec_bom_and_unknown_key(tmp_path, capsys):
    text = ("journal = Mini\npub_years = 2000-2004\nkernel = flat:3\n"
            "base_citations = 4\nitems_per_year = 2\nobservation_end = 2004\n")
    (tmp_path / "plain.synth").write_text(text, encoding="utf-8")
    (tmp_path / "bom.synth").write_text("\ufeff" + text, encoding="utf-8")
    for name in ("plain", "bom"):
        assert main(["synth", str(tmp_path / f"{name}.synth"),
                     "--outdir", str(tmp_path / name)]) == 0
    for output in ("citations.csv", "publications.csv"):
        assert (tmp_path / "bom" / output).read_bytes() == (
            tmp_path / "plain" / output).read_bytes()
    capsys.readouterr()
    typo = tmp_path / "typo.synth"
    typo.write_text(text + "self_fracton = 2000,0,1/2\n", encoding="utf-8")
    assert main(["synth", str(typo), "--outdir", str(tmp_path / "typo")]) == 2
    assert capsys.readouterr().err == f"error: {typo}:7: unknown key 'self_fracton'\n"
    assert not (tmp_path / "typo").exists()


def test_synth_unknown_spec_is_input_error(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "nope.synth"), "--outdir", str(tmp_path)]) == 2


def test_synth_spec_not_utf8_names_its_line(tmp_path, capsys):
    spec = tmp_path / "bad.synth"
    spec.write_bytes(b"journal = Mini\n# caf\xe9 noir\npub_years = 2000-2004\n")
    assert main(["synth", str(spec), "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {spec}:2: not UTF-8 text (invalid continuation byte)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("char", ["\x0c", "\x85"])
def test_synth_spec_splits_lines_like_csv(tmp_path, capsys, char):
    # Only LF, CRLF and CR end a line in a spec file, as in the CSV inputs;
    # str.splitlines() also splits on a form feed, NEL and U+2028.
    journal = f"Mini{char}Journal"
    lines = [
        "# a comment\u2028that goes on",
        f"journal = {journal}",
        "pub_years = 2000-2004", "kernel = flat:3", "base_citations = 4",
        "items_per_year = 2", "observation_end = 2004",
    ]
    spec = tmp_path / "c1.synth"
    spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["synth", str(spec), "--outdir", str(tmp_path)]) == 0
    assert main(["report", "--citations", str(tmp_path / "citations.csv"),
                 "--publications", str(tmp_path / "publications.csv"),
                 "--year", "2004", "--format", "json"]) == 0
    assert [row["journal"] for row in json.loads(capsys.readouterr().out)] == [journal]
    spec.write_text("\n".join([*lines, "no key here"]) + "\n", encoding="utf-8")
    assert main(["synth", str(spec), "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {spec}:8: expected 'key = value'\n"


def test_synth_rejects_reserved_journal_name(tmp_path, capsys):
    # The ledger writer attributes non-self citations to "(external)", so a
    # journal of that name would read back as citing only itself.
    spec = tmp_path / "ext.synth"
    spec.write_text(
        "journal = (External)\npub_years = 2000-2004\nkernel = flat:3\n"
        "base_citations = 4\nitems_per_year = 2\nobservation_end = 2004\n"
    )
    assert main(["synth", str(spec), "--outdir", str(tmp_path / "out")]) == 2
    assert "'(external)' is reserved" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _years_spec(path, pub_years, end):
    path.write_text(f"journal = J\npub_years = {pub_years}\nkernel = flat:5\n"
                    f"base_citations = 10\nitems_per_year = 2\nobservation_end = {end}\n")
    return str(path)


@pytest.mark.parametrize("pub_years, end, line", [("9995-9999", 10010, 6),
                                                  ("995-1000", 1004, 2)],
                         ids=["past-9999", "before-1000"])
def test_synth_refuses_years_its_readers_reject(tmp_path, capsys, pub_years, end, line):
    # The ledger readers take years 1000..9999 only, so synth refuses a spec
    # whose volumes or citing years would leave that range, and writes nothing.
    spec = _years_spec(tmp_path / "years.synth", pub_years, end)
    out = tmp_path / "out"
    assert main(["synth", spec, "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {spec}:{line}: pub_years and observation_end must be in 1000..9999\n")
    assert not out.exists()


@pytest.mark.parametrize("old, new, error", [
    ("= 10\n", "= 0\n", "4: base_citations must be positive"),
    ("= 2000\n", "= 2000\nspike = 1999,1,3\n", "7: spike 1999,1,3 needs a year in pub_years"),
    ("= 2000\n", "= 2000\n# a note\nvolume_scale = 1990,1\nvolume_scale = 1991,0\n",
     "9: volume_scale 1991,0 needs a year in pub_years"),
    ("flat:5", "wavelet:3", "3: bad value for 'kernel': unrecognized kernel"),
    ("= 10\n", "= 1/0\n", "4: bad value for 'base_citations': zero denominator in '1/0'"),
    ("1990-1995", "1990-", "2: bad value for 'pub_years'"),
], ids=["scalar", "spike", "volume-scale", "kernel-text", "zero-denominator", "open-years"])
def test_synth_error_names_the_line_of_the_value(tmp_path, capsys, old, new, error):
    # A value that does not parse, or that the spec's checks refuse, is an
    # error at the line that gives it; only a missing key has no line (line 0).
    path = tmp_path / "spec.synth"
    spec = _years_spec(path, "1990-1995", 2000)
    path.write_text(path.read_text().replace(old, new))
    assert main(["synth", spec, "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {spec}:{error}")


def test_synth_takes_years_at_the_bounds(tmp_path):
    out = tmp_path / "out"
    spec = _years_spec(tmp_path / "years.synth", "1000-1004", 9999)
    assert main(["synth", spec, "--outdir", str(out)]) == 0
    assert main(["validate", "--citations", str(out / "citations.csv"),
                 "--publications", str(out / "publications.csv")]) == 0


# --- report -------------------------------------------------------------------


def test_report_csv_row(capsys, hare_dir):
    out = run_report(capsys, hare_dir)
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    row = rows[0]
    assert row["journal"] == "Hare"
    assert float(row["jif"]) == pytest.approx(0.2)
    assert row["class"] == "Hare"


def test_report_tortoise_half_life_token(capsys, tortoise_dir):
    out = run_report(capsys, tortoise_dir)
    row = next(csv.DictReader(out.splitlines()))
    assert row["half_life_jcr"] == ">10"
    out_json = run_report(capsys, tortoise_dir, "--format", "json")
    assert json.loads(out_json)[0]["half_life_jcr"] == ">10"


# sha256 of stdout for each fixture's ledger at --year 2004, captured before
# the CLI lost its config layer and the report its second serializer.
GOLDEN_REPORTS = [
    ("hare", ["report"], "dbf0038f8f4634860adbd4244700bb53443fd605efab9f0bbfea055c85195466"),
    ("hare", ["report", "--format", "json"],
     "78f3d4435293f831961b6c880466faf83a505d2979e006d57d222b14237852c8"),
    ("hare", ["adjust", "--strip-self"],
     "69ccaa4285228748d080b59387acac433c002df16b3c75390d2bb1cfa489330d"),
    ("tortoise", ["report"], "046945242e9f89f063c0e70a7a7adcb170289176bb558069db2ed71a003d5ada"),
    ("tortoise", ["report", "--format", "json"],
     "22a71ee669a5627c4d27a2646e6a6073facfc7ee69da60712fffd1ebe36d282a"),
    ("tortoise", ["adjust", "--strip-self"],
     "46f68c444a0797d3c6d0a93ef5631fd56dd47f84d4d01d91a9b94b7d3e172a60"),
]


@pytest.mark.parametrize(
    "fixture,command,digest", GOLDEN_REPORTS,
    ids=[f"{f}-{'-'.join(a.lstrip('-') for a in c)}" for f, c, _ in GOLDEN_REPORTS],
)
def test_report_golden_bytes(request, capsys, fixture, command, digest):
    dirpath = request.getfixturevalue(f"{fixture}_dir")
    code = main([
        command[0],
        "--citations", str(dirpath / "citations.csv"),
        "--publications", str(dirpath / "publications.csv"),
        "--year", "2004",
        *command[1:],
    ])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# sha256 of `curves` stdout for each fixture's ledger, captured before the
# mean row came from the same per-age integer sums as reports.
GOLDEN_CURVES = [
    ("hare", ["--horizon", "0"],
     "d8d932845a6360a13c05e0254957005ca6a96499d76229e7aceffa44d7501fb5"),
    ("hare", ["--horizon", "20"],
     "ed8a81f1969a11ca2c4e1628084494189daa69c1bd32801ef9017f9f54ab8390"),
    ("hare", ["--horizon", "400"],
     "ed8a81f1969a11ca2c4e1628084494189daa69c1bd32801ef9017f9f54ab8390"),
    ("hare", ["--horizon", "20", "--strip-self"],
     "ccb43754ccc63b66c483a8398f5592e8880500974603a421ebcfd25ea9a5fed0"),
    ("tortoise", ["--horizon", "0"],
     "653dbb349b2ee0afef039395293e5f84c094451ededecc3b40591d78ae9a7cc8"),
    ("tortoise", ["--horizon", "20"],
     "0dbbc8c04ccb713c08528c7f451c746bc7787bed02edc84772cdd5d3801cdc25"),
    ("tortoise", ["--horizon", "400"],
     "0dbbc8c04ccb713c08528c7f451c746bc7787bed02edc84772cdd5d3801cdc25"),
    ("tortoise", ["--horizon", "20", "--strip-self"],
     "0dbbc8c04ccb713c08528c7f451c746bc7787bed02edc84772cdd5d3801cdc25"),
]


@pytest.mark.parametrize(
    "fixture,extra,digest", GOLDEN_CURVES,
    ids=[f"{f}-{'-'.join(a.lstrip('-') for a in e)}" for f, e, _ in GOLDEN_CURVES],
)
def test_curves_golden_bytes(request, capsys, fixture, extra, digest):
    dirpath = request.getfixturevalue(f"{fixture}_dir")
    code = main(["curves", fixture, "--citations", str(dirpath / "citations.csv"), *extra])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_curves_observes_the_journal_once(monkeypatch, capsys, hare_dir):
    # The volume curves and the mean row reduce one observation of the journal.
    calls = []
    observe = curves_mod.observe
    monkeypatch.setattr(curves_mod, "observe", lambda *a: calls.append(a) or observe(*a))
    assert main(["curves", "hare", "--citations", str(hare_dir / "citations.csv")]) == 0
    assert len(calls) == 1
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_CURVES[1][2]


def test_report_as_of_year_matches_cut_ledger(tmp_path, capsys, hare_dir, tortoise_dir):
    # Both fixture ledgers run through 2004.  Each table for year Y uses only
    # the citations made through Y: it is the table of the ledger cut there.
    def table(dirpath, command, citations, year, *extra):
        code = main([command, "--citations", str(citations),
                     "--publications", str(dirpath / "publications.csv"),
                     "--year", str(year), *extra])
        assert code == 0
        return capsys.readouterr().out

    cut = tmp_path / "cut.csv"
    for dirpath in (hare_dir, tortoise_dir):
        header, *rows = (dirpath / "citations.csv").read_text().splitlines()
        for year in range(1984, 2005):
            kept = [row for row in rows if int(row.split(",")[1]) <= year]
            cut.write_text("\n".join([header, *kept]) + "\n")
            for command in ("report", "adjust"):
                for extra in ([], ["--strip-self"], ["--format", "json"]):
                    whole = table(dirpath, command, dirpath / "citations.csv", year, *extra)
                    assert whole == table(dirpath, command, cut, year, *extra), (
                        dirpath.name, year, command, extra)
    row = next(csv.DictReader(table(hare_dir, "report", hare_dir / "citations.csv", 1990)
                              .splitlines()))
    assert row["coverage"] == "0.4215686274509804"
    assert row["scaling_factor"] == "1.186046511627907"
    assert row["adjusted_jif"] == "0.2372093023255814"


def test_report_on_folded_ledger_is_unchanged(tmp_path, capsys, hare_dir, tortoise_dir):
    # Folding a ledger to one row per cell, self counts kept, changes no
    # report.  The fixtures are written folded, so each ledger L here spreads
    # a fixture: after its first row, the rows come in reverse order and each
    # count of 2 or more is split over two rows, the second one with padded,
    # case-changed names.
    ledger, folded = tmp_path / "ledger.csv", tmp_path / "folded.csv"
    for dirpath in (hare_dir, tortoise_dir):
        header, first, *rows = (dirpath / "citations.csv").read_text().splitlines()
        spread = [header, first]
        for row in reversed(rows):
            citing, citing_year, cited, cited_year, count = row.split(",")
            half = int(count) // 2
            spread.append(f"{citing},{citing_year},{cited},{cited_year},{int(count) - half}")
            if half:
                spread.append(f" {citing.upper()} ,{citing_year}, {cited.lower()} ,"
                              f"{cited_year},{half}")
        ledger.write_text("\n".join(spread) + "\n", encoding="utf-8")
        with open(ledger, encoding="utf-8") as handle:
            profiles, count = ledger_mod.read_citation_profiles(handle)
        folded.write_text(ledger_mod.profiles_to_citation_csv(profiles), encoding="utf-8")
        assert len(folded.read_text().splitlines()) < count
        for extra in ([], ["--strip-self"], ["--window", "0,1,2", "--horizon", "10"]):
            outs = []
            for citations in (ledger, folded):
                code = main(["report", "--citations", str(citations), "--publications",
                             str(dirpath / "publications.csv"), "--year", "2004", *extra])
                assert code == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], (dirpath.name, extra)


def test_report_scales_with_every_count(tmp_path, capsys, hare_dir, tortoise_dir):
    # Multiplying every count by k leaves the shares unchanged (coverage,
    # scaling factor, class, half-lives, flags) and multiplies the per-item
    # rates (jif, immediacy, adjusted_jif) by exactly k.
    k, scaled = 3, tmp_path / "scaled.csv"
    same = ("coverage", "scaling_factor", "class", "half_life_exact", "half_life_jcr", "flags")
    times_k = ("jif", "immediacy", "adjusted_jif")
    for dirpath in (hare_dir, tortoise_dir):
        header, *rows = (dirpath / "citations.csv").read_text().splitlines()
        scaled.write_text("\n".join([header, *(
            f"{head},{int(count) * k}" for head, count in (row.rsplit(",", 1) for row in rows)
        )]) + "\n")
        publications = dirpath / "publications.csv"
        with open(publications, encoding="utf-8") as handle:
            pubs = ledger_mod.parse_publication_csv(handle)
        for year in (1990, 2004):
            json_rows, reports = [], []
            for citations in (dirpath / "citations.csv", scaled):
                assert main(["report", "--citations", str(citations), "--publications",
                             str(publications), "--year", str(year), "--format", "json"]) == 0
                (row,) = json.loads(capsys.readouterr().out)
                json_rows.append(row)
                with open(citations, encoding="utf-8") as handle:
                    (profile,) = ledger_mod.read_citation_profiles(handle)[0].values()
                reports.append(metrics_mod.build_indicator_report(profile, pubs, year))
            base, big = json_rows
            assert [base[key] for key in same] == [big[key] for key in same], (dirpath, year)
            assert base["coverage"] is not None
            for key in times_k:
                assert getattr(reports[1], key) == k * getattr(reports[0], key), key
                assert getattr(reports[0], key) > 0


def test_report_csv_cells_match_json(tmp_path, capsys, tortoise_dir):
    # Tortoise has ">10" and one flag; J has blank cells and three flags.
    citations = tmp_path / "c.csv"
    citations.write_text(
        (tortoise_dir / "citations.csv").read_text() + "A,2004,J,2003,5\nA,2004,J,2004,1\n"
    )
    publications = tortoise_dir / "publications.csv"
    args = ["--citations", str(citations), "--publications", str(publications),
            "--year", "2004"]
    for command in ("report", "adjust"):
        assert main([command, *args]) == 0
        csv_out = capsys.readouterr().out
        assert main([command, *args, "--format", "json"]) == 0
        json_rows = json.loads(capsys.readouterr().out)
        header, *lines_out = csv_out.splitlines()
        assert len(lines_out) == len(json_rows) == 2
        for line, json_row in zip(lines_out, json_rows):
            assert header.split(",") == list(json_row)
            for cell, (key, value) in zip(line.split(","), json_row.items()):
                if key == "flags":
                    assert cell == "|".join(value)
                elif value is None:
                    assert cell == ""
                elif isinstance(value, float):
                    assert cell == repr(value)
                else:
                    assert cell == str(value)
    assert json_rows[0]["journal"] == "J" and json_rows[0]["jif"] is None
    assert json_rows[1]["journal"] == "Tortoise"
    assert main(["report", *args, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["flags"] == [
        "HalfLifeUnreliable", "MissingDenominator", "ZeroWindowCitations"
    ]
    assert rows[1]["half_life_jcr"] == ">10"


def test_report_window_sets_jif_and_coverage(capsys, tortoise_dir):
    # The 5-year JIF: citations in 2004 at ages 1-5 over the items of 1999-2003.
    with open(tortoise_dir / "citations.csv", newline="") as handle:
        cited = sum(int(r["count"]) for r in csv.DictReader(handle)
                    if r["citing_year"] == "2004" and 1999 <= int(r["cited_year"]) <= 2003)
    with open(tortoise_dir / "publications.csv", newline="") as handle:
        items = sum(int(r["citeable_items"]) for r in csv.DictReader(handle)
                    if 1999 <= int(r["year"]) <= 2003)
    out = run_report(capsys, tortoise_dir, "--window", "1,2,3,4,5", "--format", "json")
    row = json.loads(out)[0]
    assert row["jif"] == float(Fraction(cited, items))
    assert round(row["jif"], 4) == 1.4013
    assert row["adjusted_jif"] == pytest.approx(row["jif"] * row["scaling_factor"], rel=1e-12)
    assert round(row["adjusted_jif"], 4) == 4.2495
    default = json.loads(run_report(capsys, tortoise_dir, "--format", "json"))[0]
    assert default["jif"] == 1.3
    assert row["coverage"] > default["coverage"]


@pytest.mark.parametrize("fixture", ["hare", "tortoise"])
def test_report_quantile_moves_only_scaling(request, capsys, fixture):
    dirpath = request.getfixturevalue(f"{fixture}_dir")
    default = json.loads(run_report(capsys, dirpath, "--format", "json"))[0]
    ninety = json.loads(run_report(capsys, dirpath, "--quantile", "0.9", "--format", "json"))[0]
    changed = {key for key in default if default[key] != ninety[key]}
    assert changed == {"scaling_factor", "adjusted_jif"}
    assert ninety["scaling_factor"] == pytest.approx(default["scaling_factor"] * 9 / 5)


# What metrics._row_dict and the class put in a row: str, the int
# eval_year, finite floats or None (">10" too for half_life_jcr) and flags.
json_names = st.one_of(st.text(max_size=8), st.sampled_from(
    ["Zeitschrift für Physik", "物理学报", 'Quote " and \\ slash', "tab\tnew\nline", "\x7f\u2028"]))
json_floats = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([1e16, 5e-324, 2.2250738585072014e-308 / 3, 0.1]))
json_rows = st.fixed_dictionaries({
    "journal": json_names,
    "eval_year": st.integers(ledger_mod.YEAR_MIN, ledger_mod.YEAR_MAX),
    **{name: json_floats for name in metrics_mod._RATIO_FIELDS},
    "half_life_jcr": st.one_of(json_floats, st.just(">10")),
    "class": st.sampled_from(["", "Hare", "Tortoise", "Intermediate"]),
    "flags": st.lists(st.one_of(json_names, st.sampled_from(
        [metrics_mod.FLAG_HALF_LIFE_UNRELIABLE, metrics_mod.FLAG_MISSING_DENOMINATOR])),
        max_size=3),
})


def csv_reference(rows, columns):
    """The header line, then each row's values: the flags joined by "|", and
    every other value as "" for None, the str itself or its repr."""
    def cell(column, value):
        if column == "flags":
            return "|".join(value)
        return "" if value is None else value if isinstance(value, str) else repr(value)

    lines = [",".join(columns)]
    lines += [",".join(cell(column, row[column]) for column in columns) for row in rows]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("columns, fmt", [
    (REPORT_COLUMNS, "json"), (ADJUST_COLUMNS, "json"),
    (REPORT_COLUMNS, "csv"), (ADJUST_COLUMNS, "csv"),
], ids=["report", "adjust", "report-csv", "adjust-csv"])
@example(rows=[])
@given(rows=st.lists(json_rows, max_size=4))
def test_json_rows_match_json_dumps(columns, fmt, rows):
    rows = [{column: row[column] for column in columns} for row in rows]
    expected = (json.dumps(rows, indent=2) + "\n" if fmt == "json"
                else csv_reference(rows, columns))
    assert _render_rows(rows, columns, fmt) == expected


def test_report_csv_json_field_equality(capsys, hare_dir):
    csv_out = run_report(capsys, hare_dir)
    json_out = run_report(capsys, hare_dir, "--format", "json")
    csv_row = next(csv.DictReader(csv_out.splitlines()))
    json_row = json.loads(json_out)[0]
    for key, json_value in json_row.items():
        cell = csv_row[key]
        if key == "flags":
            assert sorted(filter(None, cell.split("|"))) == json_value
        elif json_value is None:
            assert cell == ""
        elif isinstance(json_value, float):
            assert float(cell) == json_value
        else:
            assert cell == str(json_value)


def test_report_reruns_byte_identical(capsys, hare_dir):
    assert run_report(capsys, hare_dir) == run_report(capsys, hare_dir)


def test_report_strip_self_never_increases_jif(capsys, hare_dir):
    plain = next(csv.DictReader(run_report(capsys, hare_dir).splitlines()))
    stripped = next(csv.DictReader(
        run_report(capsys, hare_dir, "--strip-self").splitlines()
    ))
    assert float(stripped["jif"]) <= float(plain["jif"])


def test_report_empty_ledger(tmp_path, capsys):
    citations = tmp_path / "c.csv"
    citations.write_text(HEADER + "\n")
    assert main(["report", "--citations", str(citations), "--year", "2004"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1  # header only


def test_report_missing_denominator_flagged_not_fatal(tmp_path, capsys):
    citations = tmp_path / "c.csv"
    citations.write_text(HEADER + "\nA,2004,B,2003,5\nA,2004,B,1984,1\n")
    assert main(["report", "--citations", str(citations), "--year", "2004"]) == 0
    row = next(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert row["jif"] == ""
    assert "MissingDenominator" in row["flags"]


def test_report_parse_error_names_line(tmp_path, capsys):
    citations = tmp_path / "c.csv"
    rows = [HEADER] + ["A,2004,B,2003,1"] * 5 + ["A,2001,B,2003,1"]
    citations.write_text("\n".join(rows) + "\n")
    code = main(["report", "--citations", str(citations), "--year", "2004"])
    assert code == 2
    assert ":7:" in capsys.readouterr().err


@pytest.mark.parametrize("too_big", [MAX_COUNT + 1, 10**400], ids=["bound+1", "401-digit"])
def test_count_above_bound_is_input_error(tmp_path, capsys, too_big):
    # A 401-digit count once went through validate and crashed report and
    # curves converting it to a float.
    citations = tmp_path / "c.csv"
    rows = [HEADER, "A,2004,B,2003,1", "A,2004,B,2004,2", f"A,2004,B,2003,{too_big}"]
    citations.write_text("\n".join(rows) + "\n")
    path = str(citations)
    for argv in (["validate", "--citations", path],
                 ["report", "--citations", path, "--year", "2004"],
                 ["curves", "B", "--citations", path]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:4: count must be at most {MAX_COUNT}\n"


def test_count_at_bound_is_accepted(tmp_path, capsys):
    citations = tmp_path / "c.csv"
    rows = [HEADER, "A,2004,B,2003,1", f"A,2004,B,2004,{MAX_COUNT}", "A,2004,B,2002,3"]
    citations.write_text("\n".join(rows) + "\n")
    path = str(citations)
    assert main(["validate", "--citations", path]) == 0
    assert capsys.readouterr().out == f"{path}: 3 records\n"
    assert main(["report", "--citations", path, "--year", "2004", "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    # Half of all 2**53 + 4 citations accrue early in age 0.
    assert row["half_life_exact"] == (MAX_COUNT + 4) / (2 * MAX_COUNT)
    assert main(["curves", "B", "--citations", path]) == 0
    assert f",{float(MAX_COUNT)!r}," in capsys.readouterr().out


def test_synth_refuses_counts_above_bound(tmp_path, capsys):
    # Every ledger synth writes must read back.
    spec = tmp_path / "big.synth"
    spec.write_text("journal = Big\npub_years = 1990-1999\nkernel = flat:5\n"
                    "base_citations = 100000000000000000000\nitems_per_year = 10\n"
                    "observation_end = 1999\n")
    out = tmp_path / "out"
    assert main(["synth", str(spec), "--outdir", str(out)]) == 2
    assert f"would not read back: count must be at most {MAX_COUNT}" in capsys.readouterr().err
    assert not out.exists()


def test_report_config_error_exit_3(tmp_path, capsys):
    citations = tmp_path / "c.csv"
    citations.write_text(HEADER + "\n")
    args = ["report", "--citations", str(citations), "--year", "2004"]
    assert main(args + ["--quantile", "0"]) == 3
    # Below the smallest normal float, the scaling columns would print 0.0.
    assert main(args + ["--quantile", "1e-400"]) == 3
    assert capsys.readouterr().err.endswith(
        "error: target_quantile must be at least 2.2250738585072014e-308\n")
    assert main(args + ["--hare", "0.1", "--tortoise", "0.2"]) == 3
    assert main(args + ["--nonsense"]) == 3


@pytest.mark.parametrize("extra, code, error", [
    (["--quantile", "abc"], 3, "not a number: 'abc'"),
    (["--window", "1,x"], 3, "expected comma-separated ages: '1,x'"),
    (["--aliases", "{aliases}"], 2, "aliases.csv:2: alias and canonical must be non-empty"),
], ids=["quantile", "window", "alias"])
def test_report_names_a_bad_value(tmp_path, capsys, extra, code, error):
    citations = tmp_path / "c.csv"
    citations.write_text(HEADER + "\n")
    aliases = tmp_path / "aliases.csv"
    aliases.write_text("alias,canonical\n ,Beta\n")
    args = ["report", "--citations", str(citations), "--year", "2004"]
    assert main(args + [arg.format(aliases=aliases) for arg in extra]) == code
    assert capsys.readouterr().err.endswith(f"{error}\n")


def test_config_errors_precede_io(capsys):
    # Bad flags exit 3 even though the ledger does not exist; alone, the
    # missing file is an input error.
    assert main(["curves", "Hare", "--citations", "missing.csv",
                 "--deviation-threshold", "0"]) == 3
    assert main(["report", "--citations", "missing.csv", "--year", "2004",
                 "--hare", "0.1"]) == 3
    assert main(["report", "--citations", "missing.csv", "--year", "2004",
                 "--window", "3", "--horizon", "2"]) == 3
    assert main(["adjust", "--citations", "missing.csv", "--year", "2004",
                 "--quantile", "1e-400"]) == 3
    # Coverage lies in [0, 1]: thresholds outside it would class every journal alike.
    assert main(["report", "--citations", "missing.csv", "--year", "2004",
                 "--hare", "2", "--tortoise", "-1"]) == 3
    assert "missing.csv" not in capsys.readouterr().err
    assert main(["report", "--citations", "missing.csv", "--year", "2004"]) == 2
    assert main(["curves", "Hare", "--citations", "missing.csv"]) == 2


@pytest.mark.parametrize("command", ["report", "adjust"])
def test_year_must_have_four_digits(capsys, hare_dir, command):
    # A year outside 1000..9999 (a typo such as 204) is a config error, before any read.
    for year in ("999", "204", "10000", "99999", "-2004"):
        assert main([command, "--citations", "missing.csv", "--year", year]) == 3
        assert capsys.readouterr().err == "error: year must be in 1000..9999\n"
    for year in ("1000", "9999"):
        assert main([command, "--citations", str(hare_dir / "citations.csv"),
                     "--publications", str(hare_dir / "publications.csv"), "--year", year]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(f"Hare,{year},")


def test_report_output_file(tmp_path, hare_dir):
    target = tmp_path / "report.csv"
    code = main([
        "report", "--citations", str(hare_dir / "citations.csv"),
        "--publications", str(hare_dir / "publications.csv"),
        "--year", "2004", "-o", str(target),
    ])
    assert code == 0
    assert target.read_text().startswith("journal,")


def test_stdout_is_utf8_whatever_the_locale(tmp_path):
    # Under an ASCII stdout encoding, a journal name outside ASCII still
    # prints, and stdout holds the bytes -o writes; validate prints a file
    # name outside ASCII as UTF-8 too.
    journal = "Zeitschrift für X"
    citations, publications = tmp_path / "c.csv", tmp_path / "p.csv"
    citations.write_text(HEADER + "".join(
        f"\nOther,{year + age},{journal},{year},{age + 1}"
        for year in (2000, 2001, 2002) for age in range(3)) + "\n", encoding="utf-8")
    publications.write_text(f"journal,year,citeable_items\n{journal},2002,10\n"
                            f"{journal},2003,10\n", encoding="utf-8")
    output = tmp_path / "out.txt"
    for argv in (["report", "--citations", str(citations), "--publications", str(publications),
                  "--year", "2004"],
                 ["curves", journal, "--citations", str(citations)]):
        to_file = run_python("-m", "citemetrics", *argv, "-o", str(output),
                             env={"PYTHONIOENCODING": "ascii"}, text=False)
        to_stdout = run_python("-m", "citemetrics", *argv,
                               env={"PYTHONIOENCODING": "ascii"}, text=False)
        assert (to_file.returncode, to_stdout.returncode) == (0, 0), to_stdout.stderr
        assert to_stdout.stdout == output.read_bytes()
        assert f"\n{journal},".encode("utf-8") in to_stdout.stdout
    named = tmp_path / f"{journal}.csv"
    named.write_bytes(citations.read_bytes())
    done = run_python("-m", "citemetrics", "validate", "--citations", str(named),
                      env={"PYTHONIOENCODING": "ascii"}, text=False)
    assert (done.returncode, done.stdout) == (0, f"{named}: 9 records\n".encode("utf-8"))


# --- adjust ---------------------------------------------------------------------


def test_adjust_restricts_columns(capsys, hare_dir):
    code = main([
        "adjust", "--citations", str(hare_dir / "citations.csv"),
        "--publications", str(hare_dir / "publications.csv"), "--year", "2004",
    ])
    assert code == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "journal,eval_year,jif,coverage,scaling_factor,adjusted_jif,class"


# --- curves ----------------------------------------------------------------------


def test_curves_emits_all_kinds_and_mean(capsys, hare_dir):
    code = main(["curves", "Hare", "--citations", str(hare_dir / "citations.csv")])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    kinds = {(r["kind"], r["pub_year"] == "") for r in rows}
    assert ("raw", False) in kinds
    assert ("cumulative", False) in kinds
    assert ("standardized", False) in kinds
    assert ("raw", True) in kinds  # the ragged mean
    mean_rows = [r for r in rows if r["pub_year"] == ""]
    assert all(r["observations"] for r in mean_rows)


def test_curves_unknown_journal_exit_2(capsys, hare_dir):
    assert main(["curves", "nope", "--citations", str(hare_dir / "citations.csv")]) == 2


def test_curves_journal_lookup_case_insensitive(capsys, hare_dir):
    assert main(["curves", "hArE", "--citations", str(hare_dir / "citations.csv")]) == 0


def test_curves_journal_name_goes_through_aliases(tmp_path, capsys):
    citations = tmp_path / "c.csv"
    citations.write_text(HEADER + "\nX,2000,Old J,2000,3\nX,2001,Old J,2000,5\n")
    aliases = tmp_path / "a.csv"
    aliases.write_text("alias,canonical\nOld J,New J\n")
    outputs = []
    for name in ("Old J", "New J"):
        assert main(["curves", name, "--citations", str(citations),
                     "--aliases", str(aliases)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "New J,2000,raw,1,5.0," in outputs[0]


def test_curves_single_volume_mean_equals_that_volume(tmp_path, capsys):
    citations = tmp_path / "c.csv"
    citations.write_text(
        HEADER + "\nX,2000,Solo,2000,3\nX,2001,Solo,2000,5\nX,2002,Solo,2000,4\n"
    )
    assert main(["curves", "Solo", "--citations", str(citations)]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    volume = [r["value"] for r in rows if r["kind"] == "raw" and r["pub_year"] == "2000"]
    mean = [r["value"] for r in rows if r["pub_year"] == ""]
    assert volume == mean == ["3.0", "5.0", "4.0"]


def test_curves_svg(tmp_path, capsys, hare_dir):
    target = tmp_path / "hare.svg"
    code = main([
        "curves", "Hare", "--citations", str(hare_dir / "citations.csv"),
        "--svg", str(target),
    ])
    assert code == 0
    text = target.read_text()
    assert text.count("<polyline") == 19  # volumes 1984-2002 standardize
    first = text
    main(["curves", "Hare", "--citations", str(hare_dir / "citations.csv"),
          "--svg", str(target)])
    assert target.read_text() == first


def test_curves_svg_without_standardizable_volume_writes_nothing(tmp_path, capsys):
    citations = tmp_path / "c.csv"
    citations.write_text(HEADER + "\nX,2004,Young,2003,1\nX,2004,Young,2004,1\n")
    output, chart = tmp_path / "curves.csv", tmp_path / "young.svg"
    base = ["curves", "Young", "--citations", str(citations), "--svg", str(chart)]
    for argv in (base, [*base, "-o", str(output)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has no standardizable volumes" in captured.err
        assert not output.exists() and not chart.exists()


def test_curves_unwritable_svg_writes_no_table(tmp_path, capsys, hare_dir):
    output, chart = tmp_path / "curves.csv", tmp_path / "no" / "such" / "dir" / "hare.svg"
    base = ["curves", "Hare", "--citations", str(hare_dir / "citations.csv"),
            "--svg", str(chart)]
    for argv in (base, [*base, "-o", str(output)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: [Errno 2]")
        assert "SelfCitationSpike" not in captured.err
        assert not output.exists() and not chart.exists()


def test_curves_unwritable_output_keeps_chart(tmp_path, capsys, hare_dir):
    # The chart is written and freed before the table is built, so a bad
    # --output fails after the chart exists.
    output, chart = tmp_path / "no" / "such" / "dir" / "curves.csv", tmp_path / "hare.svg"
    assert main(["curves", "Hare", "--citations", str(hare_dir / "citations.csv"),
                 "--svg", str(chart), "-o", str(output)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: [Errno 2]")
    assert not output.exists()
    assert main(["curves", "Hare", "--citations", str(hare_dir / "citations.csv"),
                 "--svg", str(tmp_path / "again.svg")]) == 0
    assert chart.read_bytes() == (tmp_path / "again.svg").read_bytes()


STRIP_SKIPS_SPIKES = "warning: --strip-self removes self-citations; SelfCitationSpike test skipped"


def test_curves_strip_self_restores_consistency(capsys, hare_dir):
    main(["curves", "Hare", "--citations", str(hare_dir / "citations.csv")])
    plain_err = capsys.readouterr().err
    main(["curves", "Hare", "--citations", str(hare_dir / "citations.csv"),
          "--strip-self"])
    stripped_err = capsys.readouterr().err
    assert "SelfCitationSpike" in plain_err
    assert "AccrualDeviation" in plain_err
    # The stripped profile has no self-citations, so the spike test is
    # skipped, and said to be.
    assert STRIP_SKIPS_SPIKES in stripped_err.splitlines()
    assert "SelfCitationSpike in volume" not in stripped_err
    assert "AccrualDeviation" not in stripped_err


def test_curves_strip_self_warns_before_findings(tmp_path, capsys):
    spec = tmp_path / "golden.synth"
    spec.write_text(GOLDEN_SPEC)
    assert main(["synth", str(spec), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["curves", "golden", "--citations", str(tmp_path / "citations.csv"),
                 "--strip-self"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines.count(STRIP_SKIPS_SPIKES) == 1
    findings = [line for line in lines if " in volume " in line]
    assert findings and all("AccrualDeviation" in line for line in findings)
    assert lines.index(STRIP_SKIPS_SPIKES) < lines.index(findings[0])


def test_curves_horizon_needs_no_window(capsys, hare_dir):
    citations = str(hare_dir / "citations.csv")
    assert main(["curves", "Hare", "--citations", citations, "--horizon", "1"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["age"] for r in rows if r["pub_year"] == ""] == ["0", "1"]
    assert main(["curves", "Hare", "--citations", citations, "--horizon", "0"]) == 0
    capsys.readouterr()
    assert main(["curves", "Hare", "--citations", citations, "--horizon", "-1"]) == 3
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("strip", [False, True])
@pytest.mark.parametrize("horizon", [0, 5, 20, 40])
@pytest.mark.parametrize("fixture", ["hare", "tortoise"])
def test_curves_mean_row_is_journal_mean_curve(request, capsys, fixture, horizon, strip):
    # The mean row is curves.as_of_mean of the observation the volume curves
    # come from; it must equal the report layer's journal_mean_curve.  Both
    # fixtures' oldest age is 20, so horizon 40 is clamped.
    citations = request.getfixturevalue(f"{fixture}_dir") / "citations.csv"
    flags = ["--strip-self"] if strip else []
    assert main(["curves", fixture, "--citations", str(citations),
                 "--horizon", str(horizon), *flags]) == 0
    mean_rows = [line for line in capsys.readouterr().out.splitlines()
                 if line.split(",")[1] == ""]
    profiles, _ = ledger_mod.read_citation_file(citations)
    (profile,) = profiles.values()
    if strip:
        profile = ledger_mod.strip_self_references(profile)
    expected = curves_mod.curves_to_csv([metrics_mod.journal_mean_curve(profile, horizon)])
    assert mean_rows == expected.splitlines()[1:]
    assert len(mean_rows) == min(horizon, 20) + 1


def test_curves_warns_why_a_volume_is_skipped(tmp_path, capsys):
    # Volume 2000 reached age 2 with no citations; volume 2002 is observed
    # only through age 1, whatever it was cited.
    citations = tmp_path / "c.csv"
    citations.write_text(HEADER + "\nX,2000,J,2000,0\nX,2003,J,2000,4\nX,2003,J,2002,1\n")
    assert main(["curves", "J", "--citations", str(citations)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: volume 2000 has no citations through age 2; skipped from standardized output",
        "warning: volume 2002 is observed only through age 1; skipped from standardized output",
        "warning: 'J' has 0 standardized volumes, fewer than 3; "
        "AccrualDeviation and SelfCitationSpike tests skipped",
    ]


def test_curves_names_the_skipped_anomaly_tests(tmp_path, capsys):
    # Two volumes standardize: too few for either anomaly test.
    citations = tmp_path / "c.csv"
    citations.write_text(HEADER + "\nX,2001,J,2000,2\nX,2002,J,2001,3\nX,2003,J,2001,1\n")
    for flags in ([], ["--strip-self"]):  # one warning names both skipped tests
        assert main(["curves", "J", "--citations", str(citations), *flags]) == 0
        captured = capsys.readouterr()
        assert captured.out.count(",standardized,") == 7  # 2000 through age 3, 2001 through 2
        assert captured.err.splitlines() == [
            "warning: 'J' has 2 standardized volumes, fewer than 3; "
            "AccrualDeviation and SelfCitationSpike tests skipped",
        ]


# 40 volumes: one spiked cell (AccrualDeviation over the rest of 1975's
# life), two self-citation bursts (SelfCitationSpike), two volumes too young
# to standardize, and two rescaled volumes that standardization absorbs.
GOLDEN_SPEC = """\
journal = Golden
pub_years = 1960-1999
kernel = risedecay:2:4/5:17/20:30
base_citations = 60
items_per_year = 120
observation_end = 1999
volume_scale = 1966,3/2
volume_scale = 1988,1/3
self_fraction = 1971,0,3/5
self_fraction = 1971,1,1/2
self_fraction = 1984,2,7/10
spike = 1975,6,200
"""


def test_curves_svg_golden(tmp_path, capsys):
    spec = tmp_path / "golden.synth"
    spec.write_text(GOLDEN_SPEC)
    assert main(["synth", str(spec), "--outdir", str(tmp_path)]) == 0
    chart = tmp_path / "golden.svg"
    code = main(["curves", "golden", "--citations", str(tmp_path / "citations.csv"),
                 "--svg", str(chart)])
    assert code == 0
    captured = capsys.readouterr()
    assert "SelfCitationSpike in volume 1971 at age 0 (+60.5 points)" in captured.err
    assert "AccrualDeviation in volume 1975 at age 6 (+137.0 points)" in captured.err
    assert ("warning: volume 1998 is observed only through age 1; "
            "skipped from standardized output") in captured.err
    digests = [
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (captured.out, captured.err, chart.read_text(encoding="utf-8"))
    ]
    assert digests == [
        "44c3a72a8811f2e7c0216ee43c0a0075b2f0c1692a0d06567a0c7813d1373ee5",
        "3e176afaaf7c279cd995eab2ef23f3d540b8550d4aa70f2fc1aaa40defe0d773",
        "27caff91993125a0e934959913653cfa1653b5d2bf6790bbd0c08c2ae81ee692",
    ]


# The deep-curves benchmark recipe with fixed values: 340 volumes over
# 1665-2004, two 80 % self bursts (SelfCitationSpike) and one spike past
# age 2 (AccrualDeviation through the rest of 1851's life).
DEEP_SPEC = """\
journal = Deep
pub_years = 1665-2004
kernel = risedecay:3:3/5:23/25:60
base_citations = 60
items_per_year = 120
observation_end = 2004
self_fraction = 1742,0,4/5
self_fraction = 1742,1,4/5
self_fraction = 1913,0,4/5
self_fraction = 1913,1,4/5
spike = 1851,7,300
"""


def test_curves_svg_deep_golden(tmp_path, capsys):
    # 174k table lines and 58k chart points: the text kernels at benchmark scale.
    spec = tmp_path / "deep.synth"
    spec.write_text(DEEP_SPEC)
    assert main(["synth", str(spec), "--outdir", str(tmp_path)]) == 0
    chart = tmp_path / "deep.svg"
    capsys.readouterr()
    assert main(["curves", "deep", "--citations", str(tmp_path / "citations.csv"),
                 "--svg", str(chart)]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 173929
    assert chart.read_text(encoding="utf-8").count("<polyline") == 338
    digests = [
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (captured.out, captured.err, chart.read_text(encoding="utf-8"))
    ]
    assert digests == [
        "247ecc4a1015f1789ee57986765997f6b857d17ce6c04963f4422a8ac290665a",
        "f45262be2853da218a47c9b0380c687bb0bd0ea2d8abcbbcc86d2de0612b4005",
        "12124f2a447a66a7ce69f9d81b1a5367bf31678d97d3607cb969951330cc2445",
    ]


@pytest.mark.parametrize("strip", [False, True], ids=["plain", "strip-self"])
@pytest.mark.parametrize("fixture", ["hare", "tortoise"])
def test_curves_streams_what_the_formatters_return(request, tmp_path, capsys, fixture, strip):
    # curves writes its table and chart chunk by chunk: the bytes must be
    # those curves_to_csv and emit_svg_chart return on the same curves and
    # (age, value) pairs, on stdout, with -o and on a text-only stdout.
    citations = request.getfixturevalue(f"{fixture}_dir") / "citations.csv"
    profiles, _ = ledger_mod.read_citation_file(citations, strip_self=strip)
    profile = ledger_mod.find_profile(profiles, fixture)
    volumes = curves_mod.volume_curves(profile)
    cumulatives = {year: curves_mod.cumulative(raw) for year, raw in volumes.items()}
    standardized, _ = curves_mod.standardized_volume_curves(volumes)
    chart = emit_svg_chart(
        [(str(year), list(enumerate(curves_mod.FloatColumn(standardized[year]))))
         for year in sorted(standardized)],
        x_label="age (years since publication)",
        y_label="cumulative citations (% of age-2 count)",
        title=f"{profile.journal}: standardized citation accrual",
    ).encode("utf-8")
    oldest = max(curve.max_age() for curve in volumes.values())
    svg, output = tmp_path / "chart.svg", tmp_path / "table.csv"
    for horizon in (0, 5, 40):
        table = []
        for year in sorted(volumes):
            table += [volumes[year], cumulatives[year]]
            table += [standardized[year]] if year in standardized else []
        table.append(curves_mod.mean_accrual_curve(
            list(volumes.values()), curves_mod.clamp_horizon(horizon, oldest)))
        expected = curves_mod.curves_to_csv(table).encode("utf-8")
        argv = ["curves", fixture, "--citations", str(citations), "--horizon", str(horizon),
                "--svg", str(svg), *(["--strip-self"] if strip else [])]
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == expected
        assert svg.read_bytes() == chart
        svg.unlink()
        assert main([*argv, "-o", str(output)]) == 0
        assert capsys.readouterr().out == ""
        assert (output.read_bytes(), svg.read_bytes()) == (expected, chart)
        with contextlib.redirect_stdout(io.StringIO()) as text_only:
            assert main(argv) == 0
        assert text_only.getvalue().encode("utf-8") == expected


# 200 volumes under a name of ordinary length.  Each table line repeats the
# name, while the curves that must be held to write the table cost about the
# same per value whatever the name, so here the table text outweighs them.
LONG_NAME_SPEC = """\
journal = Journal of the American Chemical Society
pub_years = 1805-2004
kernel = risedecay:3:3/5:23/25:30
base_citations = 60
items_per_year = 120
observation_end = 2004
"""


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_curves_never_holds_its_table(tmp_path, capfd):
    # capfd sends stdout to a file, so the printed table is not traced.  A
    # run that built the table (or a list of its parts) before writing it
    # would trace at least the table's size.
    spec = tmp_path / "long.synth"
    spec.write_text(LONG_NAME_SPEC)
    assert main(["synth", str(spec), "--outdir", str(tmp_path)]) == 0
    argv = ["curves", "journal of the american chemical society",
            "--citations", str(tmp_path / "citations.csv"), "--svg", str(tmp_path / "chart.svg")]
    capfd.readouterr()
    code, peak = _traced_peak(lambda: main(argv))
    table = capfd.readouterr().out.encode("utf-8")
    assert code == 0
    assert peak < len(table)


def test_curves_peak_stays_near_the_read(tmp_path, capsys):
    # curves holds the raw and standardized curves, a lazy table and a lazy
    # chart: its whole run must peak below 1.5 times the read of its ledger
    # alone.  Holding the cumulative curves too, every chart value as a
    # float and every zero self rate took it to about 1.9 times.
    spec = tmp_path / "deep.synth"
    spec.write_text(DEEP_SPEC)
    assert main(["synth", str(spec), "--outdir", str(tmp_path)]) == 0
    citations = tmp_path / "citations.csv"

    (profiles, rows), read_peak = _traced_peak(
        lambda: ledger_mod.read_citation_file(citations))
    assert (len(profiles), rows) == (1, 18634)
    del profiles
    argv = ["curves", "deep", "--citations", str(citations),
            "-o", str(tmp_path / "table.csv"), "--svg", str(tmp_path / "deep.svg")]
    code, curves_peak = _traced_peak(lambda: main(argv))
    assert code == 0
    assert capsys.readouterr().out == ""
    assert curves_peak < 1.5 * read_peak, (curves_peak, read_peak)


# --- validate ----------------------------------------------------------------------


def test_validate_ok(capsys, hare_dir):
    code = main([
        "validate", "--citations", str(hare_dir / "citations.csv"),
        "--publications", str(hare_dir / "publications.csv"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "records" in out and "entries" in out


def test_validate_counts_records_not_lines(tmp_path, capsys):
    ledger_file = tmp_path / "citations.csv"
    ledger_file.write_bytes(
        ("\ufeff" + HEADER + "\r\n\r\nA,2004,B,2003,5\r\nA,2004,B,2003,0\r\n"
         "\r\nb,2004,B,2003,2\r\n\r\n").encode("utf-8")
    )
    assert main(["validate", "--citations", str(ledger_file)]) == 0
    assert capsys.readouterr().out == f"{ledger_file}: 3 records\n"


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(HEADER + "\nA,2004,B\n")
    assert main(["validate", "--citations", str(bad)]) == 2


def test_validate_needs_an_input():
    assert main(["validate"]) == 3


# --- svg helper ----------------------------------------------------------------------


def test_svg_one_polyline_per_series():
    chart = emit_svg_chart([("a", [(0, 0), (1, 1)])], "x", "y")
    assert chart.count("<polyline") == 1
    many = emit_svg_chart(
        [(f"s{i}", [(0, i), (1, i + 1)]) for i in range(14)], "x", "y"
    )
    assert many.count("<polyline") == 14


def test_svg_deterministic():
    series = [("a", [(0, 0), (1, 2)]), ("b", [(0, 1), (1, 0)])]
    assert emit_svg_chart(series, "x", "y") == emit_svg_chart(series, "x", "y")


def test_svg_rejects_empty_input():
    with pytest.raises(ValueError):
        emit_svg_chart([], "x", "y")
    with pytest.raises(ValueError):
        emit_svg_chart([("a", [])], "x", "y")


def test_streamed_texts_keep_the_memo_edge_cases():
    # The generators curves writes from: a curve over a scale above 2**1074
    # keeps its -0.0, a one-shot table whose curves grow and then shrink
    # prints as the list does, equal y values of any type share one text,
    # lazy float columns chart as the exact points do, and an empty chart or
    # series, or a one-shot ys, raises before any line.
    tiny = curves_mod.AccrualCurve("J", 1990, "raw", (0, -1), scale=10**400)
    chunks = list(curves_mod.csv_chunks([tiny]))
    assert chunks == ["journal,pub_year,kind,age,value,observations\n",
                      "J,1990,raw,0,0.0,\nJ,1990,raw,1,-0.0,\n"]
    assert "".join(chunks) == curves_mod.curves_to_csv([tiny])
    table = [
        curves_mod.AccrualCurve("J", 1990, "raw", (3,)),
        curves_mod.AccrualCurve("J", 1991, "standardized", (50, 75, 100, 130), scale=3),
        tiny,
        curves_mod.AccrualCurve("J", 1992, "raw", tuple(range(12))),
        curves_mod.AccrualCurve("J", None, "raw", (7, 5, 3), (3, 2, 1), scale=6),
        curves_mod.AccrualCurve("J", 1993, "cumulative", (1, 1)),
    ]
    streamed = "".join(curves_mod.csv_chunks(curve for curve in table))
    assert streamed == curves_mod.curves_to_csv(table)
    assert streamed.count("\n") == 1 + 1 + 4 + 2 + 12 + 3 + 2
    ys = [2, 2.0, Fraction(2), 0]
    lines = list(chart_lines([("a", range(4), ys)], "x", "y", ""))
    assert "".join(lines) == emit_svg_chart([("a", list(enumerate(ys)))], "x", "y")
    (polyline,) = [line for line in lines if line.startswith("<polyline")]
    points = polyline.split('points="')[1].split('"')[0].split()
    assert len({point.split(",")[1] for point in points[:3]}) == 1
    # What curves --svg passes: each ys a FloatColumn, made anew on each pass.
    # All positive values still put y_min at 0.0; a negative one moves it.
    for numerators, scale, bottom in [((2, 6, 4, 6), 3, "0"), ((100, -7, 250, 100), 100, "-0.07"),
                                      ((-3, -1), 1, "-3")]:
        curve = curves_mod.AccrualCurve("J", 1990, "standardized", numerators, scale=scale)
        lazy = [("a", range(len(numerators)), curves_mod.FloatColumn(curve)),
                ("b", range(2), curves_mod.FloatColumn(curve._replace(numerators=(0, scale))))]
        points = [("a", list(enumerate(curve.values))), ("b", [(0, 0), (1, 1)])]
        chart = "".join(chart_lines(lazy, "x", "y", "t"))
        assert chart == emit_svg_chart(points, "x", "y", "t")
        y_ticks = re.findall(r'text-anchor="end"[^>]*>([^<]*)</text>', chart)
        assert y_ticks[0] == bottom
    for columns in ([], [("a", range(0), [])]):
        with pytest.raises(ValueError):
            next(chart_lines(columns, "x", "y", ""))
    with pytest.raises(TypeError, match="re-iterable"):
        next(chart_lines([("a", range(1), iter([1.0])), ("b", range(1), [2.0])], "x", "y", ""))


def test_svg_escapes_labels():
    chart = emit_svg_chart([("a<b", [(0, 0), (1, 1)])], 'x & "y"', "z")
    assert "a&lt;b" in chart
    assert "&amp;" in chart


def reference_svg_coordinates(series):
    """Tick and point coordinates by the per-point float() and _fmt formula."""
    xs = [float(x) for _, pts in series for x, _ in pts]
    ys = [float(y) for _, pts in series for _, y in pts]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(min(ys), 0.0), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def fmt(v):
        return f"{v:.2f}"

    def sx(x):
        return MARGIN_LEFT + (float(x) - x_min) / x_span * plot_w

    def sy(y):
        return MARGIN_TOP + plot_h - (float(y) - y_min) / y_span * plot_h

    ticks = [(fmt(sx(x_min + f * x_span)), fmt(sy(y_min + f * y_span) + 4))
             for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    points = [" ".join(f"{fmt(sx(x))},{fmt(sy(y))}" for x, y in pts) for _, pts in series]
    return ticks, points


svg_x = st.one_of(
    st.integers(-50, 400),
    st.fractions(-10, 10, max_denominator=7),
    st.floats(-50, 400),
    st.sampled_from([0.0, -0.0, 2, 2.0, Fraction(2)]),  # equal x, one cached text
)
svg_y = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.integers(-(2**60), 2**60),
    st.fractions(max_denominator=10**6),
)


@example([[(2, 1), (0.0, 3)], [(2.0, 5), (-0.0, 1)], [(Fraction(2), 0), (-0.0, 2)]])
@example([[(-0.0, 1), (0.0, 2)], [(0.0, 0), (-0.0, 4)]])
@example([[(0, 2), (1, 5)], [(0, 2.0), (1, 2)], [(3, Fraction(2)), (4, 2.0)]])  # equal y
@example([[(0, -0.0), (1, 0.0), (2, 3)], [(0, 0.0), (1, -0.0)]])
@example([[(0, 2**60), (1, 2**60 + 1)], [(0, 2**60 + 1), (1, 2**60), (2, 0)]])
@given(st.lists(st.lists(st.tuples(svg_x, svg_y), min_size=1, max_size=6),
                min_size=1, max_size=4))
def test_svg_coordinates_match_per_point_formula(raw_series):
    series = [(f"s{i}", points) for i, points in enumerate(raw_series)]
    chart = emit_svg_chart(series, "x", "y")
    ticks, points = reference_svg_coordinates(series)
    for x, y in ticks:
        assert f'<text x="{x}" y="{HEIGHT - MARGIN_BOTTOM + 18}" text-anchor="middle"' in chart
        assert f'y="{y}" text-anchor="end"' in chart
    polylines = [line.split('points="')[1].split('"')[0]
                 for line in chart.splitlines() if line.startswith("<polyline")]
    assert polylines == points


# --- input layer ----------------------------------------------------------------------


def _write_inputs(directory, name, bad_row=None):
    """Ledger, publications and aliases that all spell `name`; an optional
    bad row goes on line 4 of each file."""
    files = {
        "citations": [HEADER, f"Other,2004,{name},2003,5", f"Other,2004,Old {name},2002,3"],
        "publications": ["journal,year,citeable_items", f"{name},2002,10",
                         f"Old {name},2003,10"],
        "aliases": ["alias,canonical", f"Old {name},{name}", f"Older {name},{name}"],
    }
    paths = {}
    for kind, lines in files.items():
        if bad_row is not None:
            lines.append(bad_row)
        paths[kind] = directory / f"{kind}.csv"
        paths[kind].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


@pytest.mark.parametrize("mark", ["\x0c", "\x85", "\u2028"])
def test_inputs_split_lines_alike(tmp_path, capsys, mark):
    # Form feed, NEL and U+2028 are line breaks to str.splitlines but not
    # to a file read line by line; all three inputs must agree on the name.
    name = f"Journal{mark}One"
    paths = _write_inputs(tmp_path, name)
    args = [f"--{kind}={path}" for kind, path in paths.items()]
    assert main(["validate", *args]) == 0
    assert capsys.readouterr().out == (
        f"{paths['citations']}: 2 records\n{paths['publications']}: 2 entries\n"
        f"{paths['aliases']}: 2 aliases\n"
    )
    assert main(["report", *args, "--year", "2004"]) == 0
    rows = capsys.readouterr().out.split("\n")
    assert rows[1].split(",")[:3] == [name, "2004", "0.4"]
    assert rows[2:] == [""]

    bad = _write_inputs(tmp_path, name, bad_row=f"{name}" + "," * 9)
    for kind, path in bad.items():
        # A byte that is not UTF-8 on a later line does not hide the bad row.
        path.write_bytes(path.read_bytes() + b"caf\xc3\n")
        assert main(["validate", f"--{kind}={path}"]) == 2
        width = {"citations": 5, "publications": 3, "aliases": 2}[kind]
        assert capsys.readouterr().err == (
            f"error: {path}:4: expected {width} fields, got 10\n"
        )


@pytest.mark.parametrize("kind", ["citations", "publications", "aliases"])
@pytest.mark.parametrize("problem", ["directory", "not utf-8"])
def test_unreadable_input_is_input_error(tmp_path, capsys, kind, problem):
    paths = _write_inputs(tmp_path, "J")
    path = paths[kind]
    if problem == "directory":
        path.unlink()
        path.mkdir()
    else:
        # "Old" first appears on line 3, or on line 2 of the aliases.
        path.write_bytes(path.read_bytes().replace(b"Old", b"\xff"))
    for command in (["validate"], ["report", "--year", "2004"]):
        args = [f"--{k}={p}" for k, p in paths.items()]
        assert main([*command, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert len(err.splitlines()) == 1
        if problem == "not utf-8":
            line = 2 if kind == "aliases" else 3
            assert err == f"error: {path}:{line}: not UTF-8 text (invalid start byte)\n"


def test_publication_only_journal_gets_a_row(tmp_path, capsys):
    # The ledger cites B, and W only at ages 6 and 14: W's coverage is 0,
    # printed and classed, with no scaling.  The publications file also lists
    # Z (through an alias) and Y (with a year missing).  Every journal gets a
    # row, under the ledger's spelling if it has one, else the publications file's.
    citations = tmp_path / "c.csv"
    citations.write_text(HEADER + "\nA,2004,B,2003,5\nA,2004,B,2002,1\n"
                         "A,1996,W,1990,4\nA,2004,W,1990,2\n")
    publications = tmp_path / "p.csv"
    publications.write_text(
        "journal,year,citeable_items\n"
        "b,2002,10\nb,2003,10\nb,2004,10\n"
        "z-old,2002,4\nZ,2003,4\nz,2004,4\n"
        "y,2003,4\ny,2004,4\n"
        "w,2002,3\nw,2003,3\nw,2004,3\n"
    )
    aliases = tmp_path / "a.csv"
    aliases.write_text("alias,canonical\nZ-Old,Z\n")
    inputs = ["--citations", str(citations), "--publications", str(publications),
              "--aliases", str(aliases), "--year", "2004"]
    assert main(["report", *inputs]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "B,2004,0.3,0.0,1.6,1.6,1.0,0.5,0.15,Hare,HalfLifeUnreliable",
        "W,2004,0.0,0.0,14.5,>10,0.0,,,Tortoise,HalfLifeUnreliable|ZeroWindowCitations",
        "y,2004,,0.0,,,,,,,MissingDenominator|ZeroWindowCitations",
        "Z,2004,0.0,0.0,,,,,,,ZeroWindowCitations",
    ]
    assert main(["adjust", *inputs, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[1:] == [
        {"journal": "W", "eval_year": 2004, "jif": 0.0, "coverage": 0.0,
         "scaling_factor": None, "adjusted_jif": None, "class": "Tortoise"},
        {"journal": "y", "eval_year": 2004, "jif": None, "coverage": None,
         "scaling_factor": None, "adjusted_jif": None, "class": ""},
        {"journal": "Z", "eval_year": 2004, "jif": 0.0, "coverage": None,
         "scaling_factor": None, "adjusted_jif": None, "class": ""},
    ]


def test_fixture_report_script(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "fixture_report.py"
    for extra, ratio in (((), "raw 6.50, adjusted 40.25"),
                         (("--strip-self",), "raw 6.50, adjusted 40.13")):
        outdir = tmp_path / ("stripped" if extra else "plain")
        done = run_python(str(script), "--outdir", str(outdir), *extra)
        assert done.returncode == 0, done.stderr
        for name in ("hare", "tortoise"):
            chart = (outdir / f"{name}_standardized.svg").read_text()
            assert "<polyline" in chart and chart.rstrip().endswith("</svg>")
            assert (outdir / f"{name}_report.json").exists()
            assert (outdir / f"{name}_curves.csv").exists()
        assert f"tortoise/hare impact ratio: {ratio}\n" in done.stdout


def test_readme_library_example_runs(tmp_path, capsys, monkeypatch):
    # The README's Library example, run on `citemetrics synth hare` output.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert main(["synth", "hare", "--outdir", str(tmp_path)]) == 0
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "1/5 605869951/2290015728 Hare\n"


# --- ledgers read in byte ranges on several processes ---------------------------------


def _big_ledger(directory, bad_row=None):
    """A 3000-row ledger and its publications; `bad_row` replaces data row
    `bad_row[0]` (1-based) with the text `bad_row[1]`."""
    rows = [f"Journal {i % 7},{2000 + i % 4 + i % 3},Journal {i % 3},{2000 + i % 4},{i % 9}"
            for i in range(3000)]
    if bad_row is not None:
        rows[bad_row[0] - 1] = bad_row[1]
    citations = directory / "citations.csv"
    citations.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    publications = directory / "publications.csv"
    publications.write_text("journal,year,citeable_items\n" + "".join(
        f"Journal {i},{year},10\n" for i in range(7) for year in range(2000, 2005)))
    return citations, publications


def _commands(citations, publications):
    return (["validate", "--citations", str(citations)],
            ["report", "--citations", str(citations), "--publications", str(publications),
             "--year", "2004"])


def _run_all(capfd, commands):
    outcomes = []
    for argv in commands:
        code = main(argv)
        outcomes.append((code, *capfd.readouterr()))
    return outcomes


@pytest.fixture()
def split_in_two(monkeypatch, tmp_path):
    """Make read_citation_file split every ledger in two; record the pid of
    each child and, in a file, every os._exit call a child makes."""
    monkeypatch.setattr(ledger_mod, "MIN_SPLIT_BYTES", 1)
    monkeypatch.setattr(ledger_mod, "_usable_cpus", lambda: 2)
    pids = []
    exits = tmp_path / "exits"
    real_fork, real_exit = os.fork, os._exit

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def _exit(status):
        with open(exits, "a") as record:
            record.write(f"{os.getpid()} {status}\n")
        real_exit(status)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "_exit", _exit)

    def exited():
        return exits.read_text().split("\n")[:-1] if exits.exists() else []

    return pids, exited


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("bad_row", [None, (2990, "Journal 1,2004,Journal 2,2003,x"),
                                     (2990, "Journal 1,2004,Journal 2")])
def test_split_read_matches_stream(tmp_path, capfd, request, bad_row):
    # The same stdout, stderr and exit code as the single stream, for a valid
    # ledger and for one with a bad row in its last part; the children write
    # nothing, leave through os._exit and are reaped.
    commands = _commands(*_big_ledger(tmp_path, bad_row))
    stream = _run_all(capfd, commands)
    pids, exited = request.getfixturevalue("split_in_two")
    assert _run_all(capfd, commands) == stream
    assert stream[0][0] == (0 if bad_row is None else 2)
    if bad_row is not None:
        assert f":{bad_row[0] + 1}: " in stream[0][2]
    assert len(pids) == len(commands)
    assert exited() == [f"{pid} 0" for pid in pids]
    _assert_reaped(pids)


def test_split_read_strips_self_citations(tmp_path, capfd, request):
    # --strip-self strips the split read's merged tables as they are frozen:
    # the outputs of the stream, and the profiles of strip_self_references
    # mapped over a plain read, in the same journal and cell order.
    citations, publications = _big_ledger(tmp_path)
    with open(citations, encoding="utf-8") as handle:
        plain, rows = ledger_mod.read_citation_profiles(handle)
    expected = {name: ledger_mod.strip_self_references(p) for name, p in plain.items()}
    assert expected != plain
    commands = [[*_commands(citations, publications)[1], "--strip-self"],
                ["curves", "Journal 1", "--citations", str(citations), "--strip-self"]]
    stream = _run_all(capfd, commands)
    assert [outcome[0] for outcome in stream] == [0, 0]
    pids, exited = request.getfixturevalue("split_in_two")
    assert _run_all(capfd, commands) == stream
    split = ledger_mod.read_citation_file(citations, strip_self=True)
    assert len(pids) == 3
    assert exited() == [f"{pid} 0" for pid in pids]
    _assert_reaped(pids)
    streamed = ledger_mod.read_citation_profiles(citations.read_text().splitlines(),
                                                 strip_self=True)
    for profiles, count in (split, streamed):
        assert count == rows
        assert list(profiles) == list(expected)
        for name, profile in profiles.items():
            assert list(profile.cells.items()) == list(expected[name].cells.items())


def test_split_read_not_utf8_in_child_part(tmp_path, capfd, request):
    citations, publications = _big_ledger(tmp_path)
    data = citations.read_bytes()
    citations.write_bytes(data[:-20] + b"\xff" + data[-19:])
    commands = _commands(citations, publications)
    stream = _run_all(capfd, commands)
    assert [outcome[0] for outcome in stream] == [2, 2]
    assert stream[0][2] == f"error: {citations}:3001: not UTF-8 text (invalid start byte)\n"
    pids, _ = request.getfixturevalue("split_in_two")
    assert _run_all(capfd, commands) == stream
    _assert_reaped(pids)


def test_split_read_kills_child_when_first_part_fails(tmp_path, capfd, split_in_two,
                                                      monkeypatch):
    pids, _ = split_in_two
    kills = []
    real_kill = os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: (kills.append((pid, sig)),
                                                      real_kill(pid, sig)))
    citations, _ = _big_ledger(tmp_path, (2, "Journal 1,2004"))
    assert main(["validate", "--citations", str(citations)]) == 2
    assert capfd.readouterr() == ("", f"error: {citations}:3: expected 5 fields, got 2\n")
    assert kills == [(pid, signal.SIGKILL) for pid in pids] and len(pids) == 1
    _assert_reaped(pids)


def test_split_read_child_without_result_is_input_error(tmp_path, capfd, split_in_two,
                                                        monkeypatch):
    # A child killed before it sends its tables (as by the out-of-memory
    # killer) fails the read; no partial profiles are reported.
    pids, _ = split_in_two
    parent, real_fold = os.getpid(), ledger_mod._fold

    def fold(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_fold(*args)

    monkeypatch.setattr(ledger_mod, "_fold", fold)
    citations, publications = _big_ledger(tmp_path)
    for argv in _commands(citations, publications):
        assert main(argv) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err == (f"error: {citations}: a process reading part of the ledger ended "
                       f"without a result (exit status -{signal.SIGKILL})\n")
    assert len(pids) == 2
    _assert_reaped(pids)


@pytest.mark.parametrize("host", ["no fork", "one cpu"])
def test_split_read_needs_fork_and_two_cpus(tmp_path, capfd, monkeypatch, host):
    commands = _commands(*_big_ledger(tmp_path))
    stream = _run_all(capfd, commands)
    monkeypatch.setattr(ledger_mod, "MIN_SPLIT_BYTES", 1)
    if host == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
    assert _run_all(capfd, commands) == stream


def test_ledger_from_a_pipe_is_streamed(tmp_path, capfd, monkeypatch):
    # A FIFO reports size 0, so it is streamed even when every file splits.
    citations, publications = _big_ledger(tmp_path)
    commands = _commands(citations, publications)
    expected = _run_all(capfd, commands)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(ledger_mod, "MIN_SPLIT_BYTES", 1)
    monkeypatch.setattr(ledger_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked to read a pipe"))
    for argv, outcome in zip(_commands(fifo, publications), expected):
        writer = subprocess.Popen(["sh", "-c", 'exec cat "$1" > "$2"', "sh",
                                   str(citations), str(fifo)])
        try:
            code = main(argv)
        finally:
            writer.kill()
            writer.wait()
        out, err = capfd.readouterr()
        assert (code, out.replace(str(fifo), str(citations)), err) == outcome


# Run in a fresh interpreter: import the CLI, run one command, and print the
# modules that appeared in sys.modules meanwhile (not those `site` loaded).
_LOADED_BY_COMMAND = """
import sys
before = set(sys.modules)
from citemetrics.cli import main
code = main(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before), file=sys.stderr)
"""


@pytest.mark.parametrize("command, loads, never", [
    ("validate", "citemetrics.ledger",
     {"dataclasses", "inspect", "json", "citemetrics.curves", "citemetrics.metrics",
      "citemetrics.svg", "citemetrics.synth", "citemetrics.parallel"}),
    ("curves", "citemetrics.svg", {"citemetrics.metrics", "json", "dataclasses"}),
    ("report-csv", "citemetrics.metrics", {"json", "dataclasses"}),
    ("synth", "citemetrics.synth",
     {"dataclasses", "inspect", "json", "citemetrics.svg", "citemetrics.parallel"}),
], ids=["validate", "curves", "report-csv", "synth"])
def test_command_loads_only_what_it_runs(tmp_path, hare_dir, command, loads, never):
    """Each command loads only what it runs: a header-only `validate` no
    records, curves or JSON, `curves --svg` no report, a CSV report no JSON,
    `synth` no chart or split read, and none of them dataclasses (with
    inspect)."""
    citations = str(hare_dir / "citations.csv")
    if command == "validate":
        header = tmp_path / "c.csv"
        header.write_text(HEADER + "\n")
        argv = ["validate", "--citations", str(header)]
    elif command == "curves":
        argv = ["curves", "Hare", "--citations", citations, "--svg", str(tmp_path / "c.svg")]
    elif command == "synth":
        argv = ["synth", "hare", "--outdir", str(tmp_path / "hare")]
    else:
        argv = ["report", "--citations", citations, "--year", "2004", "--format", "csv"]
    done = run_python("-c", _LOADED_BY_COMMAND, *argv)
    code, *loaded = done.stderr.splitlines()[-1].split()
    assert code == "0"
    assert loads in loaded
    assert not never & set(loaded)


def test_package_exports_load_on_first_use():
    """`import citemetrics` loads no module; each exported name loads its own."""
    done = run_python("-c", """
import sys
import citemetrics
assert "citemetrics.ledger" not in sys.modules
assert citemetrics.WindowPolicy.__module__ == "citemetrics.settings"
assert "citemetrics.metrics" not in sys.modules
from citemetrics import *
from citemetrics import curves, metrics
assert build_indicator_report is metrics.build_indicator_report
assert WindowPolicy is metrics.WindowPolicy and classify_journal is curves.classify_journal
try:
    citemetrics.nothing
except AttributeError as exc:
    print(exc)
""")
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "module 'citemetrics' has no attribute 'nothing'\n", "")


def test_parser_defaults_are_the_settings_defaults():
    """Every policy and threshold option of report, adjust and curves defaults
    to its settings class's default, and a help text that states a default
    states that one: parsed by the option's own type it gives the default."""
    policy, classification, anomaly = (
        WindowPolicy(), ClassificationThresholds(), AnomalyThresholds())
    table = {"window": policy.window_ages, "horizon": policy.horizon,
             "quantile": policy.target_quantile, "hare": classification.hare,
             "tortoise": classification.tortoise}
    expected = {"report": table, "adjust": table,
                "curves": {"horizon": policy.horizon, "self_threshold": anomaly.self_rate,
                           "deviation_threshold": anomaly.deviation_pp}}
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    stated = []
    for command, defaults in expected.items():
        actions = {a.dest: a for a in commands.choices[command]._actions}
        assert {dest: actions[dest].default for dest in defaults} == defaults
        for action in actions.values():
            match = re.search(r"\(default (.*)\)", action.help or "")
            if match:
                stated.append(match[1])
                assert action.type(match[1]) == defaults[action.dest]
    assert stated == ["1,2", "20", "0.5", "0.25", "0.15", "1,2", "20", "0.5", "0.25", "0.15",
                      "20", "0.5", "25"]


def test_every_option_has_help():
    """Each subcommand's --help says what each of its arguments is for."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    silent = [f"{command} {'/'.join(action.option_strings) or action.dest}"
              for command, parser in commands.choices.items() for action in parser._actions
              if not isinstance(action, argparse._HelpAction) and not action.help]
    assert silent == []
