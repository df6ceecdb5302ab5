from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction

import pytest

from citemetrics.cli import main
from citemetrics.svg import emit_svg_chart

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


def test_synth_writes_ledger_files(hare_dir):
    assert (hare_dir / "citations.csv").exists()
    assert (hare_dir / "publications.csv").exists()
    first = (hare_dir / "citations.csv").read_text().splitlines()[0]
    assert first == HEADER


def test_synth_accepts_spec_path(tmp_path):
    spec = tmp_path / "mini.synth"
    spec.write_text(
        "journal = Mini\npub_years = 2000-2004\nkernel = flat:3\n"
        "base_citations = 4\nitems_per_year = 2\nobservation_end = 2004\n"
    )
    assert main(["synth", str(spec), "--outdir", str(tmp_path / "mini")]) == 0
    text = (tmp_path / "mini" / "citations.csv").read_text()
    assert "Mini" in text


def test_synth_unknown_spec_is_input_error(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "nope.synth"), "--outdir", str(tmp_path)]) == 2


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


def test_report_config_error_exit_3(tmp_path, capsys):
    citations = tmp_path / "c.csv"
    citations.write_text(HEADER + "\n")
    args = ["report", "--citations", str(citations), "--year", "2004"]
    assert main(args + ["--quantile", "0"]) == 3
    assert main(args + ["--hare", "0.1", "--tortoise", "0.2"]) == 3
    assert main(args + ["--nonsense"]) == 3


def test_config_errors_precede_io(capsys):
    # Bad flags exit 3 even though the ledger does not exist; alone, the
    # missing file is an input error.
    assert main(["curves", "Hare", "--citations", "missing.csv",
                 "--deviation-threshold", "0"]) == 3
    assert main(["report", "--citations", "missing.csv", "--year", "2004",
                 "--hare", "0.1"]) == 3
    assert main(["report", "--citations", "missing.csv", "--year", "2004",
                 "--window", "3", "--horizon", "2"]) == 3
    assert "missing.csv" not in capsys.readouterr().err
    assert main(["report", "--citations", "missing.csv", "--year", "2004"]) == 2
    assert main(["curves", "Hare", "--citations", "missing.csv"]) == 2


def test_report_output_file(tmp_path, hare_dir):
    target = tmp_path / "report.csv"
    code = main([
        "report", "--citations", str(hare_dir / "citations.csv"),
        "--publications", str(hare_dir / "publications.csv"),
        "--year", "2004", "-o", str(target),
    ])
    assert code == 0
    assert target.read_text().startswith("journal,")


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


def test_curves_strip_self_restores_consistency(capsys, hare_dir):
    main(["curves", "Hare", "--citations", str(hare_dir / "citations.csv")])
    plain_err = capsys.readouterr().err
    main(["curves", "Hare", "--citations", str(hare_dir / "citations.csv"),
          "--strip-self"])
    stripped_err = capsys.readouterr().err
    assert "SelfCitationSpike" in plain_err
    assert "AccrualDeviation" in plain_err
    assert "SelfCitationSpike" not in stripped_err
    assert "AccrualDeviation" not in stripped_err


def test_curves_horizon_needs_no_window(capsys, hare_dir):
    citations = str(hare_dir / "citations.csv")
    assert main(["curves", "Hare", "--citations", citations, "--horizon", "1"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["age"] for r in rows if r["pub_year"] == ""] == ["0", "1"]
    assert main(["curves", "Hare", "--citations", citations, "--horizon", "0"]) == 0
    capsys.readouterr()
    assert main(["curves", "Hare", "--citations", citations, "--horizon", "-1"]) == 3
    assert "horizon" in capsys.readouterr().err


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
    digests = [
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (captured.out, captured.err, chart.read_text(encoding="utf-8"))
    ]
    assert digests == [
        "44c3a72a8811f2e7c0216ee43c0a0075b2f0c1692a0d06567a0c7813d1373ee5",
        "f9b441b42d7a62cd29d50afe397a4daf063eb20bf3551a156420cdfbaf7e43fe",
        "27caff91993125a0e934959913653cfa1653b5d2bf6790bbd0c08c2ae81ee692",
    ]


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


def test_svg_escapes_labels():
    chart = emit_svg_chart([("a<b", [(0, 0), (1, 1)])], 'x & "y"', "z")
    assert "a&lt;b" in chart
    assert "&amp;" in chart
