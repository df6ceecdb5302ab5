#!/usr/bin/env python3
"""Window-bias demonstration on the bundled synthetic journals.

Runs the CLI's `synth`, `report` and `curves --svg` on both bundled
fixtures, leaving their outputs in OUTDIR, and prints the indicator table
side by side.  The point of the exercise: two journals with very different
accrual speeds end up with impact factors that sample incomparable shares
of their lifetime citations, and the coverage-scaled adjustment puts them
back on one scale.  Skipped volumes and anomalies are the CLI's own
warnings on stderr.

Usage:
    python scripts/fixture_report.py [--outdir OUT] [--strip-self]
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from citemetrics import cli, synth

EVAL_YEAR = 2004
COLUMNS = ("jif", "immediacy", "half_life_jcr", "coverage", "scaling_factor",
           "adjusted_jif", "class")


def run_cli(*argv) -> None:
    code = cli.main([str(arg) for arg in argv])
    if code:
        raise SystemExit(code)


def analyze(name: str, outdir: Path, strip_self: bool) -> dict:
    """Run the CLI on one fixture; return its report row."""
    ledger_dir = outdir / name
    citations = ledger_dir / "citations.csv"
    extra = ("--strip-self",) if strip_self else ()
    run_cli("synth", name, "--outdir", ledger_dir)
    report_path = outdir / f"{name}_report.json"
    run_cli("report", "--citations", citations,
            "--publications", ledger_dir / "publications.csv", "--year", EVAL_YEAR,
            "--format", "json", "-o", report_path, *extra)
    (row,) = json.loads(report_path.read_text(encoding="utf-8"))
    run_cli("curves", row["journal"], "--citations", citations,
            "--svg", outdir / f"{name}_standardized.svg",
            "-o", outdir / f"{name}_curves.csv", *extra)
    return row


def cell(value) -> str:
    if value is None:
        return "-"
    return value if isinstance(value, str) else f"{value:.3f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="fixture_out", help="output directory")
    parser.add_argument("--strip-self", action="store_true",
                        help="remove self-references first")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    rows = {name: analyze(name, outdir, args.strip_self) for name in synth.FIXTURE_NAMES}

    print(f"{'indicator':>16}" + "".join(f"{name:>14}" for name in rows))
    for column in COLUMNS:
        print(f"{column:>16}" + "".join(f"{cell(row[column]):>14}" for row in rows.values()))
    print(f"\nwrote ledgers, reports, curve tables and charts to {outdir}")

    hare, tortoise = rows["hare"], rows["tortoise"]
    if hare["adjusted_jif"] and tortoise["adjusted_jif"]:
        print(f"\ntortoise/hare impact ratio: raw {tortoise['jif'] / hare['jif']:.2f}, "
              f"adjusted {tortoise['adjusted_jif'] / hare['adjusted_jif']:.2f}")


if __name__ == "__main__":
    main()
