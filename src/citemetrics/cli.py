"""Command-line interface.

Subcommands:
  report    full indicator table per journal (csv or json)
  adjust    the scaling view: jif, coverage, scaling factor, adjusted jif
  curves    per-volume accrual curve table for one journal (+ optional SVG)
  synth     expand a synthetic-journal spec into ledger CSV files
  validate  parse inputs and report the first problem, touching nothing

Exit codes: 0 success (flagged rows included), 2 input error (bad data,
named by file and line, or a missing or unreadable file), 3 config error.
Reruns on unchanged inputs produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import curves as curves_mod
from . import ledger, metrics
from .curves import AnomalyThresholds, ClassificationThresholds
from .errors import CitemetricsError, ConfigError
from .fixtures import FIXTURE_NAMES
from .metrics import WindowPolicy

REPORT_COLUMNS = (
    "journal", "eval_year", "jif", "immediacy", "half_life_exact",
    "half_life_jcr", "coverage", "scaling_factor", "adjusted_jif", "class", "flags",
)
ADJUST_COLUMNS = ("journal", "eval_year", "jif", "coverage", "scaling_factor",
                  "adjusted_jif", "class")


class _Parser(argparse.ArgumentParser):
    # Flag and usage problems are configuration errors (exit 3), not the
    # default argparse exit 2, which is reserved for bad input data.
    def error(self, message):
        raise ConfigError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _ages(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ages: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="citemetrics", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p, publications=True):
        p.add_argument("--citations", required=True, help="citation ledger CSV")
        if publications:
            p.add_argument("--publications", help="citeable-item counts CSV")
        p.add_argument("--aliases", help="journal alias CSV")

    def add_policy(p):
        p.add_argument("--year", type=int, required=True, help="evaluation year")
        p.add_argument("--window", type=_ages, default=WindowPolicy.window_ages,
                       help="item ages in the citation window (default 1,2)")
        p.add_argument("--horizon", type=int, default=WindowPolicy.horizon,
                       help="age horizon for coverage (default 20)")
        p.add_argument("--quantile", type=_fraction, default=WindowPolicy.target_quantile,
                       help="target quantile for scaling (default 0.5)")
        p.add_argument("--strip-self", action="store_true",
                       help="remove self-references before computing")
        p.add_argument("--hare", type=_fraction, default=ClassificationThresholds.hare,
                       help="coverage at or above which a journal is a Hare")
        p.add_argument("--tortoise", type=_fraction, default=ClassificationThresholds.tortoise,
                       help="coverage at or below which a journal is a Tortoise")

    for name, columns, summary in (("report", REPORT_COLUMNS, "full indicator table"),
                                   ("adjust", ADJUST_COLUMNS, "scaling columns only")):
        p_table = sub.add_parser(name, help=summary)
        add_inputs(p_table)
        add_policy(p_table)
        p_table.add_argument("--format", choices=("csv", "json"), default="csv")
        p_table.add_argument("-o", "--output", help="write here instead of stdout")
        p_table.set_defaults(run=cmd_table, columns=columns)

    p_curves = sub.add_parser("curves", help="accrual curves for one journal")
    p_curves.add_argument("journal", help="journal name (case-insensitive)")
    add_inputs(p_curves, publications=False)
    p_curves.add_argument("--horizon", type=int, default=WindowPolicy.horizon)
    p_curves.add_argument("--strip-self", action="store_true")
    p_curves.add_argument("--self-threshold", type=_fraction,
                          default=AnomalyThresholds.self_rate,
                          help="self-rate flagged as a spike (default 0.5)")
    p_curves.add_argument("--deviation-threshold", type=_fraction,
                          default=AnomalyThresholds.deviation_pp,
                          help="standardized deviation flagged, in points (default 25)")
    p_curves.add_argument("--svg", help="also draw standardized curves to this file")
    p_curves.add_argument("-o", "--output", help="write here instead of stdout")
    p_curves.set_defaults(run=cmd_curves)

    p_synth = sub.add_parser("synth", help="expand a synthetic spec to ledger files")
    p_synth.add_argument("spec", help="spec file path, or a bundled name "
                                      f"({', '.join(FIXTURE_NAMES)})")
    p_synth.add_argument("--outdir", required=True, help="directory for the CSV files")
    p_synth.set_defaults(run=cmd_synth)

    p_validate = sub.add_parser("validate", help="parse inputs, report problems")
    p_validate.add_argument("--citations")
    p_validate.add_argument("--publications")
    p_validate.add_argument("--aliases")
    p_validate.set_defaults(run=cmd_validate)

    return parser


def _read(path: str, parse, *args):
    """`parse(lines, *args, source=path)` over the input file at path.

    Every input is opened here, as UTF-8 text read line by line, so all of
    them split lines alike (a large ledger is read from the same file in
    byte ranges, split the same way).  A byte that is not UTF-8 is kept as
    a lone surrogate, and the reader rejects its line with a ParseError.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        return parse(handle, *args, source=path)


def _load_aliases(path: str | None) -> ledger.AliasMap:
    return _read(path, ledger.parse_alias_csv) if path else ledger.EMPTY_ALIASES


def _load_profiles(args, aliases) -> dict[str, ledger.CitationProfile]:
    profiles, _ = _read(args.citations, ledger.read_citation_file, aliases)
    if args.strip_self:
        profiles = {j: ledger.strip_self_references(p) for j, p in profiles.items()}
    return profiles


def _load_publications(path: str | None, aliases) -> ledger.PublicationCounts:
    if path:
        return _read(path, ledger.parse_publication_csv, aliases)
    return ledger.PublicationCounts()


def _emit(output: str | None, text: str) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _render_rows(rows: list[dict], columns: tuple[str, ...], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for column in columns:
            value = row[column]
            cells.append("|".join(value) if column == "flags" else _cell(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    """report and adjust: one row per journal, restricted to args.columns."""
    rows = _table_rows(args)
    _emit(args.output, _render_rows(rows, args.columns, args.format))
    return 0


def _table_rows(args) -> list[dict]:
    # A function of its own, so the profiles are freed before rendering.
    policy = WindowPolicy(args.window, args.horizon, args.quantile)
    classification = ClassificationThresholds(args.hare, args.tortoise)
    aliases = _load_aliases(args.aliases)
    profiles = _load_profiles(args, aliases)
    pubs = _load_publications(args.publications, aliases)
    # Journals with citeable items but no citations report a JIF of 0.
    cited = {journal.casefold() for journal in profiles}
    for key, journal in pubs.journals.items():
        if key not in cited:
            profiles[journal] = ledger.CitationProfile(journal)
    rows = []
    coverage_at = metrics._RATIO_FIELDS.index("coverage")
    for journal in sorted(profiles, key=str.casefold):
        profile = profiles[journal]
        # build_indicator_report's exact ratios, printed without building a Fraction.
        ratios, flags = metrics._ratios(profile, pubs, args.year, policy)
        data = metrics._row_dict(profile.journal, args.year, ratios, flags)
        coverage = ratios[coverage_at]
        data["class"] = (
            "" if coverage is None else curves_mod.classify_ratio(*coverage, classification)
        )
        rows.append({key: data[key] for key in args.columns})
    return rows


def cmd_curves(args) -> int:
    anomaly = AnomalyThresholds(args.self_threshold, args.deviation_threshold)
    if args.horizon < 0:
        raise ConfigError("horizon must be >= 0")
    aliases = _load_aliases(args.aliases)
    profiles = _load_profiles(args, aliases)
    profile = ledger.find_profile(profiles, aliases.resolve(args.journal))
    if profile is None:
        raise CitemetricsError(f"unknown journal {args.journal!r}")
    volumes = curves_mod.volume_curves(profile)
    cumulatives = {year: curves_mod.cumulative(raw) for year, raw in volumes.items()}
    standardized, skipped = curves_mod.standardized_volume_curves(cumulatives)
    for year in skipped:
        age = volumes[year].max_age()
        reason = (f"is observed only through age {age}" if age < 2
                  else "has no citations through age 2")
        print(f"warning: volume {year} {reason}; skipped from standardized output",
              file=sys.stderr)
    if args.svg:  # before the table, so an unwritable chart path leaves no table
        if not standardized:
            raise CitemetricsError(f"{profile.journal!r} has no standardizable volumes")
        from .svg import emit_svg_chart  # only here, so other runs never compile it

        # No local holds the series or the chart: both are freed before the table is built.
        Path(args.svg).write_text(emit_svg_chart(
            [(str(year), list(enumerate(standardized[year].floats())))
             for year in sorted(standardized)],
            x_label="age (years since publication)",
            y_label="cumulative citations (% of age-2 count)",
            title=f"{profile.journal}: standardized citation accrual",
        ), encoding="utf-8")

    out: list[curves_mod.AccrualCurve] = []
    for year in sorted(volumes):
        out += [volumes[year], cumulatives[year]]
        if year in standardized:
            out.append(standardized[year])
    oldest = max(curve.max_age() for curve in volumes.values())
    out.append(curves_mod.mean_accrual_curve(
        list(volumes.values()), curves_mod.clamp_horizon(args.horizon, oldest)
    ))
    _emit(args.output, curves_mod.curves_to_csv(out))

    if len(standardized) < 3:
        print(f"warning: {profile.journal!r} has {len(standardized)} standardized "
              f"volumes, fewer than 3; {curves_mod.ACCRUAL_DEVIATION} and "
              f"{curves_mod.SELF_CITATION_SPIKE} tests skipped", file=sys.stderr)
        return 0
    findings = curves_mod.detect_anomalous_volumes(
        standardized, ledger.volume_self_rates(profile), anomaly
    )
    for f in findings:
        print(
            f"warning: {f.reason} in volume {f.pub_year} at age {f.age} "
            f"({float(f.deviation):+.1f} points)",
            file=sys.stderr,
        )
    return 0


def cmd_synth(args) -> int:
    from . import synth  # only here, so other commands never compile it

    if args.spec in FIXTURE_NAMES:
        spec = synth.fixture_spec(args.spec)
    else:
        spec = _read(args.spec, synth.parse_synth_spec)
    profile, _ = synth.generate_profile(spec)
    citations = ledger.profiles_to_citation_csv({profile.journal: profile})
    target = Path(args.outdir)
    target.mkdir(parents=True, exist_ok=True)
    publications = [ledger.PUBLICATIONS_HEADER]
    publications += [
        f"{spec.journal},{year},{spec.items_per_year}" for year in spec.pub_years()
    ]
    (target / "citations.csv").write_text(citations, encoding="utf-8")
    (target / "publications.csv").write_text(
        "\n".join(publications) + "\n", encoding="utf-8"
    )
    return 0


def cmd_validate(args) -> int:
    if not (args.citations or args.publications or args.aliases):
        raise ConfigError("validate needs at least one input file")
    aliases = _load_aliases(args.aliases)
    if args.citations:
        _, count = _read(args.citations, ledger.read_citation_file, aliases)
        print(f"{args.citations}: {count} records")
    if args.publications:
        pubs = _load_publications(args.publications, aliases)
        print(f"{args.publications}: {len(pubs.entries)} entries")
    if args.aliases:
        print(f"{args.aliases}: {len(aliases.entries)} aliases")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CitemetricsError, OSError) as exc:
        # A ParseError (a non-UTF-8 byte too), or a missing or unreadable file.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
