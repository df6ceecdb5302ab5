"""Command-line interface.

Subcommands:
  report    full indicator table per journal (csv or json)
  adjust    the scaling view: jif, coverage, scaling factor, adjusted jif
  curves    per-volume accrual curve table for one journal (+ optional SVG)
  synth     expand a synthetic-journal spec into ledger CSV files
  validate  parse inputs and report the first problem, touching nothing

Exit codes: 0 success (flagged rows included), 2 input error, 3
configuration error.  Reruns on unchanged inputs produce byte-identical
output.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import curves as curves_mod
from . import ledger, metrics, synth
from .curves import AnomalyThresholds, ClassificationThresholds
from .errors import CitemetricsError, ConfigError, ParseError
from .metrics import WindowPolicy
from .svg import emit_svg_chart

REPORT_COLUMNS = (
    "journal", "eval_year", "jif", "immediacy", "half_life_exact",
    "half_life_jcr", "coverage", "scaling_factor", "adjusted_jif", "class", "flags",
)
ADJUST_COLUMNS = ("journal", "eval_year", "jif", "coverage", "scaling_factor",
                  "adjusted_jif", "class")


@dataclass(frozen=True)
class RunConfig:
    """One invocation's inputs, policy, and output choices."""

    citations: str
    publications: str | None = None
    aliases: str | None = None
    eval_year: int | None = None
    policy: WindowPolicy = WindowPolicy()
    strip_self: bool = False
    format: str = "csv"
    output: str | None = None
    svg_path: str | None = None
    anomaly: AnomalyThresholds = field(default_factory=AnomalyThresholds)
    classification: ClassificationThresholds = field(
        default_factory=ClassificationThresholds
    )


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
        p.add_argument("--window", type=_ages, default=(1, 2),
                       help="item ages in the citation window (default 1,2)")
        p.add_argument("--horizon", type=int, default=20,
                       help="age horizon for coverage (default 20)")
        p.add_argument("--quantile", type=_fraction, default=Fraction(1, 2),
                       help="target quantile for scaling (default 0.5)")
        p.add_argument("--strip-self", action="store_true",
                       help="remove self-references before computing")
        p.add_argument("--hare", type=_fraction, default=Fraction(1, 4),
                       help="coverage at or above which a journal is a Hare")
        p.add_argument("--tortoise", type=_fraction, default=Fraction(3, 20),
                       help="coverage at or below which a journal is a Tortoise")

    p_report = sub.add_parser("report", help="full indicator table")
    add_inputs(p_report)
    add_policy(p_report)
    p_report.add_argument("--format", choices=("csv", "json"), default="csv")
    p_report.add_argument("-o", "--output", help="write here instead of stdout")
    p_report.set_defaults(run=lambda args: cmd_report(_config(args)))

    p_adjust = sub.add_parser("adjust", help="scaling columns only")
    add_inputs(p_adjust)
    add_policy(p_adjust)
    p_adjust.add_argument("--format", choices=("csv", "json"), default="csv")
    p_adjust.add_argument("-o", "--output", help="write here instead of stdout")
    p_adjust.set_defaults(run=lambda args: cmd_adjust(_config(args)))

    p_curves = sub.add_parser("curves", help="accrual curves for one journal")
    p_curves.add_argument("journal", help="journal name (case-insensitive)")
    add_inputs(p_curves, publications=False)
    p_curves.add_argument("--horizon", type=int, default=20)
    p_curves.add_argument("--strip-self", action="store_true")
    p_curves.add_argument("--self-threshold", type=_fraction, default=Fraction(1, 2),
                          help="self-rate flagged as a spike (default 0.5)")
    p_curves.add_argument("--deviation-threshold", type=_fraction, default=Fraction(25),
                          help="standardized deviation flagged, in points (default 25)")
    p_curves.add_argument("--svg", help="also draw standardized curves to this file")
    p_curves.add_argument("-o", "--output", help="write here instead of stdout")
    p_curves.set_defaults(
        run=lambda args: cmd_curves(_config(args), args.journal, args.horizon)
    )

    p_synth = sub.add_parser("synth", help="expand a synthetic spec to ledger files")
    p_synth.add_argument("spec", help="spec file path, or a bundled name "
                                      f"({', '.join(synth.FIXTURE_NAMES)})")
    p_synth.add_argument("--outdir", required=True, help="directory for the CSV files")
    p_synth.set_defaults(run=lambda args: cmd_synth(args.spec, args.outdir))

    p_validate = sub.add_parser("validate", help="parse inputs, report problems")
    p_validate.add_argument("--citations")
    p_validate.add_argument("--publications")
    p_validate.add_argument("--aliases")
    p_validate.set_defaults(
        run=lambda args: cmd_validate(args.citations, args.publications, args.aliases)
    )

    return parser


def _config(args) -> RunConfig:
    policy = WindowPolicy()
    if hasattr(args, "window"):  # report and adjust; curves has only a horizon
        policy = WindowPolicy(args.window, args.horizon, args.quantile)
    return RunConfig(
        citations=args.citations,
        publications=getattr(args, "publications", None),
        aliases=args.aliases,
        eval_year=getattr(args, "year", None),
        policy=policy,
        strip_self=getattr(args, "strip_self", False),
        format=getattr(args, "format", "csv"),
        output=getattr(args, "output", None),
        svg_path=getattr(args, "svg", None),
        anomaly=AnomalyThresholds(
            getattr(args, "self_threshold", Fraction(1, 2)),
            getattr(args, "deviation_threshold", Fraction(25)),
        ),
        classification=ClassificationThresholds(
            getattr(args, "hare", Fraction(1, 4)),
            getattr(args, "tortoise", Fraction(3, 20)),
        ),
    )


def _read_lines(path: str):
    return Path(path).read_text(encoding="utf-8").splitlines()


def _load_aliases(config: RunConfig) -> ledger.AliasMap:
    if config.aliases:
        return ledger.parse_alias_csv(_read_lines(config.aliases), source=config.aliases)
    return ledger.EMPTY_ALIASES


def _load_profiles(config: RunConfig, aliases) -> dict[str, ledger.CitationProfile]:
    with open(config.citations, encoding="utf-8") as handle:
        profiles, _ = ledger.read_citation_profiles(handle, aliases, source=config.citations)
    if config.strip_self:
        profiles = {j: ledger.strip_self_references(p) for j, p in profiles.items()}
    return profiles


def _load_publications(config: RunConfig, aliases) -> ledger.PublicationCounts:
    if config.publications:
        return ledger.parse_publication_csv(
            _read_lines(config.publications), aliases, source=config.publications
        )
    return ledger.PublicationCounts()


def _emit(config: RunConfig, text: str) -> None:
    if config.output:
        Path(config.output).write_text(text, encoding="utf-8")
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


def _report_rows(config: RunConfig) -> list[dict]:
    if config.eval_year is None:
        raise ConfigError("report needs an evaluation year")
    aliases = _load_aliases(config)
    profiles = _load_profiles(config, aliases)
    pubs = _load_publications(config, aliases)
    rows = []
    for journal in sorted(profiles, key=str.casefold):
        report = metrics.build_indicator_report(
            profiles[journal], pubs, config.eval_year, config.policy
        )
        data = report.to_json_dict()
        data["class"] = (
            "" if report.coverage is None
            else curves_mod.classify_journal(report.coverage, config.classification)
        )
        rows.append({key: data[key] for key in REPORT_COLUMNS})
    return rows


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


def cmd_report(config: RunConfig) -> int:
    rows = _report_rows(config)
    _emit(config, _render_rows(rows, REPORT_COLUMNS, config.format))
    return 0


def cmd_adjust(config: RunConfig) -> int:
    rows = [{k: row[k] for k in ADJUST_COLUMNS} for row in _report_rows(config)]
    _emit(config, _render_rows(rows, ADJUST_COLUMNS, config.format))
    return 0


def cmd_curves(config: RunConfig, journal: str, horizon: int) -> int:
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    aliases = _load_aliases(config)
    profiles = _load_profiles(config, aliases)
    profile = ledger.find_profile(profiles, journal)
    if profile is None:
        raise CitemetricsError(f"unknown journal {journal!r}")
    volumes = curves_mod.volume_curves(profile)
    standardized, skipped = curves_mod.standardized_volume_curves(volumes)
    for year in skipped:
        print(f"warning: volume {year} has no citations through age 2; "
              "skipped from standardized output", file=sys.stderr)

    out: list[curves_mod.AccrualCurve] = []
    for year in sorted(volumes):
        raw = volumes[year]
        out.append(raw)
        out.append(curves_mod.cumulative(raw))
        if year in standardized:
            out.append(standardized[year])
    horizon = min(horizon, curves_mod.observable_horizon(profile))
    out.append(curves_mod.mean_accrual_curve(list(volumes.values()), horizon))
    _emit(config, curves_mod.curves_to_csv(out))

    if len(standardized) >= 3:
        findings = curves_mod.detect_anomalous_volumes(
            standardized, ledger.volume_self_rates(profile), config.anomaly
        )
        for f in findings:
            print(
                f"warning: {f.reason} in volume {f.pub_year} at age {f.age} "
                f"({float(f.deviation):+.1f} points)",
                file=sys.stderr,
            )

    if config.svg_path:
        series = [
            (str(year), [(age, float(v)) for age, v in enumerate(standardized[year].values)])
            for year in sorted(standardized)
        ]
        if not series:
            raise CitemetricsError(f"{profile.journal!r} has no standardizable volumes")
        chart = emit_svg_chart(
            series,
            x_label="age (years since publication)",
            y_label="cumulative citations (% of age-2 count)",
            title=f"{profile.journal}: standardized citation accrual",
        )
        Path(config.svg_path).write_text(chart, encoding="utf-8")
    return 0


def cmd_synth(spec_ref: str, outdir: str) -> int:
    if spec_ref in synth.FIXTURE_NAMES:
        spec = synth.fixture_spec(spec_ref)
    else:
        spec = synth.parse_synth_spec(
            Path(spec_ref).read_text(encoding="utf-8"), source=spec_ref
        )
    profile, _ = synth.generate_profile(spec)
    target = Path(outdir)
    target.mkdir(parents=True, exist_ok=True)
    citations = ledger.profiles_to_citation_csv({profile.journal: profile})
    publications = [ledger.PUBLICATIONS_HEADER]
    publications += [
        f"{spec.journal},{year},{spec.items_per_year}" for year in spec.pub_years()
    ]
    (target / "citations.csv").write_text(citations, encoding="utf-8")
    (target / "publications.csv").write_text(
        "\n".join(publications) + "\n", encoding="utf-8"
    )
    return 0


def cmd_validate(citations: str | None, publications: str | None,
                 aliases_path: str | None) -> int:
    if not (citations or publications or aliases_path):
        raise ConfigError("validate needs at least one input file")
    aliases = ledger.EMPTY_ALIASES
    if aliases_path:
        aliases = ledger.parse_alias_csv(_read_lines(aliases_path), source=aliases_path)
    if citations:
        with open(citations, encoding="utf-8") as handle:
            _, count = ledger.read_citation_profiles(handle, aliases, source=citations)
        print(f"{citations}: {count} records")
    if publications:
        pubs = ledger.parse_publication_csv(
            _read_lines(publications), aliases, source=publications
        )
        print(f"{publications}: {len(pubs.entries)} entries")
    if aliases_path:
        print(f"{aliases_path}: {len(aliases.entries)} aliases")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CitemetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
