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
import sys
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Iterable

from . import ledger
from .errors import CitemetricsError, ConfigError
from .fixtures import FIXTURE_NAMES
from .settings import AnomalyThresholds, ClassificationThresholds, WindowPolicy

# Each command imports the modules only it runs (curves, metrics, svg, synth,
# json) in its own body, so no run loads code it does not use.

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

    def add_inputs(p, publications=True, required=True):
        p.add_argument("--citations", required=required, help="citation ledger CSV")
        if publications:
            p.add_argument("--publications", help="citeable-item counts CSV")
        p.add_argument("--aliases", help="journal alias CSV")

    # Every default is the settings class's own; the help texts print it.
    policy, classification, anomaly = (
        WindowPolicy(), ClassificationThresholds(), AnomalyThresholds())
    horizon = dict(type=int, default=policy.horizon,
                   help=f"age horizon of mean curves and coverage (default {policy.horizon})")
    strip_self = dict(action="store_true", help="remove self-references before computing")

    def add_policy(p):
        p.add_argument("--year", type=int, required=True, help="evaluation year")
        p.add_argument("--window", type=_ages, default=policy.window_ages,
                       help="item ages in the citation window "
                            f"(default {','.join(map(str, policy.window_ages))})")
        p.add_argument("--horizon", **horizon)
        p.add_argument("--quantile", type=_fraction, default=policy.target_quantile,
                       help="target quantile for scaling "
                            f"(default {float(policy.target_quantile):g})")
        p.add_argument("--strip-self", **strip_self)
        p.add_argument("--hare", type=_fraction, default=classification.hare,
                       help="coverage at or above which a journal is a Hare "
                            f"(default {float(classification.hare):g})")
        p.add_argument("--tortoise", type=_fraction, default=classification.tortoise,
                       help="coverage at or below which a journal is a Tortoise "
                            f"(default {float(classification.tortoise):g})")

    for name, columns, summary in (("report", REPORT_COLUMNS, "full indicator table"),
                                   ("adjust", ADJUST_COLUMNS, "scaling columns only")):
        p_table = sub.add_parser(name, help=summary)
        add_inputs(p_table)
        add_policy(p_table)
        p_table.add_argument("--format", choices=("csv", "json"), default="csv",
                             help="output format, csv unless json is given")
        p_table.add_argument("-o", "--output", help="write here instead of stdout")
        p_table.set_defaults(run=cmd_table, columns=columns)

    p_curves = sub.add_parser("curves", help="accrual curves for one journal")
    p_curves.add_argument("journal", help="journal name (case-insensitive)")
    add_inputs(p_curves, publications=False)
    p_curves.add_argument("--horizon", **horizon)
    p_curves.add_argument("--strip-self", **strip_self)
    p_curves.add_argument("--self-threshold", type=_fraction, default=anomaly.self_rate,
                          help="self-rate flagged as a spike "
                               f"(default {float(anomaly.self_rate):g})")
    p_curves.add_argument("--deviation-threshold", type=_fraction,
                          default=anomaly.deviation_pp,
                          help="standardized deviation flagged, in points "
                               f"(default {float(anomaly.deviation_pp):g})")
    p_curves.add_argument("--svg", help="also draw standardized curves to this file")
    p_curves.add_argument("-o", "--output", help="write here instead of stdout")
    p_curves.set_defaults(run=cmd_curves)

    p_synth = sub.add_parser("synth", help="expand a synthetic spec to ledger files")
    p_synth.add_argument("spec", help="spec file path, or a bundled name "
                                      f"({', '.join(FIXTURE_NAMES)})")
    p_synth.add_argument("--outdir", required=True, help="directory for the CSV files")
    p_synth.set_defaults(run=cmd_synth)

    p_validate = sub.add_parser("validate", help="parse inputs, report problems")
    add_inputs(p_validate, required=False)
    p_validate.set_defaults(run=cmd_validate)

    return parser


def _read(path: str, parse, *args):
    """`parse(lines, *args, source=path)` over the input file at path, opened
    by ledger.open_input, as ledger.read_citation_file opens the ledger."""
    with ledger.open_input(path) as handle:
        return parse(handle, *args, source=path)


def _load_aliases(path: str | None) -> ledger.AliasMap:
    return _read(path, ledger.parse_alias_csv) if path else ledger.EMPTY_ALIASES


def _load_profiles(args, aliases) -> dict[str, ledger.CitationProfile]:
    return ledger.read_citation_file(args.citations, aliases, strip_self=args.strip_self)[0]


def _load_publications(path: str | None, aliases) -> ledger.PublicationCounts:
    if path:
        return _read(path, ledger.parse_publication_csv, aliases)
    return ledger.PublicationCounts()


def _emit(output: str | None, chunks: Iterable[str]) -> None:
    """Write the text chunks as UTF-8 to the file at output, or to stdout.

    stdout gets the bytes the file would, whatever the locale's encoding.
    A stdout with no byte layer (an io.StringIO put in its place) gets the
    text.
    """
    if output:
        with open(output, "wb") as handle:
            handle.writelines(map(str.encode, chunks))
        return
    stream = getattr(sys.stdout, "buffer", None)
    if stream is None:
        sys.stdout.writelines(chunks)
        return
    sys.stdout.flush()
    stream.writelines(map(str.encode, chunks))
    stream.flush()


def _render_rows(rows: list[dict], columns: tuple[str, ...], fmt: str) -> str:
    """Each row's `columns`, in that order, as CSV or JSON: `columns` picks which
    of the REPORT_COLUMNS keys that metrics.report_rows gives to print.

    Both formats walk the rows once, encoding each value by the entry for
    its type in the format's `text` table; only the layout differs.  The JSON
    is the text json.dumps writes for the rows at indent 2, plus a line end,
    byte for byte: its table holds the C-level functions json's own encoder
    uses, and the layout is written here, so json's pure-Python indent
    encoder never runs.
    """
    # Each type a row's values have in metrics.report_rows, the class included.
    if fmt == "json":
        from json.encoder import encode_basestring_ascii as string  # only JSON output loads json

        def string_list(items: list[str]) -> str:  # the flags, at the depth of a row's values
            if not items:
                return "[]"
            return "[\n      " + ",\n      ".join(map(string, items)) + "\n    ]"

        text = {str: string, int: int.__repr__, float: float.__repr__,
                type(None): lambda _: "null", list: string_list}
    else:
        text = {str: str, int: int.__repr__, float: float.__repr__,
                type(None): lambda _: "", list: "|".join}
    cells = ([text[type(value)](value) for value in map(row.__getitem__, columns)]
             for row in rows)
    if fmt != "json":
        return "\n".join(map(",".join, chain([columns], cells))) + "\n"
    if not rows:
        return "[]\n"
    heads = [f"{string(column)}: " for column in columns]
    return "[\n  {\n    " + "\n  },\n  {\n    ".join(
        ",\n    ".join(map(add, heads, line)) for line in cells) + "\n  }\n]\n"


def cmd_table(args) -> int:
    """report and adjust: one row per journal, printing args.columns."""
    _emit(args.output, [_render_rows(_table_rows(args), args.columns, args.format)])
    return 0


def _table_rows(args) -> list[dict]:
    # A function of its own, so the profiles are freed before rendering.
    from . import metrics

    if not ledger.YEAR_MIN <= args.year <= ledger.YEAR_MAX:
        raise ConfigError(f"year must be in {ledger.YEAR_MIN}..{ledger.YEAR_MAX}")
    policy = WindowPolicy(args.window, args.horizon, args.quantile)
    classification = ClassificationThresholds(args.hare, args.tortoise)
    aliases = _load_aliases(args.aliases)
    profiles = _load_profiles(args, aliases)
    pubs = _load_publications(args.publications, aliases)
    return metrics.report_rows(profiles, pubs, args.year, policy, classification)


def cmd_curves(args) -> int:
    from . import curves

    anomaly = AnomalyThresholds(args.self_threshold, args.deviation_threshold)
    if args.horizon < 0:
        raise ConfigError("horizon must be >= 0")
    aliases = _load_aliases(args.aliases)
    profiles = _load_profiles(args, aliases)
    profile = ledger.find_profile(profiles, aliases.resolve(args.journal))
    if profile is None:
        raise CitemetricsError(f"unknown journal {args.journal!r}")
    journal = profile.journal
    # One observation gives the volume curves and the mean row.  Held: the raw
    # curves and the standardized ones (each age's anomaly median reads all).
    observation = curves.observe(profile)
    volumes = curves.as_of_volume_curves(profile, observation)
    mean = curves.as_of_mean(journal, observation, args.horizon)
    rates = ledger.volume_self_rates(profile)
    del profiles, profile  # the ledger is freed here
    standardized, skipped = curves.standardized_volume_curves(volumes)
    for error in skipped:
        print(f"warning: volume {error.pub_year} {error.reason}; skipped from standardized output",
              file=sys.stderr)
    if args.svg:  # before the table, so an unwritable chart path leaves no table
        if not standardized:
            raise CitemetricsError(f"{journal!r} has no standardizable volumes")
        from .svg import chart_lines  # only here, so other runs never compile it

        _emit(args.svg, chart_lines(
            [(str(year), range(len(curve.numerators)), curves.FloatColumn(curve))
             for year, curve in sorted(standardized.items())],
            x_label="age (years since publication)",
            y_label="cumulative citations (% of age-2 count)",
            title=f"{journal}: standardized citation accrual",
        ))

    # Each cumulative curve is made when its chunk of the table is due.
    table = (curve for year in sorted(volumes)
             for curve in (volumes[year], curves.cumulative(volumes[year]),
                           standardized.get(year))
             if curve is not None)
    _emit(args.output, curves.csv_chunks(chain(table, [mean])))

    if len(standardized) < 3:
        print(f"warning: {journal!r} has {len(standardized)} standardized "
              f"volumes, fewer than 3; {curves.ACCRUAL_DEVIATION} and "
              f"{curves.SELF_CITATION_SPIKE} tests skipped", file=sys.stderr)
        return 0
    if args.strip_self:
        print(f"warning: --strip-self removes self-citations; "
              f"{curves.SELF_CITATION_SPIKE} test skipped", file=sys.stderr)
    findings = curves.detect_anomalous_volumes(standardized, rates, anomaly)
    for f in findings:
        print(
            f"warning: {f.reason} in volume {f.pub_year} at age {f.age} "
            f"({float(f.deviation):+.1f} points)",
            file=sys.stderr,
        )
    return 0


def cmd_synth(args) -> int:
    from pathlib import Path

    from . import synth  # only here, so other commands never compile it

    if args.spec in FIXTURE_NAMES:
        spec = synth.fixture_spec(args.spec)
    else:
        spec = _read(args.spec, synth.parse_synth_spec)
    profile, pubs = synth.generate_profile(spec)
    citations = ledger.profiles_to_citation_csv({profile.journal: profile})
    target = Path(args.outdir)
    target.mkdir(parents=True, exist_ok=True)
    publications = [ledger.PUBLICATIONS_HEADER]
    publications += [f"{pubs.journals[identity]},{year},{items}"
                     for (identity, year), items in pubs.entries.items()]
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
        _, count = ledger.read_citation_file(args.citations, aliases)
        _emit(None, [f"{args.citations}: {count} records\n"])
    if args.publications:
        pubs = _load_publications(args.publications, aliases)
        _emit(None, [f"{args.publications}: {len(pubs.entries)} entries\n"])
    if args.aliases:
        _emit(None, [f"{args.aliases}: {len(aliases.entries)} aliases\n"])
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
