"""The workload's command done in-process through the library, with spans.

`run` repeats, stage by stage, what `python -m citemetrics report` or
`curves` does, calling the public functions of ledger, curves, metrics,
cli and svg.  Its output is the reference the CLI's output must match byte
for byte.  Given a Tracer, it records one span around each of those calls;
given a NullTracer it makes the same calls untraced.

With extra=True it then runs, under a second root span, the stages that the
command skips on the same ledger (stripping, and the other of report and
curves), so that every per-layer metric is measured on every workload.
"""
from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from citemetrics import cli, curves, ledger, metrics, svg

COMMAND_ROOT = "bench.command"
EXTRA_ROOT = "bench.extra"
JOURNAL_SPAN = "bench.journal"


class Tracer:
    """Keeps every span in memory as [id, name, start, end, parent id]."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self._open: list[list] = []
        self._name = ""

    def span(self, name: str) -> "Tracer":
        self._name = name
        return self

    def __enter__(self):
        parent = self._open[-1][0] if self._open else None
        record = [len(self.spans), self._name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._open.append(record)

    def __exit__(self, *exc):
        self._open.pop()[3] = time.perf_counter()


class NullTracer:
    """Same interface as Tracer; records nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


@dataclass(frozen=True)
class Outcome:
    stdout: str  # what the command prints
    svg: str | None  # the chart the command writes, if any
    extra: str  # output of the extra stages, checked only for determinism
    cell_total: int  # sum of profile cell totals before stripping
    counts: dict[str, int]


@dataclass(frozen=True)
class _View:
    csv: str
    svg: str
    points: int
    findings: int
    skipped: int


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _strip(tr, profiles):
    stripped = {}
    for journal, profile in profiles.items():
        with tr.span("ledger.strip"):
            stripped[journal] = ledger.strip_self_references(profile)
    return stripped


def _report(tr, inputs, profiles, aliases) -> tuple[str, int]:
    with tr.span("ledger.aux_parse"):
        pubs = ledger.parse_publication_csv(
            _lines(inputs.publications), aliases, source=str(inputs.publications)
        )
    policy = metrics.WindowPolicy()
    reports = []
    for journal in sorted(profiles, key=str.casefold):
        profile = profiles[journal]
        with tr.span(JOURNAL_SPAN):
            with tr.span("curves.mean"):
                mean = metrics.journal_mean_curve(profile, policy.horizon)
            with tr.span("metrics.report"):
                reports.append(
                    metrics.build_indicator_report(profile, pubs, inputs.year, policy, mean)
                )
    with tr.span("cli.render"):
        rows = []
        for report in reports:
            data = report.to_json_dict()
            data["class"] = ""
            if report.coverage is not None:
                with tr.span("curves.classify"):
                    data["class"] = curves.classify_journal(report.coverage)
            rows.append({key: data[key] for key in cli.REPORT_COLUMNS})
        text = cli._render_rows(rows, cli.REPORT_COLUMNS, inputs.fmt)
    return text, sum(1 for report in reports if report.flags)


def _curves(tr, profiles, journal: str) -> _View:
    with tr.span("ledger.find"):
        profile = ledger.find_profile(profiles, journal)
    with tr.span("curves.volume"):
        volumes = curves.volume_curves(profile)
    with tr.span("curves.standardize"):
        standardized, skipped = curves.standardized_volume_curves(volumes)
    with tr.span("curves.mean"):
        horizon = min(metrics.WindowPolicy().horizon, curves.observable_horizon(profile))
        mean = curves.mean_accrual_curve(list(volumes.values()), horizon)
    with tr.span("cli.render"):
        table = []
        for year in sorted(volumes):
            table.append(volumes[year])
            with tr.span("curves.cumulative"):
                table.append(curves.cumulative(volumes[year]))
            if year in standardized:
                table.append(standardized[year])
        table.append(mean)
    with tr.span("curves.csv"):
        text = curves.curves_to_csv(table)
    findings = []
    if len(standardized) >= 3:
        with tr.span("ledger.self_rates"):
            rates = ledger.volume_self_rates(profile)
        with tr.span("curves.anomaly"):
            findings = curves.detect_anomalous_volumes(standardized, rates)
    with tr.span("cli.render"):
        series = [
            (str(year), [(age, float(v)) for age, v in enumerate(standardized[year].values)])
            for year in sorted(standardized)
        ]
    with tr.span("svg.render"):
        chart = svg.emit_svg_chart(
            series,
            x_label="age (years since publication)",
            y_label="cumulative citations (% of age-2 count)",
            title=f"{profile.journal}: standardized citation accrual",
        )
    return _View(text, chart, sum(len(c.values) for c in table), len(findings), len(skipped))


def run(inputs, tr, extra: bool) -> Outcome:
    """Do the workload's command in-process; with extra, also the stages it skips."""
    report = view = None
    with tr.span(COMMAND_ROOT):
        aliases = ledger.EMPTY_ALIASES
        if inputs.aliases is not None:
            with tr.span("ledger.aux_parse"):
                aliases = ledger.parse_alias_csv(_lines(inputs.aliases), source=str(inputs.aliases))
        with tr.span("ledger.parse"):
            with open(inputs.citations, encoding="utf-8") as handle:
                records = list(
                    ledger.iter_citation_records(handle, aliases, source=str(inputs.citations))
                )
        with tr.span("ledger.fold"):
            loaded = ledger.build_profiles(records)
        profiles = _strip(tr, loaded) if inputs.strip_self else loaded
        if inputs.command == "report":
            report = _report(tr, inputs, profiles, aliases)
        else:
            view = _curves(tr, profiles, inputs.journal)
    stdout = report[0] if report else view.csv
    command_svg = view.svg if view else None

    extra_text = ""
    if extra:
        with tr.span(EXTRA_ROOT):
            if not inputs.strip_self:
                _strip(tr, loaded)
            if report is None:
                report = _report(tr, inputs, profiles, aliases)
                extra_text = report[0]
            else:
                busiest = max(profiles.values(), key=lambda p: p.total_citations())
                view = _curves(tr, profiles, busiest.journal)
                extra_text = view.csv + view.svg

    counts = {
        "ledger.rows": len(records),
        "ledger.cells": sum(len(p.cells) for p in loaded.values()),
        "ledger.journals": len(loaded),
        "metrics.flagged_rows": report[1] if report else 0,
        "curves.points": view.points if view else 0,
        "curves.findings": view.findings if view else 0,
        "curves.skipped": view.skipped if view else 0,
        "cli.output_bytes": len(stdout.encode("utf-8")),
        "svg.bytes": len(view.svg.encode("utf-8")) if view else 0,
    }
    cell_total = sum(p.total_citations() for p in loaded.values())
    return Outcome(stdout, command_svg, extra_text, cell_total, counts)
