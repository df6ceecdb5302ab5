"""Every module and test parses under the oldest Python that pyproject.toml allows."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_the_python_floor():
    """ast.parse(feature_version=floor) rejects syntax newer than the floor, such
    as `except*` below 3.11.  It checks grammar only: a library call or an
    annotation evaluated at run time that the floor lacks still passes."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    version = (int(floor[1]), int(floor[2]))
    paths = sorted([*(ROOT / "src" / "citemetrics").rglob("*.py"),
                    *(ROOT / "scripts").rglob("*.py"),
                    *(ROOT / "tests").rglob("*.py")])
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_casefold_only_in_journal_identity():
    """ledger.journal_identity is the one rule for when two journal names are
    one journal, so no other code under src/citemetrics may casefold a name."""
    stray = []
    for path in sorted((ROOT / "src" / "citemetrics").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        allowed = set()
        if path.name == "ledger.py":
            rule = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                        and node.name == "journal_identity")
            allowed = set(map(id, ast.walk(rule)))
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "casefold"
                  and id(node) not in allowed]
    assert not stray, stray


def test_citation_writer_restates_no_row_rule():
    """ledger.profiles_to_citation_csv keeps its promise by reading its text
    back, so which years and counts a row may hold stays the readers' rule:
    the writer names none of the bounds."""
    path = ROOT / "src" / "citemetrics" / "ledger.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    writer = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "profiles_to_citation_csv")
    stray = [f"ledger.py:{node.lineno} {node.id}" for node in ast.walk(writer)
             if isinstance(node, ast.Name) and node.id in {"YEAR_MIN", "YEAR_MAX", "MAX_COUNT"}]
    assert not stray, stray


def test_utf8_checked_once_per_format():
    """Each line's UTF-8 check has one owner per format: ledger._data_lines
    for a CSV header, ledger._fields for a CSV data line and
    synth.parse_synth_spec for a spec line."""
    calls = []
    for path in sorted((ROOT / "src" / "citemetrics").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        owner = {}  # node -> its innermost function, as ast.walk visits outer ones first
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), function.name) for node in ast.walk(function))
        calls += [f"{path.name}:{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(
                      node.func, "attr", getattr(node.func, "id", None)) == "check_utf8"]
    assert sorted(calls) == [
        "ledger.py:_data_lines", "ledger.py:_fields", "synth.py:parse_synth_spec"], calls


def _private_reads(source: str) -> list[str]:
    """Each `module._name` read, and each `_name` imported, from a citemetrics
    module in source, in line order.  Dunders such as `int.__repr__` are not
    private."""
    def private(attr: str) -> bool:
        return attr.startswith("_") and not attr.endswith("__")

    tree = ast.parse(source, "cli.py")
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "citemetrics"):
            if node.module in (None, "citemetrics"):  # `from . import metrics`
                modules.update(alias.asname or alias.name for alias in node.names)
            reads += [(node.lineno, alias.name) for alias in node.names if private(alias.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            reads.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"cli.py:{line} {what}" for line, what in sorted(reads)]


def test_cli_reads_no_private_name_of_another_module():
    """The CLI runs each module's public functions, so a private name stays
    free to change inside its module."""
    assert _private_reads("from . import metrics, ledger\nfrom .svg import _lines, chart\n"
                          "metrics._ratios(ledger.__doc__, int.__repr__, _lines)\n"
                          "from citemetrics import curves as c\nc._chunks\n") == [
        "cli.py:2 _lines", "cli.py:3 metrics._ratios", "cli.py:5 c._chunks"]
    path = ROOT / "src" / "citemetrics" / "cli.py"
    assert _private_reads(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", ["cli.py", "metrics.py"])
def test_cli_reads_no_cells(module):
    """Which cells count (for a curve, a rate or a report) is decided in ledger
    and curves: the CLI hands them whole profiles, and every report number
    reads its cells through curves.observe, so neither reads a `.cells`."""
    path = ROOT / "src" / "citemetrics" / module
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "cells"] == []


def test_decoding_rule_written_once():
    """How input bytes become text is ledger's rule: every other reader takes
    it from there, so the error handler is named once under src/citemetrics."""
    named = []
    for path in sorted((ROOT / "src" / "citemetrics").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        named += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value == "surrogateescape"]
    assert len(named) == 1, named


def test_one_as_of_mean():
    """curves.as_of_mean builds every journal mean, with the one horizon clamp:
    only curves builds a ragged mean, and the CLI neither clamps a horizon nor
    averages or measures volume curves itself."""
    stray = []
    for path in sorted((ROOT / "src" / "citemetrics").rglob("*.py")):
        banned = set() if path.name == "curves.py" else {"ragged_mean"}
        if path.name == "cli.py":
            banned |= {"clamp_horizon", "mean_accrual_curve", "max_age"}
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(
                      node.func, "attr", getattr(node.func, "id", None)) in banned]
    assert not stray, stray


def test_report_values_become_text_only_through_the_type_tables():
    """cli._render_rows encodes each report value by its type, through the
    format's per-type table: no code in cli.py tests a type with isinstance
    or compares with a REPORT_COLUMNS name."""
    from citemetrics.cli import REPORT_COLUMNS

    path = ROOT / "src" / "citemetrics" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    stray = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"]
    stray += [f"cli.py:{node.lineno}" for node in ast.walk(tree)
              if isinstance(node, ast.Compare) and any(
                  isinstance(side, ast.Constant) and side.value in REPORT_COLUMNS
                  for side in [node.left, *node.comparators])]
    assert not stray, stray
