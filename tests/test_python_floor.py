"""Every module and test parses under the oldest Python that pyproject.toml allows."""
from __future__ import annotations

import ast
import re
from pathlib import Path

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
