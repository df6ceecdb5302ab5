from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import citemetrics
from citemetrics import synth
from citemetrics.curves import FloatColumn
from citemetrics.ledger import CellCount, CitationProfile


@pytest.fixture(scope="session")
def hare():
    spec = synth.fixture_spec("hare")
    profile, pubs = synth.generate_profile(spec)
    return spec, profile, pubs


@pytest.fixture(scope="session")
def tortoise():
    spec = synth.fixture_spec("tortoise")
    profile, pubs = synth.generate_profile(spec)
    return spec, profile, pubs


def make_profile(journal, cells):
    """Profile from {(cited_year, citing_year): (total, self)} pairs."""
    return CitationProfile(
        journal, {key: CellCount(total, self_count) for key, (total, self_count) in cells.items()}
    )


def assert_one_form(curve, exact):
    """Check that `curve` holds int numerators over one positive int scale,
    and that its values are the exact per-age values `exact`."""
    assert all(type(n) is int for n in curve.numerators)
    assert type(curve.scale) is int and curve.scale > 0
    assert list(FloatColumn(curve)) == [float(v) for v in curve.values]
    assert curve.values == tuple(exact)


def run_python(*args, env=None, text=True) -> subprocess.CompletedProcess:
    """Run `python *args` in a child that imports this process's citemetrics,
    installed or not, with the variables in `env` added to its environment."""
    package_root = str(Path(citemetrics.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=text, env={**os.environ, **(env or {}), "PYTHONPATH": path},
    )
