"""The benchmark's own byte check, run on seed-7 inputs.

bench/run.py counts a run as failed unless the CLI's output equals, byte
for byte, the same command done in-process through the library
(bench/pipeline.py).  This runs that comparison here, so a library view
that the CLI no longer runs cannot drift from the CLI unnoticed.  The
bench modules are imported as they are, never changed.
"""
from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from citemetrics.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["deep-curves", "wide-2k"])
def test_cli_output_is_the_benchmark_reference(monkeypatch, tmp_path, capfdbinary, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    pipeline = importlib.import_module("pipeline")
    inputs = workloads.generate(workload, 7, tmp_path)
    expected = pipeline.run(inputs, pipeline.NullTracer(), extra=False)
    assert expected.cell_total == inputs.count_sum
    capfdbinary.readouterr()
    assert main(inputs.argv()) == 0
    assert capfdbinary.readouterr().out == expected.stdout.encode("utf-8")
    if inputs.svg is None:
        assert expected.svg is None
    else:
        assert inputs.svg.read_bytes() == expected.svg.encode("utf-8")
