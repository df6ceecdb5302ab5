#!/usr/bin/env python3
"""Layered benchmark of citemetrics.

Run from the repository root:

    python3 bench/run.py --workload ingest-1m --seed 1 --seconds 30 --trace 0

--trace 0 generates the workload's inputs from the seed, then runs the
workload's `python -m citemetrics` command as a subprocess, one at a time,
for --seconds, each run followed by runs of the fixed reference job
reference.py and two `validate` runs.  Every run's stdout (and chart) must be
byte-identical to the same computation done in-process through the library.
It reports the end-to-end metrics listed in BENCHMARK.json, with times scaled
by the reference job's speed in the same run.

--trace 1 runs that in-process computation instead, alternating untraced
and traced repetitions, with a span around every library call.  It reports
the per-layer metrics, prints each layer's self time, and writes the spans
to .bench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  README.md in this directory describes the
workloads and which metric moves with which layer.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
LAUNCHER = Path(__file__).resolve().with_name("launch.py")
REFERENCE_JOB = Path(__file__).resolve().with_name("reference.py")

SETUP_PER_RUN = 2  # timed `validate` runs behind setup_s, per workload run
MIN_RUNS = 5  # fewest workload runs, however long each takes

# A shared host switches between fast and slow phases, up to 1.8x apart and
# lasting from seconds to a minute, so a run's median mostly says which phase
# it fell in.  The reference job runs between the workload runs, for about
# REFERENCE_SHARE of their time, and sees the same phases.  Every time metric
# is a mean over the run scaled by REFERENCE_S over the reference job's mean
# wall time: the time on a host where the reference job takes REFERENCE_S,
# about its mean on the 2-vCPU machine the benchmark was tuned on.
REFERENCE_S = 0.35
REFERENCE_SHARE = 0.4
REFERENCE_OUTPUT = b'{"journals": 499, "max_share": "1071/8314"}\n'


def _spawn(command: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, int, float]:
    """Run command; return wall seconds, exit code, peak RSS in MB."""
    done = subprocess.run(
        [sys.executable, str(LAUNCHER), str(stdout_path), str(stderr_path), *command],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    result = json.loads(done.stdout)
    return result["wall_s"], result["exit"], result["peak_rss_kb"] / 1024


class Checker:
    """Runs the CLI and counts runs whose exit code or output is wrong."""

    def __init__(self, workdir: Path):
        self.stdout = workdir / "stdout.txt"
        self.stderr = workdir / "stderr.txt"
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def run(self, argv, expected: bytes, svg=None, expected_svg=None) -> tuple[float, float]:
        """Run `python -m citemetrics argv` and check it; return wall seconds, peak RSS in MB."""
        if svg is not None:
            svg.unlink(missing_ok=True)
        wall, code, rss_mb = _spawn([sys.executable, "-m", "citemetrics", *argv],
                                    self.stdout, self.stderr)
        ok = code == 0 and self.stdout.read_bytes() == expected
        if svg is not None:
            ok = ok and svg.is_file() and svg.read_bytes() == expected_svg
        if not ok:
            sys.stderr.write(self.stderr.read_text(encoding="utf-8", errors="replace")[-2000:])
        self.record(ok, f"citemetrics {' '.join(argv)} (exit {code})")
        return wall, rss_mb

    def reference(self) -> float:
        """Run reference.py and check its output; return its wall seconds."""
        wall, code, _ = _spawn([sys.executable, str(REFERENCE_JOB)], self.stdout, self.stderr)
        self.record(code == 0 and self.stdout.read_bytes() == REFERENCE_OUTPUT,
                    f"reference job (exit {code})")
        return wall


def end_to_end(inputs, seconds: float, workdir: Path):
    """Time the workload's CLI command; returns (metrics, samples, checker, journals)."""
    import pipeline
    from citemetrics import ledger

    check = Checker(workdir)
    reference = pipeline.run(inputs, pipeline.NullTracer(), extra=False)
    check.record(reference.cell_total == inputs.count_sum,
                 "conservation: profile cell totals differ from the ledger's count sum")
    expected = reference.stdout.encode("utf-8")
    expected_svg = reference.svg.encode("utf-8") if reference.svg is not None else None

    header = workdir / "header.csv"
    header.write_text(ledger.CITATIONS_HEADER + "\n", encoding="utf-8")
    setup_argv = ["validate", "--citations", str(header)]
    setup_expected = f"{header}: 0 records\n".encode("utf-8")

    def workload_run():
        return check.run(inputs.argv(), expected, inputs.svg, expected_svg)

    def setup_run():
        return check.run(setup_argv, setup_expected)[0]

    # One untimed round first: it compiles bytecode and fills the page cache,
    # and sets how many reference runs follow each workload run.
    per_run = math.ceil(REFERENCE_SHARE * workload_run()[0] / check.reference())
    setup_run()
    walls, rss, references, setup = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_RUNS or time.perf_counter() < deadline:
        wall, rss_mb = workload_run()
        walls.append(wall)
        rss.append(rss_mb)
        references += [check.reference() for _ in range(per_run)]
        setup += [setup_run() for _ in range(SETUP_PER_RUN)]

    scale = REFERENCE_S / statistics.mean(references)
    wall_s = statistics.mean(walls) * scale
    values = {
        "wall_s": wall_s,
        "rows_per_s": inputs.rows / wall_s,
        "setup_s": statistics.mean(setup) * scale,
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"raw_wall_s": walls, "raw_setup_s": setup, "reference_s": references,
               "peak_rss_mb": rss, "scale": scale}
    return values, samples, check, reference.counts["ledger.journals"]


def _self_times(spans) -> dict[str, float]:
    """Self seconds per "root/layer": span time minus the time of its child spans."""
    children = defaultdict(float)
    root = {}
    for span_id, _, start, end, parent in spans:
        root[span_id] = span_id if parent is None else root[parent]
        if parent is not None:
            children[parent] += end - start
    out = defaultdict(float)
    for span_id, name, start, end, _ in spans:
        key = f"{spans[root[span_id]][1]}/{name.split('.')[0]}"
        out[key] += end - start - children[span_id]
    return out


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def traced(inputs, seconds: float, workdir: Path, spans_path: Path):
    """Per-layer run; returns (metrics, samples, checker, journals, self times)."""
    import pipeline

    check = Checker(workdir)
    took = {True: [], False: []}
    stages, self_times, spans_out = [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    rep = 0
    # Untraced and traced repetitions alternate in the order U T T U U T ...
    # and always come in pairs, so drift affects both sides alike.
    while rep < 2 or rep % 2 or time.perf_counter() < deadline:
        is_traced = rep % 4 in (1, 2)
        tracer = pipeline.Tracer() if is_traced else pipeline.NullTracer()
        start = time.perf_counter()
        outcome = pipeline.run(inputs, tracer, extra=True)
        took[is_traced].append(time.perf_counter() - start)
        first = first or outcome
        check.record(
            outcome.cell_total == inputs.count_sum
            and (outcome.stdout, outcome.svg, outcome.extra)
            == (first.stdout, first.svg, first.extra),
            f"repetition {rep}: output differs from repetition 0 or counts are not conserved",
        )
        if is_traced:
            spans = tracer.spans
            sums = defaultdict(float)
            for _, name, begin, end, _ in spans:
                sums[name] += end - begin
            sums["journal_ms"] = [
                (end - begin) * 1000 for _, name, begin, end, _ in spans
                if name == pipeline.JOURNAL_SPAN
            ]
            stages.append(sums)
            self_times.append(_self_times(spans))
            spans_out += [
                {"rep": rep, "id": i, "name": name, "start": begin - tracer.origin,
                 "end": end - tracer.origin, "parent": parent, "workload": inputs.workload}
                for i, name, begin, end, parent in spans
            ]
        rep += 1

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(spans_out), encoding="utf-8")

    values = dict(first.counts)
    values["ledger.distinct_keys"] = inputs.distinct_keys
    values["ledger.dup_ratio"] = inputs.rows / inputs.distinct_keys
    for stage in ("ledger.parse", "ledger.fold", "ledger.aux_parse", "ledger.strip",
                  "ledger.self_rates", "curves.volume", "curves.mean", "curves.standardize",
                  "curves.anomaly", "curves.csv", "metrics.report", "cli.render",
                  "svg.render"):
        values[stage + "_s"] = statistics.median(s[stage] for s in stages)
    values["metrics.journal_ms.p50"] = statistics.median(
        _nearest_rank(s["journal_ms"], 0.5) for s in stages)
    values["metrics.journal_ms.p99"] = statistics.median(
        _nearest_rank(s["journal_ms"], 0.99) for s in stages)
    values["trace.total_s"] = statistics.median(took[True])
    values["trace.overhead_s"] = statistics.median(took[True]) - statistics.median(took[False])
    layer_self = {key: statistics.median(s.get(key, 0.0) for s in self_times)
                  for key in sorted({k for s in self_times for k in s})}
    samples = {"traced_s": took[True], "untraced_s": took[False]}
    return values, samples, check, first.counts["ledger.journals"], layer_self


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package sources, which names the code in a checkout without git."""
    digest = hashlib.sha256()
    package = SRC / "citemetrics"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and p.suffix != ".pyc"):
        digest.update(str(path.relative_to(package)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "citemetrics" / "__init__.py").is_file():
        print(f"error: no citemetrics sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import citemetrics
    import workloads

    if Path(citemetrics.__file__).resolve().parent != SRC / "citemetrics":
        print(f"error: imported citemetrics from {citemetrics.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    tag = f"{args.workload}-seed{args.seed}"
    workdir = WORK_DIR / tag
    layer_self = {}
    try:
        inputs = workloads.generate(args.workload, args.seed, workdir)
        if args.trace:
            if args.workload == "ingest-1m":
                workloads.check_criterion_8()
            values, samples, check, journals, layer_self = traced(
                inputs, args.seconds, workdir, OUT_DIR / f"spans-{tag}.json")
        else:
            values, samples, check, journals = end_to_end(inputs, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ledger.rows": inputs.rows,
        "ledger.journals": journals,
        "input_bytes": inputs.bytes_on_disk,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(
        {"env": env, "metrics": metrics, "samples": samples, "layer_self_s": layer_self,
         "attempted": check.attempted, "failed": check.failed}, indent=2) + "\n",
        encoding="utf-8")

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        line = f"{name:<24} {shown} {metric['unit']}"
        raw = samples.get("raw_" + name)
        if raw:
            line += (f"  mean of {len(raw)}, scaled; unscaled mean {statistics.mean(raw):.6g},"
                     f" median {statistics.median(raw):.6g}"
                     f" (min {min(raw):.6g}, max {max(raw):.6g})")
        elif name in samples:
            runs = samples[name]
            line += f"  median of {len(runs)} (min {min(runs):.6g}, max {max(runs):.6g})"
        print(line)
    if "reference_s" in samples:
        runs = samples["reference_s"]
        print(f"reference job mean of {len(runs)}: {statistics.mean(runs):.6g} s "
              f"(nominal {REFERENCE_S} s), so times are scaled by {samples['scale']:.6g}")
    for key, seconds in layer_self.items():
        print(f"self {key:<22} {seconds:>16.6g} s")
    print(f"error_rate {check.failed / check.attempted:.6g} "
          f"({check.failed} of {check.attempted} runs failed)")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
