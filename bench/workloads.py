"""Seeded inputs for the benchmark workloads.

Each workload is one `python -m citemetrics` invocation on files generated
here from the run's seed; the same seed gives byte-identical files.  See
README.md in this directory for why each workload exists.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from citemetrics import ledger, synth

WORKLOADS = ("ingest-1m", "wide-2k", "deep-curves")
EVAL_YEAR = 2004

# sha256 of the ledger text that tests/test_acceptance.py criterion 8 builds
# (random.Random(8), 1e6 rows, "\n"-joined, no trailing newline).
CRITERION_8_SHA256 = "9e9a8e94cd3f9a227df20a2a3584f6b52be1db839edb43208f9da989c147bbae"

DEEP_JOURNAL = "Deep Annals"


@dataclass(frozen=True)
class Inputs:
    """Generated files of one workload plus what the benchmark knows about them."""

    workload: str
    command: str  # "report" or "curves"
    citations: Path
    publications: Path
    aliases: Path | None
    journal: str | None  # the journal `curves` is asked for
    strip_self: bool
    fmt: str
    svg: Path | None  # where the CLI writes its chart
    rows: int  # ledger data rows
    distinct_keys: int  # distinct (citing, citing_year, cited, cited_year) texts
    count_sum: int  # sum of the count column, for the conservation check
    bytes_on_disk: int
    year: int = EVAL_YEAR

    def argv(self) -> list[str]:
        """Arguments after `python -m citemetrics` for this workload."""
        if self.command == "curves":
            args = ["curves", self.journal, "--citations", str(self.citations),
                    "--svg", str(self.svg)]
        else:
            args = ["report", "--citations", str(self.citations),
                    "--publications", str(self.publications), "--year", str(self.year)]
        if self.aliases is not None:
            args += ["--aliases", str(self.aliases)]
        if self.strip_self:
            args.append("--strip-self")
        if self.fmt != "csv":
            args += ["--format", self.fmt]
        return args


def criterion_8_lines(rng: random.Random) -> list[str]:
    """Criterion 8's ledger recipe: same journals, ranges and draw order."""
    journals = [f"Journal {chr(65 + i)}" for i in range(20)]
    rows = [ledger.CITATIONS_HEADER]
    for _ in range(1_000_000):
        cited = rng.randint(1984, 2004)
        rows.append(
            f"{rng.choice(journals)},{cited + rng.randint(0, 2004 - cited)},"
            f"{rng.choice(journals)},{cited},{rng.randint(1, 9)}"
        )
    return rows


def check_criterion_8(rows: list[str] | None = None) -> None:
    """Raise unless criterion_8_lines at seed 8 (or the given rows) hash to the pinned digest."""
    if rows is None:
        rows = criterion_8_lines(random.Random(8))
    if hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest() != CRITERION_8_SHA256:
        raise RuntimeError("ingest-1m generator no longer reproduces criterion 8's ledger")


def _ingest_1m(rng: random.Random, seed: int) -> tuple[list[str], list[str], None]:
    rows = criterion_8_lines(rng)
    if seed == 8:
        check_criterion_8(rows)
    journals = [f"Journal {chr(65 + i)}" for i in range(20)]
    pubs = [ledger.PUBLICATIONS_HEADER]
    pubs += [f"{j},{y},50" for j in journals for y in range(1984, 2005)]
    return rows, pubs, None


def _wide_2k(rng: random.Random) -> tuple[list[str], list[str], list[str]]:
    # 400 of the 2000 journals were renamed in some year; rows and
    # publication counts before that year use the former name, which
    # aliases.csv maps to the current one.
    names = [f"Wide {i:04d}" for i in range(2000)]
    rename_year = {i: rng.randint(1988, 2000) for i in sorted(rng.sample(range(2000), 400))}

    def name(index: int, year: int) -> str:
        if year < rename_year.get(index, 0):
            return f"Former {index:04d}"
        return names[index]

    rows = [ledger.CITATIONS_HEADER]
    for _ in range(100_000):
        cited = rng.randrange(2000)
        cited_year = rng.randint(1984, 2004)
        citing_year = cited_year + rng.randint(0, 2004 - cited_year)
        citing = cited if rng.random() < 0.2 else rng.randrange(2000)
        rows.append(
            f"{name(citing, citing_year)},{citing_year},"
            f"{name(cited, cited_year)},{cited_year},{rng.randint(1, 9)}"
        )
    pubs = [ledger.PUBLICATIONS_HEADER]
    pubs += [f"{name(i, y)},{y},{rng.randint(10, 300)}" for i in range(2000)
             for y in range(1984, 2005)]
    aliases = [ledger.ALIASES_HEADER]
    aliases += [f"Former {i:04d},{names[i]}" for i in rename_year]
    return rows, pubs, aliases


def _deep_curves(rng: random.Random) -> tuple[list[str], list[str], None]:
    # One journal, 340 volumes.  The spike lands past age 2 so it shifts the
    # standardized curve (AccrualDeviation); the two bursts put 80 % self
    # citations in a volume's first two years (SelfCitationSpike).  The seed
    # moves the spike and the bursts, not the kernel, so every seed gives the
    # same amount of work.
    burst_years = rng.sample(range(1680, 1990), 2)
    spec = synth.SynthSpec(
        journal=DEEP_JOURNAL,
        first_year=1665,
        last_year=2004,
        kernel=synth.RiseDecay(peak_age=3, rise=Fraction(3, 5), decay=Fraction(23, 25), length=60),
        base_citations=Fraction(60),
        items_per_year=120,
        observation_end=2004,
        self_fraction={(year, age): Fraction(4, 5) for year in burst_years for age in (0, 1)},
        spikes=(synth.Spike(rng.randint(1700, 1980), rng.randint(3, 10), rng.randint(200, 400)),),
    )
    profile, _ = synth.generate_profile(spec)
    rows = ledger.profiles_to_citation_csv({profile.journal: profile}).splitlines()
    pubs = [ledger.PUBLICATIONS_HEADER]
    pubs += [f"{spec.journal},{y},{spec.items_per_year}" for y in spec.pub_years()]
    return rows, pubs, None


def _write(path: Path, lines: list[str]) -> int:
    data = "\n".join(lines).encode("utf-8")
    path.write_bytes(data)
    return len(data)


def generate(workload: str, seed: int, workdir: Path) -> Inputs:
    """Write the workload's input files under workdir and describe them."""
    rng = random.Random(seed)
    if workload == "ingest-1m":
        rows, pubs, aliases = _ingest_1m(rng, seed)
    elif workload == "wide-2k":
        rows, pubs, aliases = _wide_2k(rng)
    elif workload == "deep-curves":
        rows, pubs, aliases = _deep_curves(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    workdir.mkdir(parents=True, exist_ok=True)
    citations = workdir / "citations.csv"
    publications = workdir / "publications.csv"
    alias_path = workdir / "aliases.csv" if aliases is not None else None
    size = _write(citations, rows) + _write(publications, pubs)
    if alias_path is not None:
        size += _write(alias_path, aliases)
    data = rows[1:]
    curves = workload == "deep-curves"
    return Inputs(
        workload=workload,
        command="curves" if curves else "report",
        citations=citations,
        publications=publications,
        aliases=alias_path,
        journal=DEEP_JOURNAL if curves else None,
        strip_self=workload == "wide-2k",
        fmt="json" if workload == "wide-2k" else "csv",
        svg=workdir / "chart.svg" if curves else None,
        rows=len(data),
        distinct_keys=len({line.rpartition(",")[0] for line in data}),
        count_sum=sum(int(line.rpartition(",")[2]) for line in data),
        bytes_on_disk=size,
    )
