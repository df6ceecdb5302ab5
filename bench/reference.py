"""Fixed reference job that run.py times next to every CLI run.

    python3 bench/reference.py

It parses, folds and summarises a synthetic 80 000-row ledger with the
same kind of Python work the CLI does (string splitting, small objects,
dict folds, Fraction sums), without importing citemetrics, and prints one
summary line.  Its inputs are built in, so its work never changes.  The
host's speed drifts by a fifth or more over minutes, and a job of the
same kind drifts with it; run.py divides CLI wall times by this job's
median wall time from the same run.  README.md in this directory says why.
"""
import json
import sys
from fractions import Fraction

ROWS = 80_000
JOURNALS = 499


class Record:
    __slots__ = ("citing", "citing_year", "cited", "cited_year", "count")

    def __init__(self, citing, citing_year, cited, cited_year, count):
        self.citing = citing
        self.citing_year = citing_year
        self.cited = cited
        self.cited_year = cited_year
        self.count = count


def main() -> int:
    lines = [
        f"Ref {i * 7 % JOURNALS},{1984 + i * 13 % 21},"
        f"Ref {i * 11 % JOURNALS},{1984 + i * 3 % 21},{1 + i % 9}"
        for i in range(ROWS)
    ]
    records = []
    for line in lines:
        citing, citing_year, cited, cited_year, count = line.split(",")
        records.append(Record(citing, int(citing_year), cited, int(cited_year), int(count)))
    cells = {}
    for record in records:
        if record.citing_year < record.cited_year:
            continue
        journal = cells.setdefault(record.cited, {})
        key = (record.cited_year, record.citing_year - record.cited_year)
        journal[key] = journal.get(key, 0) + record.count
    shares = {}
    for journal, cell in sorted(cells.items()):
        curve = [Fraction(0)] * 21
        for (year, age), count in cell.items():
            curve[age] += Fraction(count, 2005 - year)
        total = sum(curve, Fraction(0))
        shares[journal] = curve[2] / total
    summary = {"journals": len(shares), "max_share": str(max(shares.values()))}
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
