"""Journal citation indicators from journal-to-journal citation ledgers.

Ingests citation ledgers (who cited whom, when, how often), aggregates them
into per-journal citation profiles, and computes classical indicators
(impact factor, immediacy index, cited half-life) alongside a
window-coverage analysis that measures how unevenly the standard two-year
citation window samples different journals, with a scaling correction that
puts fast- and slow-accruing journals on a comparable footing.
"""
from .curves import classify_journal
from .ledger import (
    build_profiles,
    iter_citation_records,
    parse_publication_csv,
    read_citation_profiles,
    strip_self_references,
)
from .metrics import WindowPolicy, build_indicator_report

__version__ = "0.1.0"
