"""Journal citation indicators from journal-to-journal citation ledgers.

Ingests citation ledgers (who cited whom, when, how often), aggregates them
into per-journal citation profiles, and computes classical indicators
(impact factor, immediacy index, cited half-life) alongside a
window-coverage analysis that measures how unevenly the standard two-year
citation window samples different journals, with a scaling correction that
puts fast- and slow-accruing journals on a comparable footing.

The exported names load their module on first use, so `import citemetrics`
and a CLI command load only the modules they run.
"""
from importlib import import_module

__version__ = "0.1.0"

# Each exported name, and the module that defines it.
_EXPORTS = {
    "classify_journal": "curves",
    "build_profiles": "ledger",
    "iter_citation_records": "ledger",
    "parse_publication_csv": "ledger",
    "read_citation_profiles": "ledger",
    "strip_self_references": "ledger",
    "WindowPolicy": "settings",
    "build_indicator_report": "metrics",
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
