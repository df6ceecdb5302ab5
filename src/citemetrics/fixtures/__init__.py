"""Bundled synthetic journal specs used as demo data and test fixtures."""

# One <name>.synth file in this package per name.
FIXTURE_NAMES = ("hare", "tortoise")
