"""Test-suite configuration: one hypothesis profile for every property
test, derandomized so a run is reproducible, with no deadline and no
example database. Tests set only their own max_examples, and the file
fuzzers their own health-check suppression."""

from hypothesis import settings

settings.register_profile("survmamba", derandomize=True, deadline=None, database=None)
settings.load_profile("survmamba")
