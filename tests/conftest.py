"""Suite-wide test settings.

Every hypothesis test runs under one profile: derandomized, so each run
of the suite draws the same examples, with no deadline (timings on a
shared host vary) and no example database (no state between runs).
Tests set only their own max_examples.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("deterministic", derandomize=True,
                              deadline=None, database=None)
    settings.load_profile("deterministic")
