"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes property tests reproducible.

The ``ci`` profile derives every example from the test itself, so a CI run
draws the same examples each time; without the variable the default
profile keeps drawing new ones.  ``ci-deep`` is ``ci`` with 2000 examples
for the tests that ask the profile for their count (among them the
estimator's draw-ahead bound, its chunked loop against the per-batch one,
its truncated traces, and the batch table's JSON rows).
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.register_profile("ci-deep", derandomize=True, max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
