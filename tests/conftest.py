"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes property tests reproducible.

The ``ci`` profile derives every example from the test itself, so a CI run
draws the same examples each time; without the variable the default
profile keeps drawing new ones.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
