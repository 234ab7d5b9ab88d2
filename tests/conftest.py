"""Hypothesis profiles.  The default profile is hypothesis's own.

HYPOTHESIS_PROFILE=no-shrink reports each failing example as it was found,
without shrinking it, so that a run on a deliberately broken build (a
mutant) ends in about the time of a passing run:

    HYPOTHESIS_PROFILE=no-shrink PYTHONPATH=src python -m pytest -q
"""

import os

from hypothesis import Phase, settings

settings.register_profile(
    "no-shrink", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
