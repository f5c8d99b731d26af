"""Hypothesis profiles, chosen by the HYPOTHESIS_PROFILE environment
variable (default: hypothesis's own "default").

`ci` derandomizes every property test, so a counterexample that CI finds
reproduces locally under `HYPOTHESIS_PROFILE=ci`, and gives the tests that
set no example budget of their own a larger one.
"""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
