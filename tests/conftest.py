"""Shared test settings.

Property tests draw the same examples on every run: derandomize seeds
hypothesis from each test function (and turns its example database off), and
the deadline is off because run time depends on the machine, not the code.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
