"""Shared test settings and fixtures.

Property tests draw the same examples on every run: derandomize seeds
hypothesis from each test function (and turns its example database off), and
the deadline is off because run time depends on the machine, not the code.
"""

import numpy as np
import pytest
from hypothesis import settings

from euscat import spectral

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def apply_widths(monkeypatch):
    """The block width of every ``Semigroup.apply`` call, in call order: one
    entry per semigroup application, the paper's cost unit, whether plain or
    under the affine map of a Clenshaw step."""
    widths = []
    original = spectral.Semigroup.apply

    def counting(self, v, out=None, **mapping):
        widths.append(1 if np.ndim(v) == 1 else v.shape[1])
        return original(self, v, out=out, **mapping)

    monkeypatch.setattr(spectral.Semigroup, "apply", counting)
    return widths
