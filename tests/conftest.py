"""Fixtures shared by the test modules."""

import time
from types import SimpleNamespace

import pytest

from ryser import analysis, solver


@pytest.fixture
def clock_jumps_after_cover_check(monkeypatch):
    """Move the solver's clock an hour on as soon as
    `classify_extensions` or `minimize` has checked the cover number, so
    that only the searches that follow (transversal enumerations, or
    trial deletions) can run past their deadline."""
    offset = [0.0]
    monkeypatch.setattr(solver, "time",
                        SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0]))
    checked = analysis.cover_number

    def cover_number(*args, **kwargs):
        res = checked(*args, **kwargs)
        offset[0] = 3600.0
        return res

    monkeypatch.setattr(analysis, "cover_number", cover_number)

