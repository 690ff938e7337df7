"""Shared fixtures: seeded generators so every run sees the same samples."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


@pytest.fixture
def field_evaluations(monkeypatch):
    """A list that grows by one per field evaluation from here on.

    A field is evaluated through one of two entry points:
    ``VectorField.__call__``, and the flow kernel's ``VectorField._fill``.  A
    built-in field's fill writes its formula in place; any other field's fill
    calls the field, so only built-in fills are counted at ``_fill``.
    """
    from siegelflow.fields import VectorField

    calls = []
    call, fill = VectorField.__call__, VectorField._fill

    def counted_call(self, points):
        calls.append(1)
        return call(self, points)

    def counted_fill(self, points, out):
        if self._formula is not None:
            calls.append(1)
        fill(self, points, out)

    monkeypatch.setattr(VectorField, "__call__", counted_call)
    monkeypatch.setattr(VectorField, "_fill", counted_fill)
    return calls
