"""Shared fixtures: seeded generators so every run sees the same samples."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


@pytest.fixture
def field_evaluations(monkeypatch):
    """A list that grows by one per field evaluation from here on.

    A field is evaluated through one of two entry points, and each adds its
    own entry: ``VectorField.__call__`` adds "call", and the flow kernel's
    ``VectorField._fill`` adds "fill" when the field writes its formula in
    place.  Every field the package builds has such a formula, so its stages
    add "fill" and only an integration's checked start adds "call"; a field
    built from a bare evaluator fills by calling itself, so its stages add
    "call".  A composite field (a Berkson-Porta generator, a ball
    pushforward) fills its inner field too, which adds an entry of its own.
    """
    from siegelflow.fields import VectorField

    calls = []
    call, fill = VectorField.__call__, VectorField._fill

    def counted_call(self, points):
        calls.append("call")
        return call(self, points)

    def counted_fill(self, points, out):
        if self._formula is not None:
            calls.append("fill")
        fill(self, points, out)

    monkeypatch.setattr(VectorField, "__call__", counted_call)
    monkeypatch.setattr(VectorField, "_fill", counted_fill)
    return calls
