"""Samplers must land strictly inside their domains, deterministically."""

import numpy as np

from siegelflow import sampling


def test_ball_radius(rng):
    b = sampling.ball_coords(rng, 500, 3)
    assert b.shape == (500, 3)
    assert np.max(np.sqrt(np.sum(np.abs(b) ** 2, axis=1))) < 0.9 + 1e-12


def test_halfplane_strictly_interior(rng):
    z = sampling.siegel_coords(rng, 500, 1)
    assert z.shape == (500, 1)
    assert np.min(z[:, 0].imag) > 0


def test_siegel_margin_and_window(rng):
    z = sampling.siegel_coords(rng, 500, 2, log_u=(-2, 2), re_scale=5.0,
                               tilde_fraction=0.8)
    height = z[:, 0].imag - np.abs(z[:, 1]) ** 2
    assert np.min(height) > 0
    assert np.max(height) <= 10 ** 2 * (1 + 1e-12)
    assert np.min(height) >= 10 ** -2 * (1 - 1e-12) * (1 - 0.8)


def test_same_seed_same_draws():
    a = sampling.siegel_coords(np.random.default_rng(7), 50, 2)
    b = sampling.siegel_coords(np.random.default_rng(7), 50, 2)
    np.testing.assert_array_equal(a, b)


def test_herglotz_measures_are_valid(rng):
    for m in sampling.herglotz_measures(rng, 10):
        assert m.total_mass > 0
        assert all(mass >= 0 for _, mass in m.atoms)
        assert len(m.atoms) <= 4
