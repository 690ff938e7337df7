"""Closed-form flows used to check the benchmark's outputs.

These are written in plain numpy, apart from the package under test, so a
wrong integrator cannot also be wrong in the reference.  Every function takes
Siegel or half-plane coordinates of shape (..., n) and returns the flowed
coordinates with the same shape.

Branch choices: a flow of a field in these classes keeps z1 in the upper
half-plane, so every square root of z1^2 - 2 c t is taken on the branch with
Im >= 0.  For example2 the factor sqrt(z1 / z1(t)) is the principal root: both
z1 and z1(t) lie in the upper half-plane, so their quotient never crosses the
negative real axis and the principal root stays continuous from 1 at t = 0.
"""

from __future__ import annotations

import numpy as np


def upper_sqrt(w):
    """Square root on the branch with nonnegative imaginary part."""
    root = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(root.imag < 0.0, -root, root)


def example2_flow(z, t):
    """Flow of H(z) = (-1/z1, z2/(2 z1^2)) for time t.

    z1(t) = sqrt(z1^2 - 2t) and z2(t) = z2 sqrt(z1 / z1(t)).
    """
    z = np.asarray(z, dtype=complex)
    z1 = z[..., 0]
    z1t = upper_sqrt(z1 * z1 - 2.0 * t)
    out = np.empty_like(z)
    out[..., 0] = z1t
    out[..., 1] = z[..., 1] * np.sqrt(z1 / z1t)
    return out


def example1_flow(z, t):
    """Flow of H(z) = (0, -i z2/z1) for time t: (z1, z2 exp(-i t / z1))."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    out[..., 0] = z[..., 0]
    out[..., 1] = z[..., 1] * np.exp(-1j * t / z[..., 0])
    return out


def reciprocal_schedule_flow(z, pieces, t):
    """Flow of the piecewise field -c_k/z over pieces (t0, t1, c_k) up to t.

    On each piece d(z^2)/dt = -2 c_k, so z(t)^2 = z^2 - 2 * integral of c.
    """
    z = np.asarray(z, dtype=complex)
    integral = 0.0
    for t0, t1, c in pieces:
        integral += c * max(0.0, min(t1, t) - t0)
    return upper_sqrt(z * z - 2.0 * integral)


def poisson_siegel(z):
    """u(z) = -Im z1 + ||z~||^2 on the Siegel half-space."""
    z = np.asarray(z, dtype=complex)
    return -z[..., 0].imag + np.sum(np.abs(z[..., 1:]) ** 2, axis=-1)
