"""Closed-form fields on the nilmanifold with their exact sub-Laplacians.

Used as oracles when `convergence-study` measures the consistency order of
the sub-Laplacian.  The first three cases are pulled back from the (x, y)
torus and never touch the twisted direction; the theta field is a Gaussian
theta sum

    f = sum_m exp(-kappa (x+m-1/2)^2) cos(2 pi (z + m y)),

the standard way to write a smooth function on the twisted quotient with
genuine dependence on the central direction (the sum over m absorbs the
x-wrap shear exactly).  Its exact frame derivatives, which only the tests
use, are in tests/reference.py.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import BaseGeometry

TWO_PI = 2.0 * np.pi
THETA_KAPPA = 12.0
THETA_M_RANGE = 4


def sin_mode_x(geom: BaseGeometry):
    """f = sin(2 pi x); sub-Laplacian is -4 pi^2 f (pure X^2 term)."""
    x, _, _ = geom.coords()
    f = np.sin(TWO_PI * x) + np.zeros(geom.shape)
    return f, -4.0 * np.pi**2 * f


def sin_mode_y(geom: BaseGeometry):
    """f = sin(2 pi y); sub-Laplacian is -4 pi^2 f (the x d/dz part of Y is inert)."""
    _, y, _ = geom.coords()
    f = np.sin(TWO_PI * y) + np.zeros(geom.shape)
    return f, -4.0 * np.pi**2 * f


def cos_product_xy(geom: BaseGeometry):
    """f = cos(2 pi x) cos(2 pi y); sub-Laplacian is -8 pi^2 f."""
    x, y, _ = geom.coords()
    f = np.cos(TWO_PI * x) * np.cos(TWO_PI * y) + np.zeros(geom.shape)
    return f, -8.0 * np.pi**2 * f


UNTWISTED_CASES = (
    ("sin_2pi_x", sin_mode_x),
    ("sin_2pi_y", sin_mode_y),
    ("cos_2pi_x_cos_2pi_y", cos_product_xy),
)


class ThetaField(NamedTuple):
    """Theta-sum test field and its exact sub-Laplacian."""

    f: np.ndarray
    lap: np.ndarray


def theta_field(geom: BaseGeometry) -> ThetaField:
    """Smooth z-dependent quotient function built from a truncated theta sum.

    kappa = THETA_KAPPA sets the Gaussian width 1/sqrt(2 kappa); the
    |m| > THETA_M_RANGE tail is far below double-precision resolution, so
    the truncation is exact for numerical purposes.  Exact identity used:

        (X^2 + Y^2) f = sum_m [E_m'' - 4 pi^2 (m+x)^2 E_m] cos(p_m)

    with E_m = exp(-kappa (x+m-1/2)^2) and p_m = 2 pi (z + m y).
    """
    x, y, z = geom.coords()
    f = np.zeros(geom.shape)
    lap = np.zeros(geom.shape)
    for m in range(-THETA_M_RANGE, THETA_M_RANGE + 1):
        c = x + m - 0.5
        env = np.exp(-THETA_KAPPA * c * c)
        cosp = np.cos(TWO_PI * (z + m * y))
        dd_env = (4.0 * THETA_KAPPA**2 * c * c - 2.0 * THETA_KAPPA) * env
        f += env * cosp
        lap += (dd_env - 4.0 * np.pi**2 * (m + x) ** 2 * env) * cosp
    return ThetaField(f, lap)
