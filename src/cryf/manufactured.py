"""Exact eigenpairs of the sub-Laplacian X^2 + Y^2 on the nilmanifold.

Used as oracles when `convergence-study` measures the consistency order of
the sub-Laplacian.  Each row of EIGENPAIRS is (row name, field builder,
eigenvalue lam, twisted), with (X^2 + Y^2) f = -lam f exactly.  The three
torus rows are pulled back from the (x, y) torus and never touch the twisted
direction; `theta_twisted` is the lowest Landau level of z-frequency 1,

    f_1 = sum_m exp(-pi (x+m)^2) cos(2 pi (z + m y)),   lam = 2 pi

(Folland, Harmonic Analysis in Phase Space, 1989), a function on the twisted
quotient with genuine dependence on the central direction: the sum over m
absorbs the x-wrap shear exactly.  Its exact frame derivatives, which only
the tests use, are in tests/reference.py.
"""

from __future__ import annotations

import numpy as np

from .geometry import BaseGeometry


def lowest_landau_level(geom: BaseGeometry) -> np.ndarray:
    """f_1 on the grid, summed over |m| <= 4.

    For x in [0, 1) every term with |m| > 4 is below 1e-21, far beneath
    double-precision resolution, so the truncation is exact for numerical
    purposes.
    """
    x, y, z = geom.coords()
    f = np.zeros(geom.shape)
    for m in range(-4, 5):
        f += np.exp(-np.pi * (x + m) ** 2) * np.cos(2.0 * np.pi * (z + m * y))
    return f


EIGENPAIRS = (
    ("sin_2pi_x", lambda geom: np.sin(2.0 * np.pi * geom.coords()[0]) + np.zeros(geom.shape),
     4.0 * np.pi**2, False),
    # the x d/dz part of Y is inert on a z-independent field
    ("sin_2pi_y", lambda geom: np.sin(2.0 * np.pi * geom.coords()[1]) + np.zeros(geom.shape),
     4.0 * np.pi**2, False),
    ("cos_2pi_x_cos_2pi_y",
     lambda geom: np.cos(2.0 * np.pi * geom.coords()[0]) * np.cos(2.0 * np.pi * geom.coords()[1])
     + np.zeros(geom.shape), 8.0 * np.pi**2, False),
    ("theta_twisted", lowest_landau_level, 2.0 * np.pi, True),
)
