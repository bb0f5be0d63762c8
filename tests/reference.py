"""Reference implementations and grids the tests compare the program on; the program runs none."""

import numpy as np

from cryf.conformal import conformal_volume_element
from cryf.geometry import _shift, integrate_base


SINGLE_SLAB_GRIDS = [(4, 4, 8), (5, 4, 8), (6, 4, 12), (16, 8, 16), (32, 32, 32)]
# the kernel runs 33x32x32 as slabs of 32 planes and 1 plane, and 40x16x64
# (twist 4) as slabs of 32 and 8 planes, so a wrong halo plane of flux shows
# at a slab boundary and across the x-wrap
REFERENCE_GRIDS = SINGLE_SLAB_GRIDS + [(33, 32, 32), (40, 16, 64)]


def canonical_index(spec, i, j, k):
    """Fundamental-domain representative of signed lattice indices (scalars or arrays).

    Each unit wrap in i shifts k by -j N_z/N_y, without the table `_shift` reads.
    """
    q, i_c = divmod(i, spec.nx)
    j_c = j % spec.ny
    return i_c, j_c, (k - q * j_c * spec.twist) % spec.nz


def frame_derivative(geom, f, which, scheme="centered"):
    """X = d_x, Y = d_y + x d_z or Z = d_z by first-order `forward` or second-order
    `centered` differences, or by `adjoint`, the adjoint of `forward` under `grid_inner`."""
    def d(axis, h):
        if scheme == "forward":
            return (_shift(geom, f, axis, 1) - f) / h
        if scheme == "adjoint":
            return (_shift(geom, f, axis, -1) - f) / h
        return (_shift(geom, f, axis, 1) - _shift(geom, f, axis, -1)) / (2.0 * h)

    s = geom.spec
    if which == "Y":
        return d(1, s.hy) + geom.x_coord * d(2, s.hz)
    return d(0, s.hx) if which == "X" else d(2, s.hz)


def frame_derivative_adjoint(geom, f, which):
    return frame_derivative(geom, f, which, "adjoint")


def frame_commutator_check(geom, f):
    """Residual X(Yf) - Y(Xf) - Zf of the centered differences; [X, Y] = Z."""
    x, y = frame_derivative(geom, f, "X"), frame_derivative(geom, f, "Y")
    return frame_derivative(geom, y, "X") - frame_derivative(geom, x, "Y") \
        - frame_derivative(geom, f, "Z")


def grid_inner(geom, f, g):
    return integrate_base(geom, f * g)


def integrate_conformal(state, f):
    return integrate_base(state.geom, f * conformal_volume_element(state))


def dE_dt_from_moments(vol, int_r, int_r2):
    """dE/dt straight from the moment integrals, apart from `make_record`'s path."""
    return (-(int_r2 * vol) + int_r * int_r) / vol ** 1.5


def theta_frame_derivatives(geom):
    """Exact (X f, Y f, Z f) of f_1 = `manufactured.lowest_landau_level`, with
    E_m = exp(-pi (x+m)^2) and p_m = 2 pi (z + m y): X f = -2 pi sum (x + m) E_m cos p_m,
    Y f = -2 pi sum (x + m) E_m sin p_m and Z f = -2 pi sum E_m sin p_m.
    """
    x, y, z = geom.coords()
    xf, yf, zf = (np.zeros(geom.shape) for _ in range(3))
    for m in range(-4, 5):
        env = np.exp(-np.pi * (x + m) ** 2)
        phase = 2.0 * np.pi * (z + m * y)
        xf += -2.0 * np.pi * (x + m) * env * np.cos(phase)
        yf += -2.0 * np.pi * (x + m) * env * np.sin(phase)
        zf += -2.0 * np.pi * env * np.sin(phase)
    return xf, yf, zf
