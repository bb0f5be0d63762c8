"""Discrete Heisenberg nilmanifold: twisted lattice, contact frame, sub-Laplacian.

The model space is the compact quotient of the polarized Heisenberg group
(multiplication (a,b,c)*(x,y,z) = (a+x, b+y, c+z+a*y)) by its integer
lattice.  Grid functions live on the unit cube with the identifications

    f(x, y, z+1) = f(x, y, z)
    f(x, y+1, z) = f(x, y, z)
    f(x+1, y, z+y) = f(x, y, z)

so wrapping once in x shears the z axis by -y.  Requiring N_y | N_z makes
the shear land exactly on grid points for every grid line y = j/N_y, which
keeps all boundary lookups interpolation-free.

The left-invariant frame is X = d/dx, Y = d/dy + x d/dz, Z = d/dz with
[X, Y] = Z.  The horizontal sub-Laplacian X^2 + Y^2 is assembled from
one-sided differences paired with their exact adjoints under the uniform
grid inner product <f, g> = w0 * sum(f*g), averaging the forward form with
its backward mirror where a weight varies.  Built this way, symmetry, negative semidefiniteness
and exact zero mean of the divergence-form operator are grid identities
(telescoping sums), not approximations; consistency orders are measured,
never assumed.  The frame fields are differenced only inside this operator;
the stand-alone frame differences are test references (tests/reference.py).

Fields are plain float64 numpy arrays of shape (N_x, N_y, N_z), C-order,
so the z index varies fastest.

The divergence-form kernel works one slab of x-planes at a time, about
2^15 points each.  A whole float64 field at 64^3 is 2 MiB, as large as a
core's L2 cache, so a pass over whole fields runs from L3; the fields of a
slab, 256 KiB each, stay in L2.  A slab's x differences read one halo plane
beyond it, through the shear at the x-wrap; small grids are one slab.

A geometry holds three work fields, made with it: the slab-sized scratch
fields of the divergence-form kernel.  Every kernel call writes them, so one
geometry must not be shared by threads that apply the kernel concurrently.
The flow's four-stage step makes its own stage field per call.
Build one geometry per grid and pass it around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# points per slab of x-planes in the divergence-form kernel: 256 KiB per
# float64 slab field, so a pass's operands stay in a core's L2 cache
_SLAB_POINTS = 2 ** 15


@dataclass(frozen=True)
class GridSpec:
    """Lattice sizes per unit period; cell sizes are h = 1/N in each direction."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self) -> None:
        for name, n in (("N_x", self.nx), ("N_y", self.ny), ("N_z", self.nz)):
            if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
                raise ConfigurationError(f"{name} must be an integer, got {n!r}")
            if n < 4:
                raise ConfigurationError(f"{name} must be >= 4, got {n}")
        if self.nz % self.ny != 0:
            raise ConfigurationError(
                "N_y must divide N_z so the sheared x-wrap lands on grid points "
                f"(got N_y={self.ny}, N_z={self.nz})"
            )
        if 8 * math.prod(map(int, self.shape)) > np.iinfo(np.intp).max:
            raise ConfigurationError(
                f"grid {self.nx}x{self.ny}x{self.nz} is too large: a float64 field "
                f"would exceed {np.iinfo(np.intp).max} bytes"
            )

    @property
    def hx(self) -> float:
        return 1.0 / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny

    @property
    def hz(self) -> float:
        return 1.0 / self.nz

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def npoints(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def twist(self) -> int:
        """z-index shift per unit x-wrap and per unit y, i.e. N_z / N_y."""
        return self.nz // self.ny


class BaseGeometry:
    """Lattice data, quadrature weight and work fields for one grid resolution.

    The background contact form is flat: its Webster scalar curvature is
    identically zero, which the conformal formulas use by leaving the
    R_base u term out (checked operationally by constants being flow fixed
    points).

    It also holds the kernel's three scratch fields, each one slab of
    x-planes plus a halo plane, so that a kernel pass stays in L2 cache; see
    the module docstring for why one geometry must not be shared across
    threads.

    Attributes:
        spec: the lattice sizes.
        w0: quadrature weight per grid point (the fundamental cell has unit
           volume, so w0 = hx*hy*hz).
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.w0 = spec.hx * spec.hy * spec.hz
        self.x_coord = (np.arange(spec.nx) * spec.hx).reshape(-1, 1, 1)
        jj = np.arange(spec.ny)[:, None]
        kk = np.arange(spec.nz)[None, :]
        # per x step: flat (N_y, N_z) index into the x-plane reached across the
        # wrap, which the shear shifts in z by -step * j * twist
        self._wrap = {step: jj * spec.nz + (kk - step * jj * spec.twist) % spec.nz
                      for step in (1, -1)}
        # Y = (d_y + q d_z)/hy in _conservative_form, hy/hz = twist
        self._q = self.x_coord * spec.twist
        # x-planes per slab of _div_form and its slab-sized work fields (a
        # slab and its halo plane)
        self._slab_planes = max(1, min(spec.nx, _SLAB_POINTS // (spec.ny * spec.nz)))
        self._scratch = tuple(np.empty((self._slab_planes + 1, spec.ny, spec.nz))
                              for _ in range(3))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.spec.shape

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays (x, y, z) of the grid points."""
        s = self.spec
        x = (np.arange(s.nx) * s.hx).reshape(-1, 1, 1)
        y = (np.arange(s.ny) * s.hy).reshape(1, -1, 1)
        z = (np.arange(s.nz) * s.hz).reshape(1, 1, -1)
        return x, y, z


def build_nilmanifold(spec: GridSpec) -> BaseGeometry:
    """Construct the discretized nilmanifold for the given lattice sizes."""
    return BaseGeometry(spec)


def _check_field(geom: BaseGeometry, f: np.ndarray, name: str = "f") -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != geom.shape:
        raise ValueError(f"{name} has shape {f.shape}, expected {geom.shape}")
    return f


def _shift(geom: BaseGeometry, f: np.ndarray, axis: int, step: int) -> np.ndarray:
    """Sample f one lattice step (+1 or -1) away along an axis.

    A roll, except that the x-plane rolled in across the x-wrap is read
    through the shear.
    """
    out = np.roll(f, -step, axis=axis)
    if axis == 0:
        edge = -1 if step == 1 else 0
        out[edge] = np.take(out[edge], geom._wrap[step])
    return out


def _diff(g: np.ndarray, axis: int, step: int, out: np.ndarray) -> None:
    """Unscaled one-sided difference of g along lattice axis 1 or 2, into out.

    step=+1 gives S g - g and step=-1 gives g - S^-1 g, where S samples one
    lattice step further along the axis, wrapping periodically (only the
    x-wrap shears, and x is differenced by _x_diff).  S is a permutation,
    so every entry is a single subtraction.  A lattice step is `stride`
    places of the flat C-order array, so one flat pass differences every
    line; the entries it takes across two lines lie in the wrap slab, which
    the second subtraction overwrites.  `out` must be C-contiguous and
    distinct from g.
    """
    stride = math.prod(g.shape[axis + 1:])
    flat = g.reshape(-1)
    dst, edge = (slice(None, -stride), -1) if step == 1 else (slice(stride, None), 0)
    np.subtract(flat[stride:], flat[:-stride], out=out.reshape(-1)[dst])
    ix = (slice(None),) * axis
    np.subtract(g[ix + (0,)], g[ix + (-1,)], out=out[ix + (edge,)])


def _x_diff(geom: BaseGeometry, f: np.ndarray, i0: int, i1: int,
            out: np.ndarray) -> None:
    """Unscaled x differences d[k] = f[i0+k] - f[i0+k-1], k = 0..i1-i0, into out.

    These are the m + 1 planes that x-planes [i0, i1) and one halo plane on
    either side need: d[1:] is the slab's forward difference S f - f, and
    d[:-1] its backward one f - S^-1 f.  A plane beyond the x-wrap (-1 or
    N_x) is read through the shear, so every entry is a single subtraction.
    f is a whole field; out holds at least m + 1 planes.
    """
    n, m = geom.spec.nx, i1 - i0
    lo, hi = max(i0, 1), min(i1, n - 1) + 1
    np.subtract(f[lo:hi], f[lo - 1:hi - 1], out=out[lo - i0:hi - i0])
    if i0 == 0:
        np.subtract(f[0], np.take(f[-1], geom._wrap[-1]), out=out[0])
    if i1 == n:
        np.subtract(np.take(f[0], geom._wrap[1]), f[-1], out=out[m])


def _conservative_form(geom: BaseGeometry, f: np.ndarray, w: np.ndarray | None,
                       step: int, i0: int, i1: int, out: np.ndarray) -> None:
    """One conservative form -D*(w D f) on x-planes [i0, i1) into out, D one-sided
    in direction `step`.

    With d = _diff(.., step), d' = _diff(.., -step) = -h D* and the column
    q = x * hy/hz, it takes differences unscaled and scales each part once:

        Fx = w * d_x f                 Fy = w * (d_y f + q * d_z f)
        out = d'_x Fx * hx^-2 + (d'_y Fy + q * d'_z Fy) * hy^-2

    Exactly, this is the textbook grouping d'_x(w d_x f / hx) / hx + ...;
    a power-of-two scale commutes with rounding, so on grids whose cell
    sizes are powers of two the two agree bit for bit, and elsewhere they
    differ by rounding.

    The Y part reads only the slab's m = i1 - i0 planes.  The X part needs
    m + 1 planes of flux Fx: the slab's and one halo plane, i0 - 1 for the
    forward form and i1 for the backward one, built in b from the
    differences d[k] of _x_diff.  A plane beyond the x-wrap (-1 or N_x) is
    read through the shear; that gather is a
    permutation and commutes with every pointwise operation, so each entry
    is bit for bit that of the whole-field expression.  f and w are whole
    fields; out holds m planes.  The work fields a, b, c are the geometry's
    slab scratch: q is filled into a, which d'_y Fy overwrites only after
    the last product with q, so both products are contiguous.  Only the X
    part writes out, after the last read of c, so out may be c[:m].
    """
    m, n = i1 - i0, geom.spec.nx
    fs = f[i0:i1]
    a, b, c = geom._scratch
    a, c, flux = a[:m], c[:m], b[:m + 1]
    b = flux[:m]
    a[...] = geom._q[i0:i1]
    _diff(fs, 1, step, b)
    _diff(fs, 2, step, c)
    c *= a
    b += c
    if w is not None:
        b *= w[i0:i1]
    _diff(b, 2, -step, c)
    c *= a
    _diff(b, 1, -step, a)
    a += c
    a *= geom.spec.ny ** 2
    _x_diff(geom, f, i0, i1, flux)
    if w is not None:
        # the forward form weights d[k] by plane i0+k-1, the backward by i0+k
        j0 = i0 - (step == 1)
        lo, hi = max(j0, 0), min(j0 + m, n - 1) + 1
        flux[lo - j0:hi - j0] *= w[lo:hi]
        if j0 < 0:
            flux[0] *= np.take(w[-1], geom._wrap[-1])
        if j0 + m == n:
            flux[m] *= np.take(w[0], geom._wrap[1])
    np.subtract(flux[1:], flux[:-1], out=out)
    out *= n ** 2
    out += a


def _div_form(geom: BaseGeometry, f: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Conservative form -D*(w D f) in a new field, symmetrized when the weight varies.

    Each one-sided form carries an exact adjoint pair, so symmetry, negative
    semidefiniteness and exact zero mean hold for any positive weight.  For
    a weight that varies, the forward-flux and backward-flux forms are
    averaged, which cancels the O(h) weight-offset error of either one and
    gives second-order consistency for smooth weights.  For no weight or a
    constant one the two forms are the same linear operator (the lattice
    shifts commute, and x is constant along y and z), so only the forward
    form is evaluated; it differs from the average only by rounding.

    Both forms run one slab of x-planes at a time in the geometry's three
    slab-sized scratch fields, so each pass reads and writes fields that
    fit in a core's L2 cache (a whole 64^3 field is 2 MiB, a full L2).  The
    first holds q, and the third the backward form's slab result.
    """
    out = np.empty(geom.shape)
    both = w is not None and w.min() != w.max()
    n, planes = geom.spec.nx, geom._slab_planes
    for i0 in range(0, n, planes):
        i1 = min(i0 + planes, n)
        slab = out[i0:i1]
        _conservative_form(geom, f, w, 1, i0, i1, slab)
        if both:
            bwd = geom._scratch[2][:i1 - i0]
            _conservative_form(geom, f, w, -1, i0, i1, bwd)
            slab += bwd
            slab *= 0.5
    return out


def sub_laplacian_base(geom: BaseGeometry, f: np.ndarray) -> np.ndarray:
    """Horizontal sub-Laplacian of the background contact form.

    -(Dx* Dx + Dy* Dy) f built from forward differences with their exact
    adjoints (the backward-difference mirror is the same operator).
    Negative semidefinite by construction ("Laplacian of sin is negative")
    and identical bit for bit to `weighted_div_form` with unit weight.
    """
    f = _check_field(geom, f)
    return _div_form(geom, f, None)


def weighted_div_form(geom: BaseGeometry, w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Weighted divergence-form operator over the horizontal frame {X, Y}.

    Symmetrized conservative form: the mean of -Dv*(w Dv f) built from the
    forward differences and its backward-difference mirror, or the forward
    form alone when w is constant, where the two are the same operator.
    Symmetric in the grid inner product, negative semidefinite for w > 0,
    grid sum telescoping to zero exactly, and second-order consistent with
    div(w grad f) for smooth positive weights.
    """
    f = _check_field(geom, f)
    w = _check_field(geom, w, "w")
    if w.min() <= 0.0:
        raise ValueError(f"weight must be positive everywhere (min={w.min()})")
    return _div_form(geom, f, w)


def integrate_base(geom: BaseGeometry, f: np.ndarray) -> float:
    """Quadrature of f against the background volume form (unit total volume)."""
    f = _check_field(geom, f)
    return float(geom.w0 * np.sum(f))


def pullback_z_shift(geom: BaseGeometry, f: np.ndarray, m: int) -> np.ndarray:
    """Pull back f by the central translation of m lattice steps in z.

    Central (Reeb direction) translations are exact automorphisms of the
    quotient and of the frame, so this is a bijective relabeling: quadrature
    is exactly invariant and the operation commutes with every frame
    operator.
    """
    f = _check_field(geom, f)
    return np.roll(f, -int(m), axis=2)
