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
fields a, b, c of the divergence-form kernel.  It also builds, once, one
small record of views per slab (`_Slab`): the scratch slices a[:m], b[:m]
and c[:m] of a slab of m planes, the flux b[:m+1] and its planes, the
slab's q column, and the views each one-sided difference reads and writes.
The halo plane c[m], which no slab result uses, is the plane every gather
across the x-wrap writes, of f or of a weight.  So a kernel call does its
numpy operations on views it is handed, and derives none of them.  Every
kernel call writes the scratch, so one geometry must not be shared by
threads that apply the kernel concurrently.
The flow's four-stage step makes its own stage field per call.
Build one geometry per grid and pass it around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    x-planes plus a halo plane, so that a kernel pass stays in L2 cache, and
    one `_Slab` record of views on them per slab, built here; the third
    field's halo plane c[m] is where the kernel gathers across the x-wrap.
    See the module docstring for why one geometry must not be shared across
    threads.

    Attributes:
        spec: the lattice sizes.
        w0: quadrature weight per grid point (the fundamental cell has unit
           volume, so w0 = hx*hy*hz).
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.shape = spec.shape
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
        # x-planes per slab of _div_form, its slab-sized work fields (a slab
        # and its halo plane) and the views of each slab on them
        self._slab_planes = max(1, min(spec.nx, _SLAB_POINTS // (spec.ny * spec.nz)))
        self._scratch = tuple(np.empty((self._slab_planes + 1, spec.ny, spec.nz))
                              for _ in range(3))
        self._slabs = _slabs(self)

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


def _lines(x: np.ndarray, axis: int) -> tuple[np.ndarray, ...]:
    """Views (lead, lag, first, last) of a C-contiguous x for differences along axis 1 or 2.

    A lattice step along the axis is `stride` places of the flat C-order
    array, so lead - lag (the flat array without its first and without its
    last step) differences every line in one pass; the entries it takes
    across two lines lie in the wrap slab, which first - last (the first
    and last planes across the axis) then gives.  A difference in
    direction +1, S g - g, writes these into its output's lag and last
    views, and one in direction -1, g - S^-1 g, into its lead and first
    ones; so every entry is a single subtraction.
    """
    stride = math.prod(x.shape[axis + 1:])
    flat = x.reshape(-1)
    ix = (slice(None),) * axis
    return flat[stride:], flat[:-stride], x[ix + (0,)], x[ix + (-1,)]


def _ends(lines: tuple[np.ndarray, ...], step: int) -> tuple[np.ndarray, np.ndarray]:
    """The two views of `_lines` that a difference in direction `step` writes."""
    lead, lag, first, last = lines
    return (lag, last) if step == 1 else (lead, first)


class _Slab(NamedTuple):
    """The views `_conservative_form` reads and writes on x-planes [i0, i1).

    Built once per slab with the geometry; slabs of the same length m share
    their views of the scratch fields a, b, c.  The flux is b[:m+1], and
    c[m], which no slab result uses, is the plane each gather across the
    x-wrap writes.
    """

    rows: slice  # the slab's x-planes, [i0, i1)
    q: np.ndarray  # the column q = x * hy/hz on those planes
    a: np.ndarray  # a[:m], b[:m] and c[:m]
    b: np.ndarray
    c: np.ndarray
    flux_next: np.ndarray  # b[1:m+1], so flux[k+1] - flux[k] is flux_next - b
    gather: np.ndarray  # c[m]
    b_y: tuple[np.ndarray, ...]  # `_lines` of b along y and along z
    b_z: tuple[np.ndarray, ...]
    # per direction, the `_ends` of the four y and z differences, in order:
    # d_y f into b, d_z f into c, then d'_z Fy into c and d'_y Fy into a
    writes: dict[int, tuple]
    x_rows: slice  # x-planes whose difference with the previous one stays inside f
    x_prev: slice  # ... and those previous planes
    x_inner: np.ndarray  # the flux planes they give
    x_first: np.ndarray | None  # flux[0], when plane i0 - 1 lies across the x-wrap
    x_last: np.ndarray | None  # flux[m], when plane i1 does
    # per direction, (rows of w, the flux planes they weight, the flux plane
    # weighted by a row gathered across the x-wrap or None)
    w_x: dict[int, tuple]


def _scratch_views(scratch: tuple[np.ndarray, ...], m: int) -> tuple:
    """The views of a slab of m planes on the scratch fields, as `_Slab` holds them."""
    a, flux, c = scratch[0][:m], scratch[1][:m + 1], scratch[2][:m]
    b = flux[:m]
    b_y, b_z, c_z, a_y = _lines(b, 1), _lines(b, 2), _lines(c, 2), _lines(a, 1)
    writes = {step: (_ends(b_y, step), _ends(c_z, step), _ends(c_z, -step), _ends(a_y, -step))
              for step in (1, -1)}
    return a, b, c, flux[1:], scratch[2][m], b_y, b_z, writes


def _slabs(geom: BaseGeometry) -> tuple[_Slab, ...]:
    """One `_Slab` per slab of `geom._slab_planes` x-planes, in order."""
    n, planes = geom.spec.nx, geom._slab_planes
    shared = {}  # slab length -> `_scratch_views`
    slabs = []
    for i0 in range(0, n, planes):
        i1 = min(i0 + planes, n)
        m = i1 - i0
        if m not in shared:
            shared[m] = _scratch_views(geom._scratch, m)
        flux = geom._scratch[1][:m + 1]
        # flux[k] = f[i0+k] - f[i0+k-1], k = 0..m; a plane beyond the x-wrap
        # (-1 or N_x) is read through the shear
        lo, hi = max(i0, 1), min(i1, n - 1) + 1
        first = flux[0] if i0 == 0 else None
        last = flux[m] if i1 == n else None
        # the forward form weights flux[k] by plane i0+k-1, the backward by i0+k
        w_x = {}
        for step in (1, -1):
            j0 = i0 - (step == 1)
            w_lo, w_hi = max(j0, 0), min(j0 + m, n - 1) + 1
            w_x[step] = (slice(w_lo, w_hi), flux[w_lo - j0:w_hi - j0],
                         first if step == 1 else last)
        slabs.append(_Slab(slice(i0, i1), geom._q[i0:i1], *shared[m], slice(lo, hi),
                           slice(lo - 1, hi - 1), flux[lo - i0:hi - i0], first, last, w_x))
    return tuple(slabs)


def _conservative_form(geom: BaseGeometry, f: np.ndarray, w: np.ndarray | None,
                       step: int, s: _Slab, out: np.ndarray) -> None:
    """One conservative form -D*(w D f) on the x-planes of slab s into out, D
    one-sided in direction `step`.

    With d the unscaled one-sided difference in direction step, d' the one
    in direction -step (d' = -h D*) and the column q = x * hy/hz, it takes
    differences unscaled and scales each part once:

        Fx = w * d_x f                 Fy = w * (d_y f + q * d_z f)
        out = d'_x Fx * hx^-2 + (d'_y Fy + q * d'_z Fy) * hy^-2

    Exactly, this is the textbook grouping d'_x(w d_x f / hx) / hx + ...;
    a power-of-two scale commutes with rounding, so on grids whose cell
    sizes are powers of two the two agree bit for bit, and elsewhere they
    differ by rounding.

    The Y part reads only the slab's m planes; each y or z difference is a
    flat pass and a wrap slab (see `_lines`).  The X part needs m + 1 planes
    of flux Fx: the slab's and one halo plane, i0 - 1 for the forward form
    and i1 for the backward one, built in b from the x differences
    flux[k] = f[i0+k] - f[i0+k-1].  A plane beyond the x-wrap (-1 or N_x),
    of f or of w, is gathered through the shear into c[m]; that gather is a
    permutation and commutes with every pointwise operation, so each entry
    is bit for bit that of the whole-field expression.  The table's indices
    are in range, so mode "clip" changes none of them; it lets `take` write
    into c[m] without a copy of its own.  f and w are whole fields; out
    holds m planes.  The work fields a, b, c are the geometry's slab
    scratch: q is filled into a, which d'_y Fy overwrites only after the
    last product with q, so both products are contiguous.  Only the X part
    writes out, after the last read of c[:m], so out may be c[:m].
    """
    fs = f[s.rows]
    flat = fs.reshape(-1)
    nz = geom.spec.nz
    a, b, c = s.a, s.b, s.c
    (y, y_wrap), (z, z_wrap), (back_z, back_z_wrap), (back_y, back_y_wrap) = s.writes[step]
    a[...] = s.q
    # d_y f into b and d_z f into c, through the views `_lines` gives of f's slab
    np.subtract(flat[nz:], flat[:-nz], out=y)
    np.subtract(fs[:, 0], fs[:, -1], out=y_wrap)
    np.subtract(flat[1:], flat[:-1], out=z)
    np.subtract(fs[:, :, 0], fs[:, :, -1], out=z_wrap)
    c *= a
    b += c
    if w is not None:
        b *= w[s.rows]
    lead, lag, first, last = s.b_z
    np.subtract(lead, lag, out=back_z)
    np.subtract(first, last, out=back_z_wrap)
    c *= a
    lead, lag, first, last = s.b_y
    np.subtract(lead, lag, out=back_y)
    np.subtract(first, last, out=back_y_wrap)
    a += c
    a *= geom.spec.ny ** 2
    wrap, gather = geom._wrap, s.gather
    np.subtract(f[s.x_rows], f[s.x_prev], out=s.x_inner)
    if s.x_first is not None:
        f[-1].take(wrap[-1], out=gather, mode="clip")
        np.subtract(f[0], gather, out=s.x_first)
    if s.x_last is not None:
        f[0].take(wrap[1], out=gather, mode="clip")
        np.subtract(gather, f[-1], out=s.x_last)
    if w is not None:
        rows, planes, wrapped = s.w_x[step]
        planes *= w[rows]
        if wrapped is not None:
            # plane -1 for the forward form, N_x for the backward one
            w[-1 if step == 1 else 0].take(wrap[-step], out=gather, mode="clip")
            wrapped *= gather
    np.subtract(s.flux_next, b, out=out)
    out *= geom.spec.nx ** 2
    out += a


def _div_form(geom: BaseGeometry, f: np.ndarray, w: np.ndarray | None, both: bool) -> np.ndarray:
    """Conservative form -D*(w D f) in a new field, symmetrized when `both`.

    Each one-sided form carries an exact adjoint pair, so symmetry, negative
    semidefiniteness and exact zero mean hold for any positive weight.  With
    `both` (the caller's choice; this function reduces no field), the
    forward-flux and backward-flux forms are averaged, which cancels the
    O(h) weight-offset error of either one and gives second-order
    consistency for smooth weights.  Without it only the forward form runs:
    for no weight or a constant one the two forms are the same linear
    operator (the lattice shifts commute, and x is constant along y and z).

    Both forms run slab by slab in the geometry's three scratch fields, which
    fit in L2 cache; the first holds q, and the third the backward result.
    """
    out = np.empty(geom.shape)
    for s in geom._slabs:
        slab = out[s.rows]
        _conservative_form(geom, f, w, 1, s, slab)
        if both:
            _conservative_form(geom, f, w, -1, s, s.c)
            slab += s.c
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
    return _div_form(geom, f, None, False)


def weighted_div_form(geom: BaseGeometry, w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Weighted divergence-form operator over the horizontal frame {X, Y}.

    Symmetrized conservative form: the mean of -Dv*(w Dv f) built from the
    forward differences and its backward-difference mirror, or the forward
    form alone when w is constant, where the two are the same operator.
    Symmetric in the grid inner product, negative semidefinite for w > 0,
    grid sum telescoping to zero exactly, and second-order consistent with
    div(w grad f) for smooth positive weights.  It reduces w once to its
    minimum and once to its maximum, and runs both forms when they differ;
    a minimum that is not positive, or a nan anywhere in w, raises ValueError.
    """
    f = _check_field(geom, f)
    w = _check_field(geom, w, "w")
    # the reductions of w.min() and w.max(), without their Python-level wrappers
    lo = np.minimum.reduce(w, axis=None)
    if not lo > 0.0:
        raise ValueError(f"weight must be positive everywhere (min={lo})")
    return _div_form(geom, f, w, lo != np.maximum.reduce(w, axis=None))


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
