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
never assumed.

Fields are plain float64 numpy arrays of shape (N_x, N_y, N_z), C-order,
so the z index varies fastest.

The divergence-form kernel works in three scratch fields that each geometry
allocates on first use and keeps, so one geometry must not be shared by
threads that apply the kernel concurrently.  Build one geometry per grid and
pass it around: every further geometry of the same grid holds three more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

FRAMES = ("X", "Y", "Z")
SCHEMES = ("forward", "centered")


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


def canonical_index(spec: GridSpec, i, j, k):
    """Map arbitrary signed lattice indices to the fundamental-domain representative.

    Wraps k and j plainly; each unit wrap in i (i -> i - N_x) shifts k by
    -j * N_z/N_y, realizing f(x+1, y, z+y) = f(x, y, z).  Accepts scalars or
    integer arrays; idempotent on in-range indices.
    """
    q, i_c = divmod(i, spec.nx)
    j_c = j % spec.ny
    k_c = (k - q * j_c * spec.twist) % spec.nz
    return i_c, j_c, k_c


class BaseGeometry:
    """Frame operators, quadrature and symmetry maps for one grid resolution.

    The background contact form is flat: its Webster scalar curvature is
    identically zero, which the conformal formulas use by leaving the
    R_base u term out (checked operationally by constants being flow fixed
    points).

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
        # work fields of _div_form, allocated on its first call
        self._scratch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

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


def _frame(geom: BaseGeometry, which: str, d) -> np.ndarray:
    """Frame field X = d_x, Y = d_y + x d_z or Z = d_z, from one-axis differences.

    d(axis, h) is a difference along one lattice axis, scaled by that
    axis's cell size h.
    """
    if which not in FRAMES:
        raise ValueError(f"which must be one of {FRAMES}, got {which!r}")
    s = geom.spec
    if which == "X":
        return d(0, s.hx)
    if which == "Y":
        return d(1, s.hy) + geom.x_coord * d(2, s.hz)
    return d(2, s.hz)


def frame_derivative(geom: BaseGeometry, f: np.ndarray, which: str,
                     scheme: str = "centered") -> np.ndarray:
    """Difference approximation of a left-invariant frame field X, Y or Z.

    `forward` is first-order one-sided, `centered` second-order symmetric.
    The variable coefficient x in Y = d/dy + x d/dz is evaluated at the
    stencil's center point; all out-of-range lookups go through the twisted
    identification.
    """
    f = _check_field(geom, f)
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")

    def d(axis, h):
        # unnamed shifts, so numpy reuses them as the results' buffers
        if scheme == "forward":
            return (_shift(geom, f, axis, 1) - f) / h
        return (_shift(geom, f, axis, 1) - _shift(geom, f, axis, -1)) / (2.0 * h)

    return _frame(geom, which, d)


def frame_derivative_adjoint(geom: BaseGeometry, f: np.ndarray, which: str) -> np.ndarray:
    """Exact adjoint of the forward frame difference under the grid inner product.

    The forward difference is (S - I)/h with S a permutation of the grid
    slots, so the adjoint is (S^{-1} - I)/h; for Y the coefficient x commutes
    with the z-shift (it does not change the x index), hence the adjoint is
    again local.
    """
    f = _check_field(geom, f)
    return _frame(geom, which, lambda axis, h: (_shift(geom, f, axis, -1) - f) / h)


def _diff(geom: BaseGeometry, g: np.ndarray, axis: int, step: int,
          out: np.ndarray) -> None:
    """Unscaled one-sided difference of g along one lattice axis, into out.

    step=+1 gives S g - g and step=-1 gives g - S^-1 g, where S samples one
    lattice step further along the axis (for x through the sheared wrap).
    S is a permutation, so every entry is a single subtraction.  A lattice
    step is `stride` places of the flat C-order array, so one flat pass
    differences every line; the entries it takes across two lines lie in
    the wrap slab, which the second subtraction overwrites.  `out` must be
    C-contiguous and distinct from g.
    """
    stride = math.prod(g.shape[axis + 1:])
    flat = g.reshape(-1)
    dst, edge = (slice(None, -stride), -1) if step == 1 else (slice(stride, None), 0)
    np.subtract(flat[stride:], flat[:-stride], out=out.reshape(-1)[dst])
    ix = (slice(None),) * axis
    first, last = g[ix + (0,)], g[ix + (-1,)]
    if axis == 0:
        if step == 1:
            first = np.take(first, geom._wrap[1])
        else:
            last = np.take(last, geom._wrap[-1])
    np.subtract(first, last, out=out[ix + (edge,)])


def _conservative_form(geom: BaseGeometry, f: np.ndarray, w: np.ndarray | None,
                       step: int, out: np.ndarray, a: np.ndarray, b: np.ndarray,
                       c: np.ndarray) -> None:
    """One conservative form -D*(w D f) into out, D one-sided in direction `step`.

    With d = _diff(.., step), d' = _diff(.., -step) = -h D* and the column
    q = x * hy/hz, it takes differences unscaled and scales each part once:

        Fx = w * d_x f                 Fy = w * (d_y f + q * d_z f)
        out = d'_x Fx * hx^-2 + (d'_y Fy + q * d'_z Fy) * hy^-2

    Exactly, this is the textbook grouping d'_x(w d_x f / hx) / hx + ...;
    a power-of-two scale commutes with rounding, so on grids whose cell
    sizes are powers of two the two agree bit for bit, and elsewhere they
    differ by rounding.  a, b, c are scratch; out may be c, whose last read
    comes before out's first write.
    """
    q = geom._q
    _diff(geom, f, 1, step, b)
    _diff(geom, f, 2, step, c)
    c *= q
    b += c
    if w is not None:
        b *= w
    _diff(geom, b, 1, -step, a)
    _diff(geom, b, 2, -step, c)
    c *= q
    a += c
    a *= geom.spec.ny ** 2
    _diff(geom, f, 0, step, b)
    if w is not None:
        b *= w
    _diff(geom, b, 0, -step, out)
    out *= geom.spec.nx ** 2
    out += a


def _div_form(geom: BaseGeometry, f: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Conservative form -D*(w D f), symmetrized when the weight varies.

    Each one-sided form carries an exact adjoint pair, so symmetry, negative
    semidefiniteness and exact zero mean hold for any positive weight.  For
    a weight that varies, the forward-flux and backward-flux forms are
    averaged, which cancels the O(h) weight-offset error of either one and
    gives second-order consistency for smooth weights.  For no weight or a
    constant one the two forms are the same linear operator (the lattice
    shifts commute, and x is constant along y and z), so only the forward
    form is evaluated; it differs from the average only by rounding.  Works
    in the geometry's three scratch fields; only the returned array is new.
    """
    if geom._scratch is None:
        geom._scratch = tuple(np.empty(geom.shape) for _ in range(3))
    a, b, c = geom._scratch
    out = np.empty(geom.shape)
    _conservative_form(geom, f, w, 1, out, a, b, c)
    if w is not None and w.min() != w.max():
        _conservative_form(geom, f, w, -1, c, a, b, c)
        out += c
        out *= 0.5
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


def grid_inner(geom: BaseGeometry, f: np.ndarray, g: np.ndarray) -> float:
    """Grid inner product <f, g> = w0 * sum(f*g)."""
    return float(geom.w0 * np.sum(np.asarray(f) * np.asarray(g)))


def pullback_z_shift(geom: BaseGeometry, f: np.ndarray, m: int) -> np.ndarray:
    """Pull back f by the central translation of m lattice steps in z.

    Central (Reeb direction) translations are exact automorphisms of the
    quotient and of the frame, so this is a bijective relabeling: quadrature
    is exactly invariant and the operation commutes with every frame
    operator.
    """
    f = _check_field(geom, f)
    return np.roll(f, -int(m), axis=2)


def frame_commutator_check(geom: BaseGeometry, f: np.ndarray) -> np.ndarray:
    """Residual field X(Yf) - Y(Xf) - Zf with centered differences.

    For smooth fields this converges to zero under refinement (order >= 1;
    the twist planes contribute the first-order part), certifying that the
    discrete frame inherits the commutation relation [X, Y] = Z.
    """
    f = _check_field(geom, f)

    def cd(g, which):
        return frame_derivative(geom, g, which, "centered")

    return cd(cd(f, "Y"), "X") - cd(cd(f, "X"), "Y") - cd(f, "Z")
