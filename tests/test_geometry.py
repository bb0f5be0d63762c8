import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryf.errors import ConfigurationError
from cryf.geometry import (
    GridSpec,
    _shift,
    build_nilmanifold,
    integrate_base,
    pullback_z_shift,
    sub_laplacian_base,
    weighted_div_form,
)
from cryf import geometry
from cryf import manufactured as mfg

from conftest import random_field
from reference import (REFERENCE_GRIDS, SINGLE_SLAB_GRIDS, canonical_index,
                       frame_commutator_check, frame_derivative, frame_derivative_adjoint,
                       grid_inner, theta_frame_derivatives)


class TestGridSpec:
    def test_valid_cube(self):
        geom = build_nilmanifold(GridSpec(8, 8, 8))
        assert geom.spec.npoints == 512
        assert geom.w0 == pytest.approx(1.0 / 512, rel=0, abs=0)

    def test_divisibility_rejected(self):
        with pytest.raises(ConfigurationError, match="divide"):
            GridSpec(8, 8, 12)

    def test_divisible_ok(self):
        GridSpec(16, 8, 16)

    @pytest.mark.parametrize("bad", [(3, 8, 8), (8, 3, 9), (8, 8, 0), (8, -8, 8)])
    def test_too_small_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            GridSpec(*bad)

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(8.0, 8, 8)

    @pytest.mark.parametrize("sizes", [(10**20, 4, 4), (2**56, 4, 4), (2**21, 2**21, 2**21),
                                       tuple(map(np.int64, (2**21, 2**21, 2**21)))],
                             ids=["1e20", "2^60_points", "2^63_points", "2^63_points_int64"])
    def test_beyond_address_space_rejected(self, sizes):
        # 8 bytes per point must not exceed np.iinfo(np.intp).max = 2^63 - 1
        with pytest.raises(ConfigurationError, match="too large"):
            GridSpec(*sizes)

    def test_largest_addressable_grid_accepted(self):
        assert GridSpec(2**56 - 1, 4, 4).npoints == 2**60 - 16


class TestWorkFields:
    def test_fresh_geometry_holds_three_slab_work_fields(self):
        # the kernel's three scratch fields, each one slab of x-planes and its
        # halo plane, and no full-size field: the flow's step makes its own
        for shape in [(4, 4, 8), (33, 32, 32), (40, 32, 64), (4, 256, 256)]:
            geom = build_nilmanifold(GridSpec(*shape))
            planes, plane = geom._slab_planes, shape[1] * shape[2]
            assert 1 <= planes <= shape[0]
            assert planes == shape[0] or planes == max(1, geometry._SLAB_POINTS // plane)
            assert not any(isinstance(a, np.ndarray) and a.shape == shape
                           for a in vars(geom).values())
            work = list(geom._scratch)
            assert len(work) == 3
            assert all(a.shape == (planes + 1,) + shape[1:] for a in work)
            for i, a in enumerate(work):
                assert a.dtype == np.float64 and a.flags.c_contiguous
                assert not any(np.shares_memory(a, b) for b in work[i + 1:])

    def test_multi_slab_build_and_first_calls_hold_one_result_beyond_slab_scratch(self):
        # 40x32x64 runs in three slabs of 16 planes; the geometry holds only
        # its slab scratch and its wrap tables, and a call keeps its result; its
        # peak beyond that is a plane read through the wrap and numpy's
        # iterator buffers, the same for either call
        spec = GridSpec(40, 32, 64)
        rng = np.random.default_rng(6)
        f = rng.standard_normal(spec.shape)
        w = 0.5 + rng.random(spec.shape)
        field, plane = 8 * spec.npoints, 8 * spec.ny * spec.nz
        tracemalloc.start()
        try:
            geom = build_nilmanifold(spec)
            scratch = sum(a.nbytes for a in geom._scratch)
            for call in (lambda: weighted_div_form(geom, w, f),
                         lambda: sub_laplacian_base(geom, f)):
                tracemalloc.reset_peak()
                result = call()
                kept, peak = tracemalloc.get_traced_memory()
                del result
                assert kept <= field + scratch + 3 * plane
                assert peak <= kept + 3 * plane
        finally:
            tracemalloc.stop()
        assert geom._slab_planes == 16 and scratch == 3 * 17 * plane

    def test_first_kernel_call_allocates_only_its_result(self):
        # the first call's peak is that of any later call (its result, a plane
        # read through the wrap and numpy's iterator buffers), and once the
        # result is dropped it has kept nothing; both conservative forms hold
        # q, and the backward one its result, in the geometry's slab scratch
        f = random_field(build_nilmanifold(GridSpec(16, 16, 16)), 9)
        w = 0.5 + np.random.default_rng(4).random(f.shape)
        for call in (sub_laplacian_base, lambda geom, f: weighted_div_form(geom, w, f)):
            geom = build_nilmanifold(GridSpec(16, 16, 16))
            peaks = []
            for _ in range(2):
                tracemalloc.start()
                try:
                    call(geom, f)
                    kept, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert kept <= 1024
                peaks.append(peak)
            assert peaks[0] <= peaks[1] + 1024
            assert max(peaks) <= 1.35 * f.nbytes


class TestCanonicalIndex:
    def test_plain_wrap_k(self):
        assert canonical_index(GridSpec(8, 8, 8), 0, 0, -1) == (0, 0, 7)

    def test_twisted_wrap(self):
        # one unit x-wrap at j=3 shifts k by -3*N_z/N_y
        assert canonical_index(GridSpec(8, 8, 8), 8, 3, 5) == (0, 3, 2)

    def test_twisted_wrap_composition_oracle(self):
        # stepping +1 in i repeatedly must agree with the one-shot reduction
        spec = GridSpec(8, 8, 8)
        i, j, k = 0, 3, 5
        for _ in range(8):
            i, j, k = canonical_index(spec, i + 1, j, k)
        assert (i, j, k) == canonical_index(spec, 8, 3, 5)

    def test_identity_in_range(self):
        assert canonical_index(GridSpec(8, 8, 8), 0, 2, 4) == (0, 2, 4)

    @given(st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, i, j, k):
        spec = GridSpec(8, 4, 8)
        once = canonical_index(spec, i, j, k)
        assert canonical_index(spec, *once) == once
        assert 0 <= once[0] < 8 and 0 <= once[1] < 4 and 0 <= once[2] < 8

    @pytest.mark.parametrize("offset", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 2, 3)])
    def test_shift_is_bijection(self, offset):
        spec = GridSpec(4, 4, 8)
        di, dj, dk = offset
        image = {
            canonical_index(spec, i + di, j + dj, k + dk)
            for (i, j, k) in itertools.product(range(4), range(4), range(8))
        }
        assert len(image) == spec.npoints

    def test_twist_independent_of_j_representative(self):
        # adding N_y to j must not change the reduction
        spec = GridSpec(8, 4, 8)
        assert canonical_index(spec, 9, 2, 5) == canonical_index(spec, 9, 6, 5)


class TestFrameDerivative:
    @pytest.mark.parametrize("which", ["X", "Y", "Z"])
    @pytest.mark.parametrize("scheme", ["forward", "centered"])
    def test_constant_exact_zero(self, geom448, which, scheme):
        f = np.full(geom448.shape, 2.25)
        assert np.all(frame_derivative(geom448, f, which, scheme) == 0.0)

    def test_sin_x_centered_formula(self, geom16):
        # centered difference of exact samples has a closed form
        x, _, _ = geom16.coords()
        f = np.sin(2 * np.pi * x) + np.zeros(geom16.shape)
        got = frame_derivative(geom16, f, "X", "centered")
        h = geom16.spec.hx
        expect = np.sin(2 * np.pi * h) / h * np.cos(2 * np.pi * x) + np.zeros(geom16.shape)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("which,axis", [("X", 0), ("Y", 1)])
    def test_centered_second_order(self, which, axis):
        errs = []
        for n in (16, 32):
            geom = build_nilmanifold(GridSpec(n, n, n))
            coords = geom.coords()
            c = coords[axis]
            f = np.sin(2 * np.pi * c) + np.zeros(geom.shape)
            exact = 2 * np.pi * np.cos(2 * np.pi * c) + np.zeros(geom.shape)
            errs.append(np.abs(frame_derivative(geom, f, which, "centered") - exact).max())
        assert np.log2(errs[0] / errs[1]) > 1.9

    def test_theta_field_derivatives_converge(self):
        # genuinely twisted test function with exact closed-form derivatives
        errs = {"X": [], "Y": [], "Z": []}
        for n in (16, 32):
            geom = build_nilmanifold(GridSpec(n, n, n))
            f = mfg.lowest_landau_level(geom)
            for which, exact in zip("XYZ", theta_frame_derivatives(geom)):
                got = frame_derivative(geom, f, which, "centered")
                errs[which].append(np.abs(got - exact).max())
        for which, (coarse, fine) in errs.items():
            assert np.log2(coarse / fine) > 1.5, which


class TestAdjointness:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_forward_adjoint_pair(self, seed):
        geom = build_nilmanifold(GridSpec(5, 4, 8))
        f = random_field(geom, seed)
        g = random_field(geom, seed + 1)
        for which in ("X", "Y", "Z"):
            lhs = grid_inner(geom, frame_derivative(geom, f, which, "forward"), g)
            rhs = grid_inner(geom, f, frame_derivative_adjoint(geom, g, which))
            scale = np.sqrt(grid_inner(geom, f, f) * grid_inner(geom, g, g))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale)


class TestDivForm:
    def test_unit_weight_matches_base_bitwise(self, geom448):
        f = random_field(geom448, 11)
        ones = np.ones(geom448.shape)
        assert np.array_equal(weighted_div_form(geom448, ones, f),
                              sub_laplacian_base(geom448, f))

    def test_constant_field_exact_zero(self, geom448):
        w = 0.5 + np.abs(random_field(geom448, 12))
        f = np.full(geom448.shape, -3.0)
        assert np.all(weighted_div_form(geom448, w, f) == 0.0)

    def test_nonpositive_weight_rejected(self, geom4):
        w = np.ones(geom4.shape)
        w[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            weighted_div_form(geom4, w, np.ones(geom4.shape))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_exact_zero_mean_symmetry_semidefiniteness(self, seed):
        geom = build_nilmanifold(GridSpec(4, 4, 8))
        rng = np.random.default_rng(seed)
        w = 0.5 + rng.random(geom.shape)
        f = rng.standard_normal(geom.shape)
        g = rng.standard_normal(geom.shape)
        lf = weighted_div_form(geom, w, f)
        lg = weighted_div_form(geom, w, g)
        scale = integrate_base(geom, np.abs(lf))
        assert abs(integrate_base(geom, lf)) <= 1e-12 * max(1.0, scale)
        sym = grid_inner(geom, g, lf) - grid_inner(geom, f, lg)
        assert abs(sym) <= 1e-12 * max(1.0, abs(grid_inner(geom, g, lf)))
        quad = grid_inner(geom, f, lf)
        assert quad <= 1e-12 * max(1.0, abs(quad))


def shift_forms(geom, f, w):
    """Shift-based forward-flux and backward-flux conservative forms.

    Builds every shifted field as a copy and evaluates -D+*(w D+ f) and
    -D-*(w D- f) in the kernel's grouping: unscaled differences, the column
    q = x * hy/hz in Y = (d_y + q d_z)/hy, and one 1/h^2 scale per part.
    """
    s = geom.spec
    shift = functools.partial(_shift, geom)
    q = geom.x_coord * (s.nz // s.ny)
    dxf = shift(f, 0, 1) - f
    dyf = (shift(f, 1, 1) - f) + q * (shift(f, 2, 1) - f)
    if w is not None:
        dxf = w * dxf
        dyf = w * dyf
    out_f = (dxf - shift(dxf, 0, -1)) * s.nx ** 2
    out_f += ((dyf - shift(dyf, 1, -1)) + q * (dyf - shift(dyf, 2, -1))) * s.ny ** 2
    dxb = f - shift(f, 0, -1)
    dyb = (f - shift(f, 1, -1)) + q * (f - shift(f, 2, -1))
    if w is not None:
        dxb = w * dxb
        dyb = w * dyb
    out_b = (shift(dxb, 0, 1) - dxb) * s.nx ** 2
    out_b += ((shift(dyb, 1, 1) - dyb) + q * (shift(dyb, 2, 1) - dyb)) * s.ny ** 2
    return out_f, out_b


def shift_forms_textbook(geom, f, w):
    """The same two forms in the textbook grouping, each difference divided by h."""
    s = geom.spec
    shift = functools.partial(_shift, geom)
    x = geom.x_coord
    dxf = (shift(f, 0, 1) - f) / s.hx
    dyf = (shift(f, 1, 1) - f) / s.hy + x * (shift(f, 2, 1) - f) / s.hz
    if w is not None:
        dxf = w * dxf
        dyf = w * dyf
    out_f = (dxf - shift(dxf, 0, -1)) / s.hx
    out_f += (dyf - shift(dyf, 1, -1)) / s.hy + x * (dyf - shift(dyf, 2, -1)) / s.hz
    dxb = (f - shift(f, 0, -1)) / s.hx
    dyb = (f - shift(f, 1, -1)) / s.hy + x * (f - shift(f, 2, -1)) / s.hz
    if w is not None:
        dxb = w * dxb
        dyb = w * dyb
    out_b = (shift(dxb, 0, 1) - dxb) / s.hx
    out_b += (shift(dyb, 1, 1) - dyb) / s.hy + x * (shift(dyb, 2, 1) - dyb) / s.hz
    return out_f, out_b


def shift_div_form_symmetrized(geom, f, w, forms=shift_forms):
    """Mean of the forward and backward forms, for any weight."""
    out_f, out_b = forms(geom, f, w)
    return 0.5 * (out_f + out_b)


def shift_div_form_reference(geom, f, w, forms=shift_forms):
    """Shift-based evaluation of the divergence form the kernel computes.

    The forward form alone when the weight is None or constant, where both
    forms are the same operator; the symmetrized mean for a varying weight.
    With the default `forms` the production kernel must match it bit for bit.
    """
    if w is None or w.min() == w.max():
        return forms(geom, f, w)[0]
    return shift_div_form_symmetrized(geom, f, w, forms)


def rounding_tol(geom, f, weight):
    """32 eps * w * max|f| * (hx^-2 + hy^-2 + hz^-2): a rounding-level kernel difference."""
    s = geom.spec
    return (32 * np.finfo(float).eps * weight * np.abs(f).max()
            * (s.hx ** -2 + s.hy ** -2 + s.hz ** -2))


class TestKernelMatchesReference:
    @pytest.mark.parametrize("shape", REFERENCE_GRIDS)
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_bitwise_equal(self, shape, seed):
        geom = build_nilmanifold(GridSpec(*shape))
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(shape)
        w = 0.5 + rng.random(shape)
        c = np.full(shape, 2.5)
        assert np.array_equal(sub_laplacian_base(geom, f),
                              shift_div_form_reference(geom, f, None))
        assert np.array_equal(weighted_div_form(geom, w, f),
                              shift_div_form_reference(geom, f, w))
        assert np.array_equal(weighted_div_form(geom, c, f),
                              shift_div_form_reference(geom, f, c))

    # the two sides differ in the forms they sum, not in how a slab is cut
    @pytest.mark.parametrize("shape", SINGLE_SLAB_GRIDS)
    @pytest.mark.parametrize("weight", [None, 2.5, 0.3])
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-3, 1e5]))
    @settings(max_examples=5, deadline=None)
    def test_constant_weight_within_rounding_of_symmetrized(self, shape, weight,
                                                            seed, scale):
        # no weight or a constant one evaluates the forward form alone; it
        # equals the symmetrized mean in exact arithmetic, so the two may
        # differ only by rounding, bounded per unit weight and per unit f
        geom = build_nilmanifold(GridSpec(*shape))
        f = scale * np.random.default_rng(seed).standard_normal(shape)
        w = None if weight is None else np.full(shape, weight)
        got = (sub_laplacian_base(geom, f) if w is None
               else weighted_div_form(geom, w, f))
        old = shift_div_form_symmetrized(geom, f, w)
        assert np.abs(got - old).max() <= rounding_tol(geom, f, weight or 1.0)

    @pytest.mark.parametrize("shape", [(4, 4, 8), (8, 8, 8), (16, 8, 16), (32, 32, 32)])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=3, deadline=None)
    def test_bitwise_textbook_on_power_of_two_grids(self, shape, seed):
        # every cell size is a power of two, and scaling by one commutes
        # with rounding, so the regrouping changes no bit
        geom = build_nilmanifold(GridSpec(*shape))
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(shape)
        for w in (None, np.full(shape, 2.5), 0.5 + rng.random(shape)):
            got = sub_laplacian_base(geom, f) if w is None else weighted_div_form(geom, w, f)
            assert np.array_equal(got, shift_div_form_reference(geom, f, w,
                                                                shift_forms_textbook))

    @pytest.mark.parametrize("shape", [(5, 4, 8), (6, 4, 12), (12, 12, 24)])
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-3, 1e5]))
    @settings(max_examples=3, deadline=None)
    def test_within_rounding_of_textbook(self, shape, seed, scale):
        geom = build_nilmanifold(GridSpec(*shape))
        rng = np.random.default_rng(seed)
        f = scale * rng.standard_normal(shape)
        for w in (None, np.full(shape, 0.3), 0.5 + rng.random(shape)):
            got = sub_laplacian_base(geom, f) if w is None else weighted_div_form(geom, w, f)
            old = shift_div_form_reference(geom, f, w, shift_forms_textbook)
            weight = 1.0 if w is None else w.max()
            assert np.abs(got - old).max() <= rounding_tol(geom, f, weight)

    @pytest.mark.parametrize("weight,passes", [(None, 1), ("constant", 1), ("varying", 2)])
    def test_conservative_form_passes(self, geom548, monkeypatch, weight, passes):
        calls = []
        real = geometry._conservative_form

        def counting(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(geometry, "_conservative_form", counting)
        f = random_field(geom548, 7)
        if weight is None:
            sub_laplacian_base(geom548, f)
        else:
            w = (np.full(geom548.shape, 1.7) if weight == "constant"
                 else 0.5 + np.abs(random_field(geom548, 8)))
            weighted_div_form(geom548, w, f)
        assert calls == [1, -1][:passes]

    def test_noncontiguous_input(self, geom548):
        # on one slab, and on 40x16x64, whose second slab reads its halo
        # planes from a strided f and w
        rng = np.random.default_rng(5)
        for geom in (geom548, build_nilmanifold(GridSpec(40, 16, 64))):
            nx, ny, nz = geom.shape
            f = rng.standard_normal((nx, ny, 2 * nz))[..., ::2]
            w = 0.5 + rng.random((nx, ny, 2 * nz))[..., 1::2]
            assert np.array_equal(weighted_div_form(geom, w, f),
                                  shift_div_form_reference(geom, f, w))
            assert np.array_equal(sub_laplacian_base(geom, f),
                                  shift_div_form_reference(geom, f, None))

    def test_results_and_inputs_not_aliased(self, geom548):
        f, g = random_field(geom548, 1), random_field(geom548, 2)
        w = 0.5 + np.abs(random_field(geom548, 3))
        f0, w0 = f.copy(), w.copy()
        first = weighted_div_form(geom548, w, f)
        kept = first.copy()
        second = weighted_div_form(geom548, w, g)
        third = sub_laplacian_base(geom548, g)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(second, third)
        assert np.array_equal(f, f0) and np.array_equal(w, w0)
        assert np.array_equal(second, shift_div_form_reference(geom548, g, w))

    def test_alternating_geometries(self):
        geoms = [build_nilmanifold(GridSpec(6, 4, 12)), build_nilmanifold(GridSpec(8, 8, 8))]
        for step in range(4):
            geom = geoms[step % 2]
            f = random_field(geom, step)
            w = 1.0 + np.abs(random_field(geom, step + 10))
            assert np.array_equal(weighted_div_form(geom, w, f),
                                  shift_div_form_reference(geom, f, w))
            assert np.array_equal(sub_laplacian_base(geom, f),
                                  shift_div_form_reference(geom, f, None))


class TestShift:
    @pytest.mark.parametrize("shape", [(4, 4, 8), (5, 4, 8), (6, 4, 12)])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("step", [1, -1])
    def test_equals_gather_at_canonical_index(self, shape, axis, step):
        # canonical_index encodes the twisted wrap independently of the wrap table
        spec = GridSpec(*shape)
        f = np.random.default_rng(4 * axis + step + 1).standard_normal(shape)
        di, dj, dk = np.eye(3, dtype=int)[axis] * step
        i, j, k = np.indices(shape)
        expect = f[canonical_index(spec, i + di, j + dj, k + dk)]
        assert np.array_equal(_shift(build_nilmanifold(spec), f, axis, step), expect)


class TestDiff:
    # the kernel differences y and z with _diff, and x, whose wrap shears,
    # with _x_diff: n + 1 planes over all of x hold the forward difference
    # in d[1:] and the backward one in d[:-1]
    @pytest.mark.parametrize("shape", [(4, 4, 8), (5, 4, 8), (6, 4, 12)])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("step", [1, -1])
    def test_bitwise_equal_to_shifted_difference(self, shape, axis, step):
        geom = build_nilmanifold(GridSpec(*shape))
        g = np.random.default_rng(4 * axis + step + 1).standard_normal(shape)
        if axis == 0:
            n = shape[0]
            d = np.empty((n + 1,) + shape[1:])
            geometry._x_diff(geom, g, 0, n, d)
            out = d[1:] if step == 1 else d[:-1]
            # a slab's planes and its two halo planes are those of the whole
            for i0 in range(n):
                for i1 in range(i0 + 1, n + 1):
                    part = np.empty((i1 - i0 + 1,) + shape[1:])
                    geometry._x_diff(geom, g, i0, i1, part)
                    assert np.array_equal(part, d[i0:i1 + 1])
        else:
            out = np.empty(shape)
            geometry._diff(g, axis, step, out)
        shifted = _shift(geom, g, axis, step)
        assert np.array_equal(out, shifted - g if step == 1 else g - shifted)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("step", [1, -1])
    def test_peak_memory_one_plane_plus_slack(self, geom16, axis, step):
        # the flat pass allocates nothing; the wrap may: each x-wrap take
        # builds one x-plane, and numpy's iterator gives a strided 2-D slab
        # three slab-sized buffers (6 KiB here), inside the 8 KiB slack
        g = random_field(geom16, 4)
        out = np.empty((17, 16, 16) if axis == 0 else geom16.shape)

        def diff():
            if axis == 0:
                geometry._x_diff(geom16, g, 0, 16, out)
            else:
                geometry._diff(g, axis, step, out)

        diff()
        tracemalloc.start()
        try:
            diff()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * 16 + 8192


# one case per row of the convergence-study table
over_eigenpairs = pytest.mark.parametrize("name, field, lam, twisted", mfg.EIGENPAIRS,
                                          ids=[row[0] for row in mfg.EIGENPAIRS])


class TestSubLaplacian:
    def test_constant_exact_zero(self, geom548):
        f = np.full(geom548.shape, 7.5)
        assert np.all(sub_laplacian_base(geom548, f) == 0.0)

    @pytest.mark.parametrize("shape", [(4, 4, 8), (5, 4, 8), (8, 4, 12)])
    def test_null_space_is_the_constants(self, shape):
        # the dense operator, one unit field per column: one zero eigenvalue,
        # with a constant eigenvector, and every other eigenvalue bounded away below it
        geom = build_nilmanifold(GridSpec(*shape))
        n = geom.spec.npoints
        mat = np.column_stack([sub_laplacian_base(geom, e.reshape(shape)).ravel()
                               for e in np.eye(n)])
        lam, vec = np.linalg.eigh(0.5 * (mat + mat.T))
        scale = np.abs(lam).max()
        null = np.abs(lam) <= 1e-13 * scale
        assert null.sum() == 1
        v = vec[:, null][:, 0]
        assert np.abs(v - v.mean()).max() <= 1e-12 * np.abs(v).max()
        assert np.all(lam[~null] <= -1e-3 * scale)

    def test_sin_y_discrete_closed_form(self, geom16):
        n = geom16.spec.ny
        _, y, _ = geom16.coords()
        f = np.sin(2 * np.pi * y) + np.zeros(geom16.shape)
        got = sub_laplacian_base(geom16, f)
        expect = -4.0 * n * n * np.sin(np.pi / n) ** 2 * f
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    @over_eigenpairs
    def test_consistency_order(self, name, field, lam, twisted):
        errs = []
        for n in (16, 32):
            geom = build_nilmanifold(GridSpec(n, n, n))
            f = field(geom)
            diff = sub_laplacian_base(geom, f) + lam * f
            errs.append(np.sqrt(integrate_base(geom, diff * diff)))
        assert np.log2(errs[0] / errs[1]) >= (0.9 if twisted else 1.8)

    @over_eigenpairs
    def test_exact_eigenpair(self, name, field, lam, twisted):
        # X(Xf) + Y(Yf) + lam f by centred differences, without the kernel: a
        # wrong lam leaves an O(1) residual that does not fall with h
        errs = []
        for n in (16, 32):
            geom = build_nilmanifold(GridSpec(n, n, n))
            f = field(geom)
            res = lam * f
            for which in "XY":
                res += frame_derivative(geom, frame_derivative(geom, f, which), which)
            errs.append(np.sqrt(integrate_base(geom, res * res) / integrate_base(geom, f * f)))
        assert np.log2(errs[0] / errs[1]) >= 1.8


class TestIntegrateBase:
    def test_unit_volume(self, geom548):
        assert integrate_base(geom548, np.ones(geom548.shape)) == pytest.approx(1.0, abs=1e-14)

    def test_sin_zero(self, geom8):
        _, y, _ = geom8.coords()
        f = np.sin(2 * np.pi * y) + np.zeros(geom8.shape)
        assert abs(integrate_base(geom8, f)) <= 1e-14

    def test_sin_squared_half(self, geom8):
        # equispaced sampling is exact for this trigonometric polynomial
        _, y, _ = geom8.coords()
        f = np.sin(2 * np.pi * y) ** 2 + np.zeros(geom8.shape)
        assert abs(integrate_base(geom8, f) - 0.5) <= 1e-14


@pytest.mark.parametrize("name, call", [
    ("f", lambda geom, bad, ok: sub_laplacian_base(geom, bad)),
    ("w", lambda geom, bad, ok: weighted_div_form(geom, bad, ok)),
    ("f", lambda geom, bad, ok: weighted_div_form(geom, ok, bad)),
    ("f", lambda geom, bad, ok: integrate_base(geom, bad)),
    ("f", lambda geom, bad, ok: pullback_z_shift(geom, bad, 1)),
], ids=["sub_laplacian_base", "weighted_div_form_w", "weighted_div_form_f", "integrate_base",
        "pullback_z_shift"])
def test_shape_mismatch_names_the_argument(geom4, name, call):
    with pytest.raises(ValueError, match=rf"^{name} has shape \(4, 4, 5\), expected \(4, 4, 4\)$"):
        call(geom4, np.ones((4, 4, 5)), np.ones(geom4.shape))


class TestPullback:
    def test_identity_shifts(self, geom448):
        f = random_field(geom448, 21)
        assert np.array_equal(pullback_z_shift(geom448, f, 0), f)
        assert np.array_equal(pullback_z_shift(geom448, f, geom448.spec.nz), f)

    def test_integral_invariant_and_commutes(self, geom448):
        f = random_field(geom448, 22)
        shifted = pullback_z_shift(geom448, f, 3)
        assert abs(integrate_base(geom448, shifted) - integrate_base(geom448, f)) \
            <= 1e-15 * max(1.0, abs(integrate_base(geom448, f)))
        lhs = sub_laplacian_base(geom448, shifted)
        rhs = pullback_z_shift(geom448, sub_laplacian_base(geom448, f), 3)
        assert np.abs(lhs - rhs).max() <= 1e-15 * max(1.0, np.abs(rhs).max())


class TestOutFields:
    """Each field-returning function hands out a new float64 field of the
    geometry's shape, sharing no memory with its input or the geometry's
    slab scratch, that holds the plain expression's bits."""

    @pytest.mark.parametrize("shape", REFERENCE_GRIDS)
    def test_sub_laplacian_into_out(self, shape):
        geom = build_nilmanifold(GridSpec(*shape))
        f = np.random.default_rng(31).standard_normal(shape)
        keep = f.tobytes()
        out = sub_laplacian_base(geom, f)
        assert out.dtype == np.float64 and out.shape == shape and out.flags.c_contiguous
        assert not any(np.may_share_memory(out, a) for a in (f, *geom._scratch))
        assert f.tobytes() == keep
        assert out.tobytes() == weighted_div_form(geom, np.ones(shape), f).tobytes()
        # a call on another field between two calls leaves no trace in the scratch
        sub_laplacian_base(geom, np.random.default_rng(32).standard_normal(shape))
        assert sub_laplacian_base(geom, f).tobytes() == out.tobytes()

    @pytest.mark.parametrize("shape", [(4, 4, 8), (8, 4, 12)])
    def test_pullback_bitwise_equal_to_roll(self, shape):
        geom = build_nilmanifold(GridSpec(*shape))
        f = np.random.default_rng(32).standard_normal(shape)
        keep = f.tobytes()
        nz = shape[2]
        for m in range(-2 * nz - 1, 2 * nz + 2):
            out = pullback_z_shift(geom, f, m)
            assert out.tobytes() == np.roll(f, -m, axis=2).tobytes()
            # soliton_state scales the result in place, so it is never f itself
            assert not np.may_share_memory(out, f)
        assert f.tobytes() == keep


class TestCommutator:
    def test_constant_exact_zero(self, geom448):
        f = np.full(geom448.shape, 4.2)
        assert np.all(frame_commutator_check(geom448, f) == 0.0)

    def test_sin_x_vanishes(self, geom16):
        x, _, _ = geom16.coords()
        f = np.sin(2 * np.pi * x) + np.zeros(geom16.shape)
        assert np.abs(frame_commutator_check(geom16, f)).max() <= 1e-12

    def test_sin_y_vanishes(self, geom16):
        _, y, _ = geom16.coords()
        f = np.sin(2 * np.pi * y) + np.zeros(geom16.shape)
        assert np.abs(frame_commutator_check(geom16, f)).max() <= 1e-12

    def test_theta_field_converges_first_order(self):
        errs = []
        for n in (16, 32):
            geom = build_nilmanifold(GridSpec(n, n, n))
            f = mfg.lowest_landau_level(geom)
            errs.append(np.abs(frame_commutator_check(geom, f)).max())
        assert np.log2(errs[0] / errs[1]) >= 1.0
