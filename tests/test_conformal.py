import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryf.conformal import (
    ConformalState,
    conformal_sub_laplacian,
    conformal_volume_element,
    pullback_state,
    scale_state,
    webster_curvature,
)
from cryf.errors import PositivityError
from cryf.geometry import (
    GridSpec,
    build_nilmanifold,
    integrate_base,
    pullback_z_shift,
    sub_laplacian_base,
)

from conftest import random_field, random_state, single_mode_state
from reference import integrate_conformal


class TestState:
    def test_rejects_nonpositive(self, geom4):
        u = np.ones(geom4.shape)
        u[1, 2, 3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            ConformalState(geom4, u)

    def test_rejects_nonfinite(self, geom4):
        u = np.ones(geom4.shape)
        u[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ConformalState(geom4, u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("other", [1.0, -1.0, 0.0])
    def test_nonfinite_reported_before_sign(self, geom4, bad, other):
        # the extremes carry a nan or an infinity anywhere in the field
        u = np.ones(geom4.shape)
        u[3, 2, 1] = bad
        u[0, 1, 2] = other
        with pytest.raises(ValueError, match="^u contains non-finite values$"):
            ConformalState(geom4, u)

    def test_nonpositive_message_names_the_minimum(self, geom4):
        u = np.ones(geom4.shape)
        u[1, 2, 3] = -0.25
        with pytest.raises(ValueError, match=r"^u must be positive everywhere \(min=-0\.25\)$"):
            ConformalState(geom4, u)

    def test_rejects_wrong_shape(self, geom4):
        with pytest.raises(ValueError, match="shape"):
            ConformalState(geom4, np.ones((4, 4, 5)))


class TestWebsterCurvature:
    @pytest.mark.parametrize("c", [1.0, 2.5])
    def test_constant_flat(self, geom448, c):
        state = ConformalState(geom448, np.full(geom448.shape, c))
        r = webster_curvature(state)
        assert np.all(r == 0.0)
        # zeros are +0.0, as R_base u = +0.0 makes them; reports print the sign
        assert not np.signbit(r).any()

    def test_floor_refusal(self, geom4):
        state = ConformalState(geom4, np.full(geom4.shape, 1e-7))
        with pytest.raises(PositivityError):
            webster_curvature(state)
        # a custom floor overrides the default
        webster_curvature(state, u_floor=1e-9)

    def test_result_shares_no_memory_with_u(self, geom448):
        # both results are new fields; conformal_volume_element squares its
        # field in place, which must not reach u
        state = random_state(geom448, 8)
        keep = state.u.tobytes()
        r = webster_curvature(state)
        dv = conformal_volume_element(state)
        assert not any(np.may_share_memory(a, state.u) for a in (r, dv))
        assert not np.may_share_memory(r, dv)
        assert state.u.tobytes() == keep
        assert dv.tobytes() == ((state.u * state.u) * (state.u * state.u)).tobytes()

    def test_single_mode_discrete_closed_form(self, geom16):
        n = geom16.spec.ny
        eps = 0.1
        state = single_mode_state(geom16, eps)
        _, y, _ = geom16.coords()
        s = np.sin(2 * np.pi * y) + np.zeros(geom16.shape)
        rate = 4.0 * n * n * np.sin(np.pi / n) ** 2
        expect = 4.0 * rate * eps * s / state.u**3
        got = webster_curvature(state)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_single_mode_continuum_limit_second_order(self):
        eps = 0.1
        errs = []
        for n in (16, 32):
            geom = build_nilmanifold(GridSpec(n, n, n))
            state = single_mode_state(geom, eps)
            _, y, _ = geom.coords()
            s = np.sin(2 * np.pi * y) + np.zeros(geom.shape)
            exact = 16.0 * np.pi**2 * eps * s / (1.0 + eps * s) ** 3
            errs.append(np.abs(webster_curvature(state) - exact).max())
        assert np.log2(errs[0] / errs[1]) >= 1.8


class TestNoFloatPowers:
    """Curvature and volume element by products and quotients, within a few
    roundings of the power expressions they replaced."""

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_close_to_power_expressions(self, geom16, scale):
        eps = np.finfo(float).eps
        state = scale_state(random_state(geom16, 8, amplitude=0.6, smooth=2), scale)
        u = state.u
        rhs = -4.0 * sub_laplacian_base(geom16, u) + 0.0
        old = u ** -3.0 * rhs
        assert np.all(np.abs(webster_curvature(state) - old) <= 4 * eps * np.abs(old))
        old = u ** 4.0
        assert np.all(np.abs(conformal_volume_element(state) - old) <= 3 * eps * old)

    def test_volume_element_is_a_new_array(self, geom448):
        state = random_state(geom448, 2)
        u0 = state.u.copy()
        dv = conformal_volume_element(state)
        assert not np.shares_memory(dv, state.u)
        assert np.array_equal(state.u, u0)
        assert np.array_equal(dv, (u0 * u0) * (u0 * u0))


class TestVolume:
    def test_trivials(self, geom448):
        one = ConformalState(geom448, np.ones(geom448.shape))
        assert np.all(conformal_volume_element(one) == 1.0)
        two = ConformalState(geom448, np.full(geom448.shape, 2.0))
        assert np.all(conformal_volume_element(two) == 16.0)
        assert integrate_conformal(one, np.ones(geom448.shape)) == pytest.approx(1.0, abs=1e-14)
        assert integrate_conformal(two, np.ones(geom448.shape)) == pytest.approx(16.0, rel=1e-14)

    def test_single_mode_total_volume_closed_form(self, geom16):
        # discrete quadrature is exact for this trigonometric polynomial
        eps = 0.1
        state = single_mode_state(geom16, eps)
        vol = integrate_conformal(state, np.ones(geom16.shape))
        expect = 1.0 + 3.0 * eps**2 + 0.375 * eps**4
        assert vol == pytest.approx(expect, rel=1e-13)

    def test_mean_curvature_integral(self, geom16):
        # int R dV reduces to the (nonnegative) horizontal energy of u
        n = geom16.spec.ny
        eps = 0.1
        state = single_mode_state(geom16, eps)
        got = integrate_conformal(state, webster_curvature(state))
        expect = 8.0 * eps**2 * n * n * np.sin(np.pi / n) ** 2
        assert got == pytest.approx(expect, rel=1e-12)
        assert abs(expect - 8.0 * np.pi**2 * eps**2) <= 0.05 * 8.0 * np.pi**2 * eps**2

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mean_curvature_nonnegative_on_flat_background(self, seed):
        geom = build_nilmanifold(GridSpec(4, 4, 8))
        state = random_state(geom, seed)
        val = integrate_conformal(state, webster_curvature(state))
        assert val >= -1e-12 * max(1.0, abs(val))


class TestConformalSubLaplacian:
    def test_unit_u_reduces_bitwise(self, geom448):
        f = random_field(geom448, 31)
        state = ConformalState(geom448, np.ones(geom448.shape))
        assert np.array_equal(conformal_sub_laplacian(state, f),
                              sub_laplacian_base(geom448, f))

    def test_constant_u_scaling(self, geom448):
        f = random_field(geom448, 32)
        c = 1.7
        state = ConformalState(geom448, np.full(geom448.shape, c))
        got = conformal_sub_laplacian(state, f)
        expect = c**-2 * sub_laplacian_base(geom448, f)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conformal_divergence_theorem(self, seed):
        geom = build_nilmanifold(GridSpec(4, 4, 8))
        state = random_state(geom, seed)
        f = random_field(geom, seed + 7)
        lap = conformal_sub_laplacian(state, f)
        scale = integrate_conformal(state, np.abs(lap))
        assert abs(integrate_conformal(state, lap)) <= 1e-12 * max(1.0, scale)

    def test_self_adjoint_in_conformal_product(self, geom448):
        state = random_state(geom448, 33)
        f = random_field(geom448, 34)
        g = random_field(geom448, 35)
        dv = conformal_volume_element(state)
        lhs = integrate_base(geom448, g * conformal_sub_laplacian(state, f) * dv)
        rhs = integrate_base(geom448, f * conformal_sub_laplacian(state, g) * dv)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestScaleState:
    def test_identity(self, geom448):
        state = random_state(geom448, 41)
        assert np.array_equal(scale_state(state, 1.0).u, state.u)

    def test_exponents(self, geom448):
        one = ConformalState(geom448, np.ones(geom448.shape))
        scaled = scale_state(one, 4.0)
        assert np.all(scaled.u == 2.0)
        vol = integrate_conformal(scaled, np.ones(geom448.shape))
        assert vol == pytest.approx(16.0, rel=1e-13)

    def test_curvature_scales_inverse(self, geom16):
        state = single_mode_state(geom16, 0.1)
        r = webster_curvature(state)
        r2 = webster_curvature(scale_state(state, 2.0))
        assert np.abs(r2 - 0.5 * r).max() <= 1e-12 * np.abs(r).max()

    def test_rejects_nonpositive(self, geom4):
        state = random_state(geom4, 42)
        with pytest.raises(ValueError):
            scale_state(state, 0.0)
        with pytest.raises(ValueError):
            scale_state(state, -2.0)


class TestPullbackState:
    def test_identity(self, geom448):
        state = random_state(geom448, 51)
        assert np.array_equal(pullback_state(state, 0).u, state.u)

    def test_volume_invariant(self, geom448):
        state = random_state(geom448, 52)
        v0 = integrate_conformal(state, np.ones(geom448.shape))
        v1 = integrate_conformal(pullback_state(state, 5), np.ones(geom448.shape))
        assert abs(v1 - v0) <= 1e-15 * max(1.0, abs(v0))

    def test_curvature_commutes_exactly(self, geom448):
        state = random_state(geom448, 53)
        lhs = webster_curvature(pullback_state(state, 3))
        rhs = pullback_z_shift(geom448, webster_curvature(state), 3)
        assert np.abs(lhs - rhs).max() <= 1e-15 * max(1.0, np.abs(rhs).max())
