"""Unit-circle angle codec: round trips, the piecewise argument, distances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotdet import angle
from rotdet.errors import ContractError, DegenerateInputError


def arg_oracle(x, y):
    """Two-argument arctangent shifted into [0, 2*pi)."""
    return math.atan2(y, x) % (2.0 * math.pi)


class TestEncode:
    def test_zero(self):
        code = angle.encode(0.0, 1.0)
        assert (code.x, code.y) == (1.0, 0.0)

    def test_quarter_turn(self):
        code = angle.encode(math.pi / 2, 1.0)
        assert code.x == pytest.approx(0.0, abs=1e-15)
        assert code.y == pytest.approx(1.0)

    def test_omega_two_scales_phase(self):
        code = angle.encode(math.pi / 4, 2.0)
        assert code.x == pytest.approx(0.0, abs=1e-15)
        assert code.y == pytest.approx(1.0)

    def test_unit_circle_invariant(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
        code = angle.encode(thetas, 1.0)
        np.testing.assert_allclose(code.x ** 2 + code.y ** 2, 1.0, atol=1e-9)

    def test_omega_bounds(self):
        with pytest.raises(ContractError):
            angle.encode(0.0, 2.5)
        with pytest.raises(ContractError):
            angle.encode(0.0, 0.0)

    def test_theta_out_of_range(self):
        with pytest.raises(ContractError):
            angle.encode(-0.1, 1.0)
        with pytest.raises(ContractError):
            angle.encode(math.pi + 0.1, 2.0)


class TestNormalize:
    def test_three_four_five(self):
        code = angle.normalize((3.0, 4.0))
        assert (code.x, code.y) == (0.6, 0.8)

    def test_fixed_point(self):
        code = angle.normalize((1.0, 0.0))
        assert (code.x, code.y) == (1.0, 0.0)

    def test_near_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            angle.normalize((1e-13, 0.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_components_do_not_overflow(self):
        code = angle.normalize((1e308, 1e308))
        assert code.x == code.y == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert angle.decode(code) == pytest.approx(math.pi / 4, abs=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rescale_leaves_finite_rows_alone(self):
        code = angle.normalize(np.array([[3.0, 4.0], [-1e308, 1e200]]))
        assert (code.x[0], code.y[0]) == (0.6, 0.8)
        assert (code.x[1], code.y[1]) == pytest.approx((-1.0, 0.0), abs=1e-15)


class TestArgUnit:
    def test_axis_cases(self):
        assert angle.arg_unit(0.0, 1.0) == pytest.approx(math.pi / 2)
        assert angle.arg_unit(0.0, -1.0) == pytest.approx(3 * math.pi / 2)

    def test_positive_x_axis(self):
        assert angle.arg_unit(1.0, 0.0) == 0.0

    def test_negative_x_axis(self):
        assert angle.arg_unit(-1.0, 0.0) == pytest.approx(math.pi)

    def test_third_quadrant(self):
        r = math.sqrt(2) / 2
        assert angle.arg_unit(-r, -r) == pytest.approx(5 * math.pi / 4)

    def test_origin_rejected(self):
        with pytest.raises(DegenerateInputError):
            angle.arg_unit(0.0, 0.0)

    def test_against_atan2_oracle(self):
        rng = np.random.default_rng(0)
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=100_000)
        x, y = np.cos(thetas), np.sin(thetas)
        got = angle.arg_unit(x, y)
        want = np.mod(np.arctan2(y, x), 2.0 * math.pi)
        assert np.max(np.abs(got - want)) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=2.0 * math.pi,
                     exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_scalar_matches_oracle(self, theta):
        x, y = math.cos(theta), math.sin(theta)
        if abs(x) <= angle.AXIS_TOL and abs(y) <= angle.AXIS_TOL:
            return
        assert angle.arg_unit(x, y) == pytest.approx(arg_oracle(x, y),
                                                     abs=1e-12)


class TestDecode:
    def test_round_trip_scalar(self):
        got = angle.decode(angle.encode(1.234, 1.0))
        assert got == pytest.approx(1.234, abs=1e-9)

    def test_direct_case(self):
        assert angle.decode(angle.AngleCode(0.0, 1.0, 2.0)) == \
            pytest.approx(math.pi / 4)

    def test_x_axis_any_omega(self):
        for omega in (0.5, 1.0, 2.0):
            assert angle.decode(angle.AngleCode(1.0, 0.0, omega)) == 0.0

    @given(st.floats(min_value=0.0, max_value=2.0 * math.pi,
                     exclude_max=True),
           st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(self, theta, omega):
        theta = theta % angle.period(omega)
        got = angle.decode(angle.encode(theta, omega))
        assert abs(got - theta) <= 1e-9


class TestCodeDistance:
    def test_identical_is_zero(self):
        a = angle.encode(0.7, 1.0)
        assert angle.code_distance(a, a) == 0.0

    def test_antipodal_is_two(self):
        a = angle.encode(0.0, 1.0)
        b = angle.encode(math.pi, 1.0)
        assert angle.code_distance(a, b) == pytest.approx(2.0)

    def test_chord_identity(self):
        for omega in (0.5, 1.0, 2.0):
            ta, tb = 0.3, 1.9 % angle.period(omega)
            d = angle.code_distance(angle.encode(ta, omega),
                                    angle.encode(tb, omega))
            assert d == pytest.approx(2 * abs(math.sin(omega * (ta - tb) / 2)))

    def test_boundary_continuity(self):
        for omega in (0.5, 1.0, 2.0):
            for eps in (1e-3, 1e-6):
                p = angle.period(omega)
                d = angle.code_distance(angle.encode(eps, omega),
                                        angle.encode(p - eps, omega))
                assert d <= 2 * omega * eps * (1 + 1e-6)
                # the raw angle gap stays near the full period
                assert abs(eps - (p - eps)) > 0.9 * p

    def test_omega_mismatch(self):
        with pytest.raises(ContractError):
            angle.code_distance(angle.encode(0.1, 1.0),
                                angle.encode(0.1, 2.0))
