"""Unit-circle angle codec: round trips, the piecewise argument, distances."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotdet import angle
from rotdet.errors import ContractError, DegenerateInputError


def reduce_oracle(thetas, omega):
    """Angles modulo the codec's period by np.mod, the period itself (where
    a tiny negative angle rounds) taken as 0: the oracle of angle.wrap."""
    p = angle.period(omega)
    reduced = np.mod(thetas, p)
    return np.where(reduced < p, reduced, 0.0)


def arg_oracle(x, y):
    """Two-argument arctangent reduced into [0, 2*pi)."""
    return float(reduce_oracle(math.atan2(y, x), 1.0))


def below_period(omega):
    """The six largest doubles below the period."""
    out = [angle.period(omega)]
    for _ in range(6):
        out.append(math.nextafter(out[-1], 0.0))
    return out[1:]


# largest double below period(0.1); 0.1 times it rounds onto 2*pi
EDGE_THETA = float.fromhex("0x1.f6a7a2955385dp+5")


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

    @pytest.mark.parametrize("omega", [5e-324, 3.4e-308])
    def test_omega_with_infinite_period(self, omega):
        """2*pi/omega overflows to inf, where wrap would compute inf * 0 and
        return NaN: every use of omega rejects it."""
        assert math.isinf(2.0 * math.pi / omega)
        for use in (lambda: angle.period(omega),
                    lambda: angle.wrap(1.0, omega),
                    lambda: angle.encode(1.0, omega)):
            with pytest.raises(ContractError, match="finite period"):
                use()

    def test_theta_out_of_range(self):
        with pytest.raises(ContractError):
            angle.encode(-0.1, 1.0)
        with pytest.raises(ContractError):
            angle.encode(math.pi + 0.1, 2.0)

    def test_nan_rejected(self):
        with pytest.raises(ContractError):
            angle.encode(math.nan, 1.0)
        with pytest.raises(ContractError):
            angle.encode(np.array([0.5, math.nan]), 1.0)


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

    @pytest.mark.parametrize("xy", [1.0, (1.0,), (1.0, 2.0, 3.0),
                                    np.ones((2, 3))])
    def test_wrong_trailing_extent_rejected(self, xy):
        with pytest.raises(ContractError, match="trailing extent 2"):
            angle.normalize(xy)

    @pytest.mark.parametrize("xy", [(math.inf, 1.0), (math.nan, 0.0),
                                    (1.0, -math.inf), (math.inf, math.inf)])
    def test_non_finite_rejected(self, xy):
        with pytest.raises(DegenerateInputError):
            angle.normalize(xy)
        with pytest.raises(DegenerateInputError):
            angle.normalize(np.array([(3.0, 4.0), xy]))

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

    # (0, nan) is on the axis but neither above nor below it
    @pytest.mark.parametrize("x,y", [(math.nan, 1.0), (math.nan, -1.0),
                                     (0.0, math.nan)])
    def test_nan_lane_gives_nan(self, x, y):
        assert math.isnan(angle.arg_unit(x, y))
        got = angle.arg_unit(np.array([1.0, x]), np.array([0.0, y]))
        assert got[0] == 0.0 and math.isnan(got[1])

    def test_against_atan2_oracle(self):
        rng = np.random.default_rng(0)
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=100_000)
        x, y = np.cos(thetas), np.sin(thetas)
        got = angle.arg_unit(x, y)
        want = reduce_oracle(np.arctan2(y, x), 1.0)
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

    def test_tiny_negative_y_is_zero(self):
        # arctan(-1e-17) + 2*pi rounds onto 2*pi itself
        assert float.hex(angle.arg_unit(1.0, -1e-17)) == float.hex(0.0)


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
           st.sampled_from([0.1, 0.5, 1.0, 2.0]))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(self, theta, omega):
        theta = theta % angle.period(omega)
        got = angle.decode(angle.encode(theta, omega))
        assert abs(got - theta) <= 1e-9

    @given(st.sampled_from([0.05, 0.1, 0.2, 0.3]).flatmap(
        lambda omega: st.tuples(st.just(omega),
                                st.sampled_from(below_period(omega)))))
    @example((0.1, EDGE_THETA))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_just_below_period(self, case):
        """omega * theta can round onto 2*pi; decode then gives 0, not the
        period, and the codes re-encode."""
        omega, theta = case
        back = angle.decode(angle.encode(theta, omega))
        assert 0.0 <= back < angle.period(omega)
        angle.encode(back, omega)
        assert angle.circular_error(theta, back, omega) <= 1e-9

    def test_negative_zero_decodes_to_zero(self):
        got = angle.decode(angle.AngleCode(1.0, -0.0, 1.0))
        assert float.hex(got) == float.hex(0.0)


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



# vector components: near and on the x == 0 axis, and large enough that
# the squares overflow
components = st.floats(-2.0, 2.0) | st.floats(-1e308, 1e308) | st.sampled_from(
    [0.0, -0.0, 1e-13, -1e-13, 1e-12, 1e300, -1e-300])


@st.composite
def codec_lanes(draw):
    """A frequency, n angles in its period, and n raw vectors off the
    origin."""
    omega = draw(st.sampled_from([0.5, 1.0, 2.0]))
    n = draw(st.integers(1, 8))
    thetas = draw(st.lists(st.floats(0.0, angle.period(omega),
                                     exclude_max=True), min_size=n,
                           max_size=n))
    vecs = draw(st.lists(st.tuples(components, components).filter(
        lambda v: max(map(abs, v)) > 1e-6), min_size=n, max_size=n))
    return omega, np.array(thetas), np.array(vecs)


def _same_bits(scalar, lane):
    assert isinstance(scalar, float)
    assert float.hex(scalar) == float.hex(float(lane))


@given(codec_lanes())
@settings(max_examples=150, deadline=None)
def test_scalar_route_matches_array_lane(case):
    """Each codec function gives a scalar input the bits of its lane in an
    array call, as a float."""
    omega, thetas, vecs = case
    others = thetas[::-1]
    codes = angle.encode(thetas, omega)
    units = angle.normalize(vecs, omega)
    args = angle.arg_unit(units.x, units.y)
    back = angle.decode(units)
    dists = angle.code_distance(codes, angle.encode(others, omega))
    errs = angle.circular_error(thetas, 3.0 * others, omega)
    for i, (theta, other, (x, y)) in enumerate(zip(thetas, others, vecs)):
        code = angle.encode(float(theta), omega)
        _same_bits(code.x, codes.x[i])
        _same_bits(code.y, codes.y[i])
        unit = angle.normalize((float(x), float(y)), omega)
        _same_bits(unit.x, units.x[i])
        _same_bits(unit.y, units.y[i])
        _same_bits(angle.arg_unit(unit.x, unit.y), args[i])
        _same_bits(angle.decode(unit), back[i])
        _same_bits(angle.code_distance(
            code, angle.encode(float(other), omega)), dists[i])
        _same_bits(angle.circular_error(float(theta), 3.0 * float(other),
                                        omega), errs[i])


# angles at and around the wrap: signed zeros and tiny values that round
# onto the period, whole multiples of it and their neighbours, huge values
@st.composite
def wrap_cases(draw):
    """A frequency and 1..8 finite angles."""
    omega = draw(st.sampled_from([0.1, 0.3, 0.5, 1.0, 2.0]))
    p = angle.period(omega)
    multiple = st.integers(-10**6, 10**6).map(lambda k: k * p)
    edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-20, -1e-20,
                            1e-17, -1e-17, 1e300, -1e300, -p, p])
    theta = (st.floats(allow_nan=False, allow_infinity=False) | edge
             | multiple | multiple.map(lambda t: math.nextafter(t, -math.inf))
             | multiple.map(lambda t: math.nextafter(t, math.inf)))
    return omega, draw(st.lists(theta, min_size=1, max_size=8))


@given(wrap_cases())
@example((0.1, [-1e-20, -0.0, 1e300]))
@settings(max_examples=300, deadline=None)
def test_wrap_matches_reduce_oracle(case):
    """wrap gives the oracle's bits, in [0, period), for a float (as a
    float) and for each lane of an array."""
    omega, thetas = case
    p = angle.period(omega)
    want = reduce_oracle(np.array(thetas), omega)
    lanes = angle.wrap(np.array(thetas), omega)
    for theta, w, lane in zip(thetas, want, lanes):
        got = angle.wrap(theta, omega)
        assert type(got) is float
        assert float.hex(got) == float.hex(float(w)) == float.hex(float(lane))
        assert 0.0 <= got < p
