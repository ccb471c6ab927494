"""Angle-regression comparison: landscape smoothness and seeded descent."""

import math

import numpy as np
import pytest

from rotdet import angle
from rotdet.boundary import (LANDSCAPE_SAMPLES, boundary_targets,
                             compare_methods, count_jumps, loss_landscape,
                             run_regression)


class TestLandscape:
    def test_direct_jumps_once_at_wrap(self):
        trace = loss_landscape("direct_smoothl1", 0.01, 1.0)
        assert count_jumps(trace) == 1

    def test_direct_smooth_for_central_target(self):
        trace = loss_landscape("direct_smoothl1", math.pi, 1.0)
        assert count_jumps(trace) == 0

    def test_chord_never_jumps(self):
        for target in (0.01, 1.0, math.pi, 2 * math.pi - 0.01):
            trace = loss_landscape("eaem_chord", target, 1.0)
            assert count_jumps(trace) == 0

    def test_chord_target_rounding_onto_period(self):
        # -1e-20 modulo 2*pi rounds onto 2*pi itself, which is the angle 0
        trace = loss_landscape("eaem_chord", -1e-20, 1.0)
        np.testing.assert_array_equal(
            trace, loss_landscape("eaem_chord", 0.0, 1.0))

    def test_chord_lipschitz_bound(self):
        # |d/dtheta 2 sin(omega d/2)| <= omega, so adjacent samples differ
        # by at most omega * period / samples
        for omega in (0.5, 1.0, 2.0):
            trace = loss_landscape("eaem_chord", 0.02, omega)
            step = omega * angle.period(omega) / LANDSCAPE_SAMPLES
            diffs = np.abs(np.diff(np.concatenate([trace, trace[:1]])))
            assert diffs.max() <= step * (1 + 1e-3)

    def test_chord_minimum_at_target(self):
        target = 5.5
        trace = loss_landscape("eaem_chord", target, 1.0)
        argmin = np.argmin(trace) * angle.period(1.0) / LANDSCAPE_SAMPLES
        assert abs(argmin - target) <= angle.period(1.0) / LANDSCAPE_SAMPLES

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            loss_landscape("huber", 0.0)


def test_count_jumps_wraps_around():
    assert count_jumps(np.array([0.0, 0.1, 0.2, 5.0])) == 2
    assert count_jumps(np.array([0.0, 0.1, 0.2, 0.3])) == 0


def test_targets_hug_the_boundary():
    p = angle.period(1.0)
    targets = boundary_targets(1.0, seed=0)
    assert len(targets) == 32
    assert all(t <= 0.05 or t >= p - 0.05 for t in targets)
    np.testing.assert_array_equal(targets,
                                  boundary_targets(1.0, 0))


class TestRegression:
    def test_zero_steps_identical_error(self):
        targets = boundary_targets(1.0, 3)
        a = run_regression("direct_smoothl1", targets, steps=0, seed=3)
        b = run_regression("eaem_chord", targets, steps=0, seed=3)
        assert a.final_error == b.final_error

    def test_chord_beats_direct_on_boundary_targets(self):
        report = compare_methods(steps=500, lr=0.1, seed=7)
        direct = report.results["direct_smoothl1"]
        chord = report.results["eaem_chord"]
        assert direct.status == chord.status == "ok"
        assert chord.final_error < direct.final_error
        assert chord.final_error < 0.1

    def test_chord_trace_settles(self):
        report = compare_methods(steps=200, lr=0.1, seed=7)
        trace = np.array(report.results["eaem_chord"].loss_trace)
        assert np.all(np.diff(trace[10:]) <= 1e-12)

    def test_report_reproducible(self):
        a = compare_methods(steps=50, lr=0.1, seed=11)
        b = compare_methods(steps=50, lr=0.1, seed=11)
        for m in a.results:
            assert a.results[m].final_error == b.results[m].final_error
            assert a.results[m].loss_trace == b.results[m].loss_trace

    def test_overflowing_chord_run_diverges(self):
        """A step that overflows the code parameters ends the run as
        diverged, not as ok with a NaN error."""
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_regression("eaem_chord", boundary_targets(1.0, 42),
                                    steps=1, lr=1e308, seed=42)
        assert result.status == "diverged"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_regression("huber", np.array([0.1]))
