"""Acceptance gate: nine property suites, one printed verdict line each.

Each criterion prints "[acceptance N] <name>: PASS|FAIL" with capture
suspended so the verdicts survive in piped test logs.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from rotdet import angle, boundary, gradsuite
from rotdet.evalmap import eval_map
from rotdet.geometry import (OrientedBox, raster_iou_oracle, rotated_iou,
                             rotated_nms)
from rotdet.mdcaa import MdcaaWeights, mdcaa_apply, mdcaa_weights
from rotdet.msk import count_params
from rotdet.pyramid import NetworkConfig, NetworkWeights, assemble_forward
from rotdet.tensor import Tensor, conv2d, rot90


@pytest.fixture
def report(capfd):
    class _Report:
        def __init__(self):
            self.num, self.name = 0, ""

        def __call__(self, num, name):
            self.num, self.name = num, name
            return self

        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            state = "PASS" if exc_type is None else "FAIL"
            with capfd.disabled():
                print(f"[acceptance {self.num}] {self.name}: {state}",
                      flush=True)
            return False

    return _Report()


def test_criterion_1_parameter_model(report):
    with report(1, "parameter ratio 2/m"):
        for c in (1, 16, 64):
            counts = count_params(c)
            for m, row in counts.per_m.items():
                assert row["ratio"] == Fraction(2, m)
                assert row["separable"] == row["full"] * 2 // m
            wide = count_params(c, strip_sizes=(3, 5, 7, 9, 11))
            for row in wide.per_m.values():
                assert row["separable"] < row["full"]


def test_criterion_2_separable_fidelity(report):
    with report(2, "strip pair equals rank-1 full conv"):
        rng = np.random.default_rng(2024)
        worst = 0.0
        # one channel, then the network's depthwise pair over 4 channels:
        # one rank-1 outer product per channel
        for c, cases in ((1, 100), (4, 25)):
            for m in (5, 7, 9, 11):
                pad = (m - 1) // 2
                for _ in range(cases):
                    row = Tensor(rng.standard_normal((c, 1, 1, m)))
                    col = Tensor(rng.standard_normal((c, 1, m, 1)))
                    full = Tensor(col.data * row.data)
                    x = Tensor(rng.standard_normal((1, c, 16, 16)))
                    seq = conv2d(conv2d(x, row, padding=(0, pad), groups=c),
                                 col, padding=(pad, 0), groups=c).data
                    ref = conv2d(x, full, padding=(pad, pad), groups=c).data
                    worst = max(worst, float(np.max(np.abs(seq - ref))))
        assert worst <= 1e-5


def test_criterion_3_angle_round_trip(report):
    with report(3, "unit-circle codec round trip"):
        rng = np.random.default_rng(3)
        for omega in (0.5, 1.0, 2.0):
            thetas = rng.uniform(0.0, angle.period(omega), size=1_000_000)
            back = angle.decode(angle.encode(thetas, omega))
            assert float(np.max(np.abs(back - thetas))) <= 1e-9
        r = math.sqrt(0.5)
        fixtures = [((1.0, 0.0), 0.0),                      # x>0, y>=0
                    ((r, -r), 7 * math.pi / 4),             # x>0, y<0
                    ((-r, r), 3 * math.pi / 4),             # x<0, y>0
                    ((-r, -r), 5 * math.pi / 4),            # x<0, y<0
                    ((0.0, 1.0), math.pi / 2),              # positive y axis
                    ((0.0, -1.0), 3 * math.pi / 2)]         # negative y axis
        for (x, y), want in fixtures:
            assert abs(angle.arg_unit(x, y) - want) <= 1e-12


def test_criterion_4_boundary_continuity(report):
    with report(4, "boundary continuity and landscape jumps"):
        for omega in (0.5, 1.0, 2.0):
            p = angle.period(omega)
            for eps in (1e-3, 1e-6):
                d = angle.code_distance(angle.encode(eps, omega),
                                        angle.encode(p - eps, omega))
                assert d <= 2 * omega * eps * (1 + 1e-6)
        p = angle.period(1.0)
        for target in (0.01, p - 0.01):
            chord = boundary.loss_landscape("eaem_chord", target, 1.0)
            direct = boundary.loss_landscape("direct_smoothl1", target, 1.0)
            assert boundary.count_jumps(chord) == 0
            assert boundary.count_jumps(direct) == 1


def test_criterion_5_toy_regression(report):
    with report(5, "circular loss beats raw-angle loss"):
        outcome = boundary.compare_methods(steps=500, lr=0.1, seed=7)
        direct = outcome.results["direct_smoothl1"]
        chord = outcome.results["eaem_chord"]
        assert direct.status == "ok" and chord.status == "ok"
        assert chord.final_error < direct.final_error


def test_criterion_6_gradient_checks(report):
    with report(6, "finite-difference gradient suite"):
        results = gradsuite.full_suite(seed=0)
        assert results
        for r in results:
            assert r.passed, f"{r.name}: {r.max_rel_error} > {r.bound}"


def test_criterion_7_rotation_attention_contracts(report):
    with report(7, "rotation and attention contracts"):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((1, 2, 9, 9)))
        for a, b in (("cw", "ccw"), ("ccw", "cw")):
            assert np.array_equal(rot90(rot90(x, a), b).data, x.data)
        k = Tensor(rng.standard_normal((2, 2, 3, 3)))
        left = rot90(conv2d(rot90(x, "cw"), k, padding=(1, 1)), "ccw").data
        right = conv2d(x, rot90(k, "ccw"), padding=(1, 1)).data
        assert float(np.max(np.abs(left - right))) <= 1e-6
        w = MdcaaWeights.create(rng, 2, strip_len=5, pool_window=3)
        for _ in range(1000):
            f = Tensor(rng.standard_normal((1, 2, 8, 8)))
            a = mdcaa_weights(f, w).data
            assert np.all(a > 0.0) and np.all(a < 1.0)
            out = mdcaa_apply(f, w).data
            assert np.all(np.abs(out) <= np.abs(f.data))


def test_criterion_8_geometry(report):
    with report(8, "clipping IoU vs raster oracle, NMS, AP"):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(1000):
            a = OrientedBox(rng.uniform(-4, 4), rng.uniform(-4, 4),
                            rng.uniform(0.5, 6), rng.uniform(0.5, 6),
                            rng.uniform(0, 2 * math.pi))
            b = OrientedBox(rng.uniform(-4, 4), rng.uniform(-4, 4),
                            rng.uniform(0.5, 6), rng.uniform(0.5, 6),
                            rng.uniform(0, 2 * math.pi))
            worst = max(worst, abs(rotated_iou(a, b) -
                                   raster_iou_oracle(a, b, 1024)))
        assert worst <= 5e-3
        third = rotated_iou(OrientedBox(0, 0, 1, 1, 0),
                            OrientedBox(0.5, 0, 1, 1, 0))
        assert abs(third - 1.0 / 3.0) <= 1e-9
        b1 = OrientedBox(0.0, 0, 4, 2, 0, score=0.9)
        b2 = OrientedBox(1.0, 0, 4, 2, 0, score=0.8)
        b3 = OrientedBox(2.0, 0, 4, 2, 0, score=0.7)
        assert rotated_nms([b1, b2, b3], 0.5) == [b1, b3]
        truth = [[OrientedBox(0, 0, 4, 2, 0), OrientedBox(50, 0, 4, 2, 0)]]
        preds = [[OrientedBox(0, 0, 4, 2, 0, score=0.9),
                  OrientedBox(25, 0, 4, 2, 0, score=0.8),
                  OrientedBox(50, 0, 4, 2, 0, score=0.7)]]
        mean_ap, _ = eval_map(preds, truth, 0.5)
        assert abs(mean_ap - 5.0 / 6.0) <= 1e-12


def test_criterion_9_pipeline_shapes(report):
    with report(9, "assembled shapes and seeded determinism"):
        cfg = NetworkConfig()
        rng = np.random.default_rng(9)
        image = Tensor(rng.standard_normal((1, 3, 256, 256)).astype(np.float32))

        def run():
            w = NetworkWeights.create(np.random.default_rng(99), cfg)
            feats, head = assemble_forward(image, w)
            return {**feats, **head.named()}

        named = run()
        shapes = {k: v.shape for k, v in named.items()}
        assert shapes["C3"] == (1, 16, 32, 32)
        assert shapes["C4"] == (1, 16, 16, 16)
        assert shapes["C5"] == (1, 16, 8, 8)
        assert shapes["M1"] == (1, 40, 128, 128)
        assert shapes["M2"] == (1, 40, 64, 64)
        assert shapes["M3"] == (1, 40, 32, 32)
        assert shapes["M4"] == (1, 40, 16, 16)
        for k in (2, 3, 4):
            assert shapes[f"CP{k}"] == shapes[f"M{k}"]
        assert shapes["N5"] == (1, 40, 16, 16)
        assert shapes["fused_s8"] == (1, 56, 32, 32)
        assert shapes["fused_s16"] == (1, 56, 16, 16)
        assert shapes["fused_s32"] == (1, 96, 8, 8)
        assert shapes["logits_s8"] == (1, 2, 32, 32)
        assert shapes["boxes_s32"] == (1, 6, 8, 8)
        again = run()
        for name, tensor in named.items():
            assert tensor.data.tobytes() == again[name].data.tobytes()
