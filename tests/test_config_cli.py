"""Strict config loading and the command-line surface."""

import numpy as np
import pytest

from rotdet.cli import main
from rotdet.config import load_config
from rotdet.errors import ConfigError
from rotdet.tensor import Tensor
from rotdet.tensorio import load_tensor, save_tensor

SMALL = """\
[network]
stem_channels = 4
branch_out = 4
backbone_channels = 8
strip_len = 5
pool_window = 3

[data]
canvas = 64
images = 2
objects = 2
min_size = 10
max_size = 20
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    return str(path)


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.network.stem_channels == 8
        assert cfg.network.omega == 1.0
        assert cfg.data_seed == 42
        assert cfg.canvas == 256
        assert cfg.iou_threshold == 0.5
        assert cfg.coco_sweep is False

    def test_file_overrides(self, small_cfg):
        cfg = load_config(small_cfg)
        assert cfg.network.stem_channels == 4
        assert cfg.canvas == 64
        assert cfg.images == 2
        assert cfg.scene.min_size == 10.0
        # untouched keys keep defaults
        assert cfg.network.omega == 1.0

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[network]\nstrip_length = 5\n")
        with pytest.raises(ConfigError, match="strip_length"):
            load_config(str(path))

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[training]\nlr = 0.1\n")
        with pytest.raises(ConfigError, match="training"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.ini"))

    @pytest.mark.parametrize("body", [
        "[network]\nomega = 2.5\n",
        "[network]\nomega = 0\n",
        "[network]\nstrip_len = 4\n",
        "[network]\nbranch_out = 0\n",
        "[data]\ncanvas = 100\n",
        "[data]\nmin_size = 50\nmax_size = 10\n",
        "[eval]\niou_threshold = 1.5\n",
        "[network]\nomega = fast\n",
    ])
    def test_invalid_values_rejected(self, tmp_path, body):
        path = tmp_path / "bad.ini"
        path.write_text(body)
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bool_parsing(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[eval]\ncoco_sweep = yes\n")
        assert load_config(str(path)).coco_sweep is True
        path.write_text("[eval]\ncoco_sweep = maybe\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestCli:
    def test_param_count(self, capsys):
        assert main(["param-count"]) == 0
        out = capsys.readouterr().out
        assert "ratios 2/5 2/7 2/9 2/11" in out

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\nomega = 3.0\n")
        assert main(["--config", str(path), "param-count"]) == 2
        assert "omega" in capsys.readouterr().err

    def test_angle_codec_encode_decode(self, capsys):
        assert main(["angle-codec", "--encode", "1.234"]) == 0
        out = capsys.readouterr().out
        x = float(out.split("x=")[1].split()[0])
        y = float(out.split("y=")[1].split()[0])
        assert main(["angle-codec", "--decode", str(x), str(y)]) == 0
        theta = float(capsys.readouterr().out.split("theta=")[1])
        assert theta == pytest.approx(1.234, abs=1e-9)

    def test_angle_codec_input_tensor(self, tmp_path, capsys):
        thetas = np.random.default_rng(0).uniform(0, 6.28, size=100)
        src = tmp_path / "thetas.rmkt"
        save_tensor(src, Tensor(thetas))
        dst = tmp_path / "codes.rmkt"
        assert main(["angle-codec", "--input", str(src), "--out",
                     str(dst)]) == 0
        assert "max_roundtrip_err" in capsys.readouterr().out
        assert load_tensor(dst).shape == (100, 2)

    def test_angle_codec_no_action(self, capsys):
        assert main(["angle-codec"]) == 2

    def test_forward_dumps_and_determinism(self, small_cfg, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["--config", small_cfg, "--seed", "5", "forward",
                         "--out", str(out)]) == 0
        shapes = (out_a / "shapes.txt").read_text()
        assert "fused_s8" in shapes and "logits_s32" in shapes
        for name in ("M1.rmkt", "logits_s8.rmkt", "boxes_s32.rmkt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_forward_bad_extent_exits_2(self, small_cfg, tmp_path, capsys):
        img = tmp_path / "img.rmkt"
        save_tensor(img, Tensor(np.zeros((3, 96, 96), dtype=np.float32)))
        assert main(["--config", small_cfg, "forward", "--image", str(img),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("window,code", [
        (0, 2), (2, 2), (6, 2), (1, 0), (7, 0)])
    def test_forward_pool_window(self, tmp_path, capsys, window, code):
        path = tmp_path / "pool.ini"
        path.write_text(SMALL.replace("pool_window = 3",
                                      f"pool_window = {window}"))
        assert main(["--config", str(path), "forward", "--out",
                     str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert "pool_window" in err
        else:
            assert (tmp_path / "o" / "CP2.rmkt").exists()

    def test_eval_oracle_perfect(self, small_cfg, capsys):
        assert main(["--config", small_cfg, "eval", "--mode", "oracle"]) == 0
        assert "mAP@0.5 = 1.0000" in capsys.readouterr().out

    def test_eval_model_runs_and_repeats(self, small_cfg, capsys):
        outputs = []
        for _ in range(2):
            assert main(["--config", small_cfg, "eval", "--mode",
                         "model"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        (line,) = [ln for ln in outputs[0].splitlines()
                   if ln.startswith("mAP@0.5 = ")]
        assert 0.0 <= float(line.split("= ")[1]) <= 1.0

    def test_eval_empty_zero(self, small_cfg, capsys):
        assert main(["--config", small_cfg, "eval", "--mode", "empty"]) == 0
        assert "mAP@0.5 = 0.0000" in capsys.readouterr().out

    def test_gen_data_writes_scene_files(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["--config", small_cfg, "gen-data", "--out",
                     str(out)]) == 0
        for i in range(2):
            for ext in (".pgm", ".rmkt", ".txt"):
                assert (out / f"scene_{i:03d}{ext}").exists()

    def test_boundary_exp(self, tmp_path, capsys):
        csv = tmp_path / "traces"
        assert main(["boundary-exp", "--steps", "300", "--csv",
                     str(csv)]) == 0
        out = capsys.readouterr().out
        assert "method=eaem_chord" in out
        trace = (csv / "eaem_chord_trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss"
        assert len(trace) == 301
