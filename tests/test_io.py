"""Serialization: RMKT tensors and PGM images."""

import numpy as np
import pytest

from rotdet.errors import FormatError
from rotdet.tensor import Tensor
from rotdet.tensorio import load_pgm, load_tensor, save_pgm, save_tensor


class TestRmkt:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
        path = tmp_path / "t.rmkt"
        save_tensor(path, Tensor(arr))
        back = load_tensor(path)
        assert back.data.dtype == np.dtype(dtype)
        assert back.data.tobytes() == arr.tobytes()

    def test_vector_shapes(self, tmp_path):
        for arr in (np.array([3.5]), np.arange(7, dtype=np.float32)):
            path = tmp_path / "x.rmkt"
            save_tensor(path, Tensor(arr))
            back = load_tensor(path)
            assert back.shape == arr.shape
            np.testing.assert_array_equal(back.data, arr)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.rmkt"
        save_tensor(path, Tensor(np.zeros((2, 3), dtype=np.float32)))
        raw = path.read_bytes()
        assert raw[:4] == b"RMKT"
        assert raw[4] == 1  # version
        assert raw[5] == 0  # float32
        assert raw[6] == 2  # ndim
        assert len(raw) == 7 + 8 + 2 * 3 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rmkt"
        path.write_bytes(b"JUNK" + bytes(16))
        with pytest.raises(ValueError, match="not an RMKT"):
            load_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.rmkt"
        save_tensor(path, Tensor(np.zeros(3, dtype=np.float32)))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_tensor(path)

    def test_bad_dtype_code(self, tmp_path):
        path = tmp_path / "d.rmkt"
        save_tensor(path, Tensor(np.zeros(3, dtype=np.float32)))
        raw = bytearray(path.read_bytes())
        raw[5] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="dtype"):
            load_tensor(path)

    @pytest.mark.parametrize("keep", [0, 3, 6, 7, 10, 15, 16, 38])
    def test_cut_short(self, tmp_path, keep):
        # 7 header bytes, two u32 extents, then a 2x3 float32 payload
        path = tmp_path / "t.rmkt"
        save_tensor(path, Tensor(np.zeros((2, 3), dtype=np.float32)))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError):
            load_tensor(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.rmkt"
        save_tensor(path, Tensor(np.zeros(2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8] + np.array([np.nan]).tobytes())
        with pytest.raises(FormatError, match="finite"):
            load_tensor(path)


def _write_p2(path, image):
    """An ascii P2 file, as other programs write them; save_pgm writes P5."""
    pixels = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape
    rows = "\n".join(" ".join(str(v) for v in row) for row in pixels)
    path.write_text(f"P2\n{w} {h}\n255\n{rows}\n")


class TestPgm:
    @pytest.mark.parametrize("binary", [True, False])
    def test_round_trip(self, tmp_path, binary):
        rng = np.random.default_rng(1)
        image = rng.uniform(0, 1, size=(6, 9))
        path = tmp_path / "img.pgm"
        if binary:
            save_pgm(path, image)
        else:
            _write_p2(path, image)
        back = load_pgm(path)
        assert back.shape == (6, 9)
        # quantized to 255 levels on the way out
        assert np.max(np.abs(back - image)) <= 0.5 / 255 + 1e-12


    def test_p2_and_p5_agree(self, tmp_path):
        image = np.linspace(0, 1, 12).reshape(3, 4)
        save_pgm(tmp_path / "a.pgm", image)
        _write_p2(tmp_path / "b.pgm", image)
        np.testing.assert_array_equal(load_pgm(tmp_path / "a.pgm"),
                                      load_pgm(tmp_path / "b.pgm"))

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2\n# a comment\n2 2\n255\n0 255\n128 64\n")
        back = load_pgm(path)
        assert back.shape == (2, 2)
        assert back[0, 1] == 1.0

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError):
            load_pgm(path)

    @pytest.mark.parametrize("content", [
        b"", b"P5\n2 2\n", b"P5\n2 x\n255\n" + bytes(4),
        b"P5\n0 2\n255\n", b"P5\n2 2\n0\n" + bytes(4),
        b"P5\n2 2\n65535\n" + bytes(8), b"P5\n2 2\n255\n" + bytes(3),
        b"P2\n2 2\n255\n1 2 3\n", b"P2\n2 2\n255\n1 2 3 300\n",
        b"P2\n2 2\n255\n1 2 3 x\n", b"P2\n2 1\n100\n200 50\n",
        b"P5\n2 1\n100\n" + bytes([50, 101])],
        ids=["empty", "no-maxval", "bad-width", "zero-width", "zero-maxval",
             "16-bit", "p5-short", "p2-short", "p2-overflow", "p2-text",
             "p2-above-maxval", "p5-above-maxval"])
    def test_rejects_malformed(self, tmp_path, content):
        path = tmp_path / "m.pgm"
        path.write_bytes(content)
        with pytest.raises(FormatError):
            load_pgm(path)

    def test_rejects_3d(self, tmp_path):
        with pytest.raises(ValueError):
            save_pgm(tmp_path / "y.pgm", np.zeros((2, 2, 3)))
