"""File interchange: the RMKT binary tensor format and PGM images.

RMKT layout: magic bytes 0x52 0x4D 0x4B 0x54 ("RMKT"), version byte 0x01,
dtype byte (0 = float32, 1 = float64), ndim byte, ndim little-endian u32
extents, then the row-major little-endian payload. Round-trips are
bit-exact. PGM images are 8-bit gray scaled to [0, 1]: written as P5,
read as P2 or P5 with any maxval from 1 to 255. Both readers raise
:class:`FormatError` on a file that is not in their format or is cut
short, and the PGM reader on a pixel above maxval.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError
from .tensor import Tensor

MAGIC = b"RMKT"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {c: d.newbyteorder("<") for d, c in _DTYPE_CODES.items()}


def save_tensor(path, t: Tensor) -> None:
    arr = t.data
    code = _DTYPE_CODES[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION, code, arr.ndim]))
        for extent in arr.shape:
            fh.write(struct.pack("<I", extent))
        fh.write(np.ascontiguousarray(arr, dtype=_CODE_DTYPES[code]).tobytes())


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC or len(raw) < 7:
        raise FormatError(f"{path}: not an RMKT file")
    version, code, ndim = raw[4], raw[5], raw[6]
    if version != VERSION:
        raise FormatError(f"{path}: unsupported RMKT version {version}")
    if code not in _CODE_DTYPES:
        raise FormatError(f"{path}: unknown dtype code {code}")
    off = 7 + 4 * ndim
    if len(raw) < off:
        raise FormatError(f"{path}: RMKT header cut short")
    shape = struct.unpack_from(f"<{ndim}I", raw, 7)
    dtype = _CODE_DTYPES[code]
    count = math.prod(shape)
    if len(raw) - off < count * dtype.itemsize:
        raise FormatError(
            f"{path}: RMKT payload cut short for shape {shape}")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
    try:
        return Tensor(data.reshape(shape).astype(dtype.newbyteorder("=")))
    except ValueError as exc:  # non-finite values
        raise FormatError(f"{path}: {exc}") from None


# -- PGM images ---------------------------------------------------------------


def save_pgm(path, image: np.ndarray) -> None:
    if image.ndim != 2:
        raise ValueError("PGM writer expects a 2-D grayscale array")
    pixels = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(pixels.tobytes())


def load_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens: list[bytes] = []
    i = 0
    while i < len(raw) and len(tokens) < 4:
        if raw[i:i + 1].isspace():
            i += 1
        elif raw[i:i + 1] == b"#":
            while i < len(raw) and raw[i] != 0x0A:
                i += 1
        else:
            j = i
            while j < len(raw) and not raw[j:j + 1].isspace():
                j += 1
            tokens.append(raw[i:j])
            i = j
    if len(tokens) < 4 or tokens[0] not in (b"P2", b"P5"):
        raise FormatError(f"{path}: not a PGM file")
    if not all(t.isdigit() for t in tokens[1:]):
        raise FormatError(f"{path}: PGM header has a non-numeric field")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if w < 1 or h < 1 or not 1 <= maxval <= 255:
        raise FormatError(
            f"{path}: PGM header {w}x{h} maxval {maxval} is not an 8-bit image")
    if tokens[0] == b"P5":
        data = np.frombuffer(raw[i + 1:i + 1 + w * h], dtype=np.uint8)
    else:
        try:
            data = np.array(raw[i:].split()[:w * h], dtype=np.uint8)
        except (ValueError, OverflowError):
            raise FormatError(f"{path}: PGM pixel is not a byte value") from None
    if data.size != w * h:
        raise FormatError(f"{path}: PGM pixel data cut short")
    if data.max() > maxval:
        raise FormatError(
            f"{path}: PGM pixel {data.max()} exceeds maxval {maxval}")
    return data.reshape(h, w).astype(np.float64) / maxval
