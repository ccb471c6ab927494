"""Behaviour manifest: one SHA-256 per seeded output of the command line.

Each run below calls ``rotdet.cli.main`` in-process on the SMALL config.
An output is a file the run writes, or its stdout with the exit code as a
last line, ``exit N``. Lines naming the run's output directory are left
out of stdout, and of ``gradcheck`` only each row's first and last column
(check name and pass status) are kept, since its error digits follow the
BLAS kernel.

A forward of any image but zeros differs in its last bits between BLAS
kernels (OpenBLAS's SkylakeX and Haswell kernels sum in different
orders). So the forward dumps are pinned as bytes for the default zero
image, at f32 and f64, and for a gen-data scene, read as RMKT and as PGM,
at f64 as ``rint(value * 2**30)``: over each run's 38,016 values the two
kernels differ by at most 1.2e-16, and no value lies within 1.0e-14 of a
rounding boundary, while a changed layer moves values by far more than
2**-30.

``tests/data/behaviour.txt`` holds the digests. A change that moves an
output on purpose rewrites it with

    PYTHONPATH=src python tests/test_behaviour.py

and lists each changed line, old and new.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from rotdet.cli import main
from rotdet.tensorio import load_tensor
from test_config_cli import SMALL

MANIFEST = Path(__file__).parent / "data" / "behaviour.txt"
HEADER = "# sha256 output run"
SCENE = "{base}/gen-data/scene_000"  # written by the gen-data run
ROUNDED = {"forward-scene-f64", "forward-pgm-f64"}  # dumps read rounded
RUNS = {  # name: argv after --config, in order; {out} is the run's directory
    "param-count": ["param-count"],
    "gen-data": ["gen-data", "--out", "{out}"],
    "forward-f32": ["--dtype", "f32", "forward", "--out", "{out}"],
    "forward-f64": ["--dtype", "f64", "forward", "--out", "{out}"],
    "forward-scene-f64": ["--dtype", "f64", "forward", "--image",
                          SCENE + ".rmkt", "--out", "{out}"],
    "forward-pgm-f64": ["--dtype", "f64", "forward", "--image",
                        SCENE + ".pgm", "--out", "{out}"],
    "eval-model": ["eval", "--mode", "model"],
    "eval-oracle": ["eval", "--mode", "oracle"],
    "boundary-exp": ["boundary-exp", "--csv", "{out}"],
    "angle-codec": ["angle-codec", "--encode", "4.0"],
    "gradcheck": ["gradcheck"],
}


def _read(path: Path, rounded: bool) -> bytes:
    """A file's bytes; with ``rounded``, an RMKT tensor's values as int64
    multiples of 2**-30, rounded half to even (the scaling is exact)."""
    if not (rounded and path.suffix == ".rmkt"):
        return path.read_bytes()
    return np.rint(load_tensor(path).data * 2.0**30).astype(np.int64).tobytes()


def behaviour(base: Path) -> list[str]:
    """Manifest lines ``<sha256> <output> <run>`` of every run, in order,
    each run writing under ``base``."""
    config = base / "small.ini"
    config.write_text(SMALL)
    lines = []
    for name, argv in RUNS.items():
        out = base / name
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["--config", str(config),
                         *(a.format(base=base, out=out) for a in argv)])
        rows = [row for row in stdout.getvalue().splitlines()
                if str(out) not in row]
        if name == "gradcheck":
            rows = [f"{row.split()[0]} {row.split()[-1]}" for row in rows]
        outputs = {"stdout": "\n".join(rows + [f"exit {code}"]).encode()}
        if out.is_dir():
            outputs.update((f.name, _read(f, name in ROUNDED))
                           for f in sorted(out.iterdir()))
        lines += [f"{hashlib.sha256(data).hexdigest()} {output} {name}"
                  for output, data in outputs.items()]
    return lines


def test_outputs_match_manifest(tmp_path):
    want = [row for row in MANIFEST.read_text().splitlines()
            if not row.startswith("#")]
    assert behaviour(tmp_path) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as base:
        lines = behaviour(Path(base))
    MANIFEST.write_text("\n".join([HEADER, *lines]) + "\n")
    print(f"wrote {len(lines)} digests to {MANIFEST}", file=sys.stderr)
