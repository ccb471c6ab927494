"""Strict config loading and the command-line surface."""

import argparse
import configparser
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rotdet import cli
from rotdet.boundary import compare_methods
from rotdet.cli import build_parser, main
from rotdet.config import _DEFAULTS, NON_NEGATIVE, load_config
from rotdet.errors import ConfigError
from rotdet.pyramid import NetworkWeights, assemble_forward
from rotdet.tensor import Tensor, no_recording
from rotdet.tensorio import load_tensor, save_pgm, save_tensor

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


# Every schema key at the edges of its range: (section, key, value, exit
# code of `eval --mode model`, which reads every key, on the SMALL config).
BOUNDARIES = [
    ("network", "stem_channels", "0", 2), ("network", "stem_channels", "1", 0),
    ("network", "branch_out", "0", 2), ("network", "branch_out", "1", 0),
    ("network", "backbone_channels", "0", 2),
    ("network", "backbone_channels", "1", 0),
    ("network", "strip_len", "1", 2), ("network", "strip_len", "3", 0),
    ("network", "strip_len", "4", 2),
    ("network", "pool_window", "0", 2), ("network", "pool_window", "1", 0),
    ("network", "pool_window", "2", 2),
    ("network", "omega", "0", 2), ("network", "omega", "0.5", 0),
    ("network", "omega", "2", 0), ("network", "omega", "2.5", 2),
    ("network", "omega", "nan", 2),
    # the period 2*pi/omega overflows below about 3.495e-308
    ("network", "omega", "5e-324", 2), ("network", "omega", "3.4e-308", 2),
    ("network", "omega", "4e-308", 0),
    ("network", "classes", "0", 2), ("network", "classes", "1", 0),
    ("network", "anchor_scale", "-1", 2), ("network", "anchor_scale", "0", 2),
    ("network", "anchor_scale", "0.5", 0),
    ("network", "anchor_scale", "1e99", 0),
    ("network", "anchor_scale", "inf", 2),
    ("data", "seed", "-1", 2), ("data", "seed", "0", 0),
    ("data", "images", "0", 2), ("data", "images", "1", 0),
    ("data", "objects", "-1", 2), ("data", "objects", "0", 2),
    ("data", "objects", "1", 0), ("data", "objects", "1000000000000", 2),
    ("data", "canvas", "-64", 2), ("data", "canvas", "0", 2),
    ("data", "canvas", "63", 2), ("data", "canvas", "64", 0),
    ("data", "canvas", "100", 2), ("data", "canvas", "128", 0),
    ("data", "canvas", "4160", 2), ("data", "canvas", "1099511627776", 2),
    ("data", "min_size", "-1", 2), ("data", "min_size", "0", 2),
    # a box's least w or h, geometry.LEAST_SIDE_RULE
    ("data", "min_size", "1e-101", 2), ("data", "min_size", "1e-100", 0),
    ("data", "min_size", "0.5", 0), ("data", "min_size", "20", 0),
    ("data", "min_size", "20.5", 2), ("data", "min_size", "46", 2),
    ("data", "max_size", "9.5", 2), ("data", "max_size", "10", 0),
    ("data", "max_size", "inf", 2),
    ("eval", "iou_threshold", "-0.1", 2), ("eval", "iou_threshold", "0", 0),
    ("eval", "iou_threshold", "1", 0), ("eval", "iou_threshold", "1.5", 2),
    ("eval", "nms_threshold", "-0.1", 2), ("eval", "nms_threshold", "0", 0),
    ("eval", "nms_threshold", "1", 0), ("eval", "nms_threshold", "1.5", 2),
    ("eval", "score_threshold", "-0.1", 2),
    ("eval", "score_threshold", "0", 0), ("eval", "score_threshold", "1", 0),
    ("eval", "score_threshold", "2", 2),
    ("eval", "coco_sweep", "yes", 0), ("eval", "coco_sweep", "no", 0),
    ("eval", "coco_sweep", "maybe", 2),
]


# Every command-line flag at the edges of what it accepts: (subcommand or
# None for a top-level flag, flag, argv, exit code, what stderr must name
# when the code is 2, or what stdout must hold, if not None, when it is 0).
# {name} in argv and in the named text is a path from the `flag_paths`
# fixture. boundary-exp exits 1, its check failing, when
# zero steps train nothing.
FLAGS = [
    (None, "--config", "--config {cfg} param-count", 0, None),
    (None, "--config", "--config {missing} param-count", 2, "{missing}"),
    (None, "--config", "--config {dir} param-count", 2, "{dir}"),
    (None, "--config", "--config {no_header} param-count", 2, "{no_header}"),
    (None, "--config", "--config {duplicate} param-count", 2, "{duplicate}"),
    (None, "--config", "--config {not_utf8} param-count", 2, "{not_utf8}"),
    (None, "--seed", "--config {cfg} --seed 0 eval --mode oracle", 0, None),
    (None, "--seed", "--config {cfg} --seed -1 eval --mode oracle", 2,
     "--seed"),
    (None, "--seed", "--seed x param-count", 2, "--seed"),
    (None, "--dtype", "--config {cfg} --dtype f64 forward --out {new}", 0,
     None),
    (None, "--dtype", "--dtype f16 param-count", 2, "--dtype"),
    ("forward", "--out", "--config {cfg} forward --out {new}", 0, None),
    ("forward", "--out", "--config {cfg} forward --out {file}", 2, "{file}"),
    ("forward", "--out", "--config {cfg} forward", 2, "--out"),
    ("forward", "--image", "--config {cfg} forward --image {image} --out "
     "{new}", 0, None),
    ("forward", "--image", "--config {cfg} forward --image {dir} --out {new}",
     2, "{dir}"),
    ("forward", "--image", "--config {cfg} forward --image {missing} --out "
     "{new}", 2, "{missing}"),
    ("forward", "--image", "forward --image {huge_f64} --out {new}", 2,
     "{huge_f64}"),
    ("forward", "--image", "forward --image {huge_f32} --out {new}", 2,
     "{huge_f32}"),
    ("forward", "--image", "--config {cfg} forward --image {wide} --out {new}",
     2, "{wide}"),
    ("forward", "--image", "--config {cfg} forward --image {odd} --out {new}",
     2, "{odd}"),
    ("forward", "--image", "--config {cfg} forward --image {one_channel} "
     "--out {new}", 2, "{one_channel}"),
    ("forward", "--image", "--config {cfg} forward --image {no_batch} --out "
     "{new}", 2, "{no_batch}"),
    ("forward", "--image", "--config {cfg} forward --image {no_rows} --out "
     "{new}", 2, "{no_rows}"),
    ("angle-codec", "--encode", "angle-codec --encode 0", 0, None),
    ("angle-codec", "--encode", "angle-codec --encode 100", 0, None),
    ("angle-codec", "--encode", "angle-codec --encode=-1e-20", 0, None),
    ("angle-codec", "--encode", "angle-codec --encode -1e-20", 0, None),
    ("angle-codec", "--encode", "angle-codec --encode nan", 2, "--encode"),
    ("angle-codec", "--encode", "angle-codec --encode inf", 2, "--encode"),
    ("angle-codec", "--encode", "angle-codec --encode=-inf", 2, "--encode"),
    ("angle-codec", "--encode", "angle-codec --encode x", 2, "--encode"),
    ("angle-codec", "--decode", "angle-codec --decode 1 0", 0, None),
    ("angle-codec", "--decode", "angle-codec --decode 1e308 1e308", 0, None),
    ("angle-codec", "--decode", "angle-codec --decode -1e308 1e-300", 0, None),
    # the argument of (1, -1e-17) rounds onto 2*pi itself, the angle 0
    ("angle-codec", "--decode", "angle-codec --decode 1 -1e-17", 0,
     "theta=0.000000000000\n"),
    ("angle-codec", "--decode", "angle-codec --decode 0 0", 2,
     "zero-length vector"),
    ("angle-codec", "--decode", "angle-codec --decode nan 1", 2, "--decode"),
    ("angle-codec", "--decode", "angle-codec --decode 1 inf", 2, "--decode"),
    ("angle-codec", "--decode", "angle-codec --encode 1 --decode 0 1", 2,
     "--decode"),
    ("angle-codec", "--input", "angle-codec --input {angles}", 0, None),
    ("angle-codec", "--input", "angle-codec --decode 0 1 --input {angles}", 2,
     "--input"),
    ("angle-codec", "--input", "angle-codec --input {empty}", 2, "{empty}"),
    ("angle-codec", "--input", "angle-codec --input {dir}", 2, "{dir}"),
    ("angle-codec", "--input", "angle-codec --input {missing}", 2,
     "{missing}"),
    ("angle-codec", "--out", "angle-codec --input {angles} --out {new}", 0,
     None),
    ("angle-codec", "--out", "angle-codec --input {angles} --out {dir}", 2,
     "{dir}"),
    ("angle-codec", "--out", "angle-codec --decode 0 1 --out {new}", 2,
     "--out"),
    ("boundary-exp", "--steps", "boundary-exp --steps 1", 0, None),
    ("boundary-exp", "--steps", "boundary-exp --steps 0", 1, None),
    ("boundary-exp", "--steps", "boundary-exp --steps -1", 2, "--steps"),
    ("boundary-exp", "--steps", "boundary-exp --steps 1.5", 2, "--steps"),
    ("boundary-exp", "--lr", "boundary-exp --steps 1 --lr 0.1", 0, None),
    ("boundary-exp", "--lr", "boundary-exp --lr 0", 2, "--lr"),
    ("boundary-exp", "--lr", "boundary-exp --lr=-0.1", 2, "--lr"),
    ("boundary-exp", "--lr", "boundary-exp --lr nan", 2, "--lr"),
    ("boundary-exp", "--lr", "boundary-exp --lr inf", 2, "--lr"),
    ("boundary-exp", "--csv", "boundary-exp --steps 1 --csv {new}", 0, None),
    ("boundary-exp", "--csv", "boundary-exp --steps 1 --csv {file}", 2,
     "{file}"),
    ("eval", "--mode", "--config {cfg} eval --mode model", 0, None),
    ("eval", "--mode", "--config {cfg} eval --mode oracle", 0, None),
    ("eval", "--mode", "--config {cfg} eval --mode empty", 0, None),
    ("eval", "--mode", "eval --mode best", 2, "--mode"),
    ("gen-data", "--out", "--config {cfg} gen-data --out {new}", 0, None),
    ("gen-data", "--out", "--config {cfg} gen-data --out {file}", 2,
     "{file}"),
]


# Texts every numeric flag meets at the parse layer: signs and zeros, a
# fraction, no number, the empty string, non-finite floats, the edges of
# float range and an int of 401 digits, which no float holds.
NUMERIC_TEXTS = ["-1", "-0", "0", "1.5", "x", "", "nan", "inf", "-inf",
                 "1e308", "1e309", "1e-320", "1" + "0" * 400]


def _finite_float(v):
    return isinstance(v, float) and math.isfinite(v)


# Each numeric flag: (argv for a text, what a parsed value must satisfy,
# the value's attribute on the parsed namespace).
NUMERIC_FLAGS = {
    "--seed": (lambda t: [f"--seed={t}", "param-count"],
               lambda v: type(v) is int and v >= 0, "seed"),
    "--steps": (lambda t: ["boundary-exp", f"--steps={t}"],
                lambda v: type(v) is int and v >= 0, "steps"),
    "--lr": (lambda t: ["boundary-exp", f"--lr={t}"],
             lambda v: _finite_float(v) and v > 0, "lr"),
    "--encode": (lambda t: ["angle-codec", f"--encode={t}"], _finite_float,
                 "encode"),
    # both values at once: every pair of texts
    "--decode": (lambda t: ["angle-codec", "--decode", *t],
                 lambda v: len(v) == 2 and all(map(_finite_float, v)),
                 "decode"),
}

# Rule failures on stderr, byte for byte: (argv, stderr's last line).
RULE_FAILURES = [
    ("--seed -1 param-count",
     "rotdet: error: argument --seed: must be >= 0, got -1"),
    ("boundary-exp --lr 0",
     "rotdet boundary-exp: error: argument --lr: must be > 0, got 0"),
    ("boundary-exp --lr inf",
     "rotdet boundary-exp: error: argument --lr: must be finite, got inf"),
    # finite is checked before > 0
    ("boundary-exp --lr=-inf",
     "rotdet boundary-exp: error: argument --lr: must be finite, got -inf"),
    ("angle-codec --encode nan",
     "rotdet angle-codec: error: argument --encode: must be finite, got nan"),
    ("--seed x param-count",
     "rotdet: error: argument --seed: invalid int value: 'x'"),
]


# Files the readers must reject: a P6 (colour) header, a P5 image cut short,
# four bytes of neither format, and an RMKT float32 payload cut short.
MALFORMED = {
    "p6.pgm": b"P6\n2 2\n255\n" + bytes(12),
    "short.pgm": b"P5\n4 4\n255\n" + bytes(3),
    "xxxx.pgm": b"XXXX",
    "xxxx.rmkt": b"XXXX",
    "short.rmkt": b"RMKT\x01\x00\x01" + (8).to_bytes(4, "little") + bytes(12),
}


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    return str(path)


@pytest.fixture
def flag_paths(tmp_path):
    """The paths FLAGS names; `new` and `missing` do not exist."""
    paths = {name: tmp_path / name for name in (
        "cfg", "missing", "dir", "no_header", "duplicate", "not_utf8", "new",
        "file", "image", "angles", "empty", "huge_f64", "huge_f32",
        "one_channel", "no_batch", "no_rows")}
    paths["wide"] = tmp_path / "wide.pgm"
    paths["odd"] = tmp_path / "odd.pgm"
    paths["cfg"].write_text(SMALL)
    paths["dir"].mkdir()
    paths["no_header"].write_text("seed = 1\n")
    paths["duplicate"].write_text("[data]\nseed = 1\nseed = 2\n")
    paths["not_utf8"].write_bytes(b"\xff[data]\n")
    paths["file"].write_text("")
    save_tensor(paths["image"], Tensor(np.zeros((3, 64, 64))))
    # 1e300 overflows the cast to f32; 3e38 overflows inside the f32
    # forward of the default network
    save_tensor(paths["huge_f64"], Tensor(np.full((3, 64, 64), 1e300)))
    save_tensor(paths["huge_f32"],
                Tensor(np.full((3, 64, 64), 3e38, dtype=np.float32)))
    # images that break the forward's input rule, which assemble_forward
    # checks before any conv: one side past MAX_CANVAS, a side not a
    # multiple of 64, one channel (a 3-D RMKT is one image), an empty batch
    # and a zero side
    save_pgm(paths["wide"], np.zeros((64, 4160)))
    save_pgm(paths["odd"], np.zeros((65, 65)))
    save_tensor(paths["one_channel"], Tensor(np.zeros((1, 64, 64))))
    save_tensor(paths["no_batch"], Tensor(np.zeros((0, 3, 64, 64))))
    save_tensor(paths["no_rows"], Tensor(np.zeros((1, 3, 0, 64))))
    # -1e-20 reduces to the period itself before it wraps to 0
    save_tensor(paths["angles"], Tensor(np.array([-1e-20, 0.0, 3.0, 100.0])))
    save_tensor(paths["empty"], Tensor(np.zeros(0)))
    return {name: str(path) for name, path in paths.items()}


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code


def _parser_flags() -> set:
    """(subcommand or None, flag) for every option of build_parser()."""
    flags = set()

    def walk(parser, command):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, name)
            elif not isinstance(action, argparse._HelpAction):
                flags.add((command, action.option_strings[-1]))

    walk(build_parser(), None)
    return flags


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

    @pytest.mark.parametrize("value", ["1", "1000000000000"])
    def test_removed_anchors_key_exits_2(self, tmp_path, capsys, value):
        # the head predicts once per cell: there is no anchor count to set
        path = tmp_path / "c.ini"
        path.write_text(SMALL.replace("[network]\n",
                                      f"[network]\nanchors = {value}\n"))
        assert main(["--config", str(path), "eval", "--mode", "model"]) == 2
        err = capsys.readouterr().err
        assert err == "error: unknown key 'anchors' in section [network]\n"

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
        assert len(blocks) == 1 and "[network]" in blocks[0]
        path = tmp_path / "readme.ini"
        path.write_text(blocks[0])
        load_config(str(path))  # a key the config rejects raises here

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[training]\nlr = 0.1\n")
        with pytest.raises(ConfigError, match="training"):
            load_config(str(path))

    @pytest.mark.parametrize("body", [
        "[DEFAULT]\nimages = 0\nbogus = 1\n",
        "[DEFAULT]\nimages = 2\n[data]\nseed = 3\n",
    ], ids=["alone", "beside-data"])
    def test_default_section_named(self, tmp_path, capsys, body):
        # configparser would take [DEFAULT] as the defaults of every other
        # section, out of reach of the section check
        path = tmp_path / "c.ini"
        path.write_text(body)
        assert main(["--config", str(path), "eval", "--mode", "empty"]) == 2
        assert "[DEFAULT]" in capsys.readouterr().err

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

    def test_boundaries_cover_every_key(self):
        assert {(sec, key) for sec, key, _, _ in BOUNDARIES} == {
            (sec, key) for sec, keys in _DEFAULTS.items() for key in keys}

    @pytest.mark.parametrize("section,key,value,code", BOUNDARIES)
    def test_key_at_boundary(self, tmp_path, capsys, section, key, value,
                             code):
        parser = configparser.ConfigParser()
        parser.read_string(SMALL)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
        path = tmp_path / "edge.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        assert main(["--config", str(path), "eval", "--mode", "model"]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and key in err

    FLOAT_KEYS = [(sec, key) for sec, keys in _DEFAULTS.items()
                  for key, default in keys.items() if type(default) is float]

    @pytest.mark.parametrize("section,key", FLOAT_KEYS)
    def test_float_key_must_be_finite(self, tmp_path, section, key):
        """Every float key fails the one finite rule first, before its
        range, whatever that range is."""
        path = tmp_path / "c.ini"
        for text in ("nan", "inf", "-inf"):
            path.write_text(f"[{section}]\n{key} = {text}\n")
            with pytest.raises(ConfigError,
                               match=rf"^\[{section}\] {key} must be finite"):
                load_config(str(path))

    def test_min_size_must_fit_the_canvas(self, tmp_path, capsys):
        """gen_scene places no box whose diagonal reaches the canvas: the
        largest min_size whose square's diagonal stays under 256 loads, the
        next float is rejected by key, where gen_scene would exit 2 without
        naming it."""
        largest = 181.01933598375615
        above = math.nextafter(largest, 256.0)
        assert math.hypot(largest, largest) < 256 <= math.hypot(above, above)
        path = tmp_path / "c.ini"
        path.write_text(f"[data]\nmin_size = {largest!r}\nmax_size = 200\n")
        assert load_config(str(path)).scene.min_size == largest
        path.write_text(f"[data]\nmin_size = {above!r}\nmax_size = 200\n")
        assert main(["--config", str(path), "eval", "--mode", "model"]) == 2
        err = capsys.readouterr().err
        assert "[data] min_size" in err and "canvas 256" in err

    def test_bool_parsing(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[eval]\ncoco_sweep = yes\n")
        assert load_config(str(path)).coco_sweep is True
        path.write_text("[eval]\ncoco_sweep = maybe\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestFlags:
    def test_flags_cover_every_option(self):
        assert {(cmd, flag) for cmd, flag, *_ in FLAGS} == _parser_flags()

    @pytest.mark.parametrize("command,flag,argv,code,named", FLAGS)
    def test_flag_at_boundary(self, flag_paths, capsys, command, flag, argv,
                              code, named):
        args = [arg.format(**flag_paths) for arg in argv.split()]
        assert _exit_code(args) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if code == 0 and named is not None:
            assert out.endswith(named)
        if code == 2:
            # argparse's own usage error, or main's one error line
            assert err.startswith(("usage: ", "error: "))
            assert named.format(**flag_paths) in err

    @pytest.mark.parametrize("flag", NUMERIC_FLAGS)
    def test_numeric_flag_parses_or_exits_2(self, capsys, flag):
        """Parsing alone, with no command run: each text gives a value
        within the flag's rules, or exit 2 naming the flag."""
        argv, holds, dest = NUMERIC_FLAGS[flag]
        texts = (list(itertools.product(NUMERIC_TEXTS, repeat=2))
                 if flag == "--decode" else NUMERIC_TEXTS)
        for text in texts:
            try:
                args = build_parser().parse_args(argv(text))
            except SystemExit as exc:
                err = capsys.readouterr().err
                assert exc.code == 2, text
                assert f"argument {flag}: " in err, text
                assert "Traceback" not in err, text
            else:
                assert holds(getattr(args, dest)), text

    @pytest.mark.parametrize("argv,line", RULE_FAILURES,
                             ids=[argv for argv, _ in RULE_FAILURES])
    def test_rule_failure_message(self, capsys, argv, line):
        assert _exit_code(argv.split()) == 2
        assert capsys.readouterr().err.splitlines()[-1] == line

    def test_counts_share_the_config_seed_rule(self, monkeypatch):
        """--seed, --steps and [data] seed check one rule object: replaced
        where the config states it, each rejects a value it took."""
        assert cli.NON_NEGATIVE is NON_NEGATIVE
        never = (lambda v: False, "never")
        monkeypatch.setattr("rotdet.cli.NON_NEGATIVE", never)
        monkeypatch.setattr("rotdet.config.NON_NEGATIVE", never)
        for argv in (["--seed", "0", "param-count"],
                     ["boundary-exp", "--steps", "0"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        with pytest.raises(ConfigError, match=r"^\[data\] seed must be never"):
            load_config()

    def test_dtype_names_and_types_are_one_table(self):
        (dtype,) = [a for a in build_parser()._actions
                    if a.option_strings == ["--dtype"]]
        assert dtype.choices is cli.DTYPES

    def test_every_command_has_a_handler(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        for name, parser in sub.choices.items():
            assert callable(parser.get_default("run")), name


class TestInferenceWeights:
    """`forward` and `eval --mode model` run their forward passes with
    recording off, so they record no autodiff graph."""

    def _forward(self, weights):
        image = Tensor(np.random.default_rng(3).uniform(size=(1, 3, 256, 256)),
                       dtype=np.float32)
        feats, head = assemble_forward(image, weights)
        return {**feats, **head.named()}

    def _weights(self):
        cfg = load_config(None)
        return NetworkWeights.create(np.random.default_rng(cfg.data_seed),
                                     cfg.network, np.float32)

    def test_forward_builds_no_graph(self):
        weights = self._weights()
        tracemalloc.start()
        try:
            with no_recording():
                named = self._forward(weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(t._parents == () for t in named.values())
        # about 17 MiB; the same forward with a graph peaks near 42 MiB
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("command", [["forward", "--out", "dump"],
                                         ["eval", "--mode", "model"]])
    def test_commands_record_no_graph(self, monkeypatch, tmp_path, command):
        # every op output of the whole command: the forward and, under
        # eval, the decode
        outputs = []
        from_op = Tensor._from_op

        def spy(data, parents, backward):
            outputs.append(from_op(data, parents, backward))
            return outputs[-1]

        monkeypatch.setattr(Tensor, "_from_op", staticmethod(spy))
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "small.ini"
        config.write_text(SMALL)
        assert main(["--config", str(config), *command]) == 0
        assert outputs
        assert all(t._parents == () and t._backward is None for t in outputs)

    def test_same_bytes_as_gradient_tracking_weights(self):
        cfg = load_config(None)
        tracked = NetworkWeights.create(np.random.default_rng(cfg.data_seed),
                                        cfg.network, dtype=np.float32)
        want = self._forward(tracked)
        with no_recording():
            got = self._forward(self._weights())
        assert want["logits_s8"]._parents
        assert list(got) == list(want)
        for name, t in want.items():
            assert got[name].data.dtype == t.data.dtype, name
            assert got[name].data.tobytes() == t.data.tobytes(), name


class TestCli:
    def test_param_count(self, capsys):
        assert main(["param-count"]) == 0
        out = capsys.readouterr().out
        assert "ratios 2/5 2/7 2/9 2/11" in out

    def test_param_count_counts_the_depthwise_strips(self, tmp_path, capsys):
        path = tmp_path / "narrow.ini"
        path.write_text("[network]\nstem_channels = 4\nbranch_out = 6\n")
        assert main(["--config", str(path), "param-count"]) == 0
        out = capsys.readouterr().out
        # sums over m = 5, 7, 9, 11 of 6 m^2 and 2 * 6 m: one module's strips
        assert "C = branch_out = 6" in out
        assert "totals full=1656 separable=384 delta=-1272" in out

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\nomega = 3.0\n")
        assert main(["--config", str(path), "param-count"]) == 2
        assert "omega" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", ["5e-324", "3.4e-308"])
    @pytest.mark.parametrize("argv", [
        "eval --mode model", "angle-codec --encode 1.0",
        "angle-codec --decode 0.3 0.9", "boundary-exp --steps 1"])
    def test_omega_with_infinite_period_exits_2(self, tmp_path, capsys,
                                                omega, argv):
        path = tmp_path / "omega.ini"
        path.write_text(f"[network]\nomega = {omega}\n")
        assert main(["--config", str(path), *argv.split()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [network] omega must be")
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_boundary_exp_at_tiny_omega_reports_divergence(self, tmp_path,
                                                           capsys):
        # omega_ok accepts 1e-300; the run's overflow is reported as a
        # divergence, with no numpy warning
        path = tmp_path / "omega.ini"
        path.write_text("[network]\nomega = 1e-300\n")
        assert main(["--config", str(path), "boundary-exp",
                     "--steps", "5"]) == 1
        out, err = capsys.readouterr()
        assert "method=eaem_chord status=diverged" in out
        assert "RuntimeWarning" not in err

    def test_angle_codec_encode_decode(self, capsys):
        assert main(["angle-codec", "--encode", "1.234"]) == 0
        out = capsys.readouterr().out
        x = float(out.split("x=")[1].split()[0])
        y = float(out.split("y=")[1].split()[0])
        assert main(["angle-codec", "--decode", str(x), str(y)]) == 0
        theta = float(capsys.readouterr().out.split("theta=")[1])
        assert theta == pytest.approx(1.234, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_angle_codec_decode_huge_vector(self, capsys):
        assert main(["angle-codec", "--decode", "1e308", "1e308"]) == 0
        theta = float(capsys.readouterr().out.split("theta=")[1])
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)

    def test_angle_codec_input_tensor(self, tmp_path, capsys):
        thetas = np.random.default_rng(0).uniform(0, 6.28, size=100)
        src = tmp_path / "thetas.rmkt"
        save_tensor(src, Tensor(thetas))
        dst = tmp_path / "codes.rmkt"
        assert main(["angle-codec", "--input", str(src), "--out",
                     str(dst)]) == 0
        assert "max_roundtrip_err" in capsys.readouterr().out
        assert load_tensor(dst).shape == (100, 2)

    def test_angle_codec_input_just_below_period(self, tmp_path, capsys):
        # omega times the largest double below period(0.1) rounds onto
        # 2*pi, so the angle decodes to 0: the round-trip error is the
        # circular one, not the whole period
        theta = float.fromhex("0x1.f6a7a2955385dp+5")
        cfg = tmp_path / "omega.ini"
        cfg.write_text("[network]\nomega = 0.1\n")
        src = tmp_path / "edge.rmkt"
        save_tensor(src, Tensor(np.array([theta])))
        assert load_tensor(src).data[0] == theta
        assert main(["--config", str(cfg), "angle-codec", "--input",
                     str(src)]) == 0
        assert capsys.readouterr().out == (
            "n=1 max_roundtrip_err=7.105e-15 mean_roundtrip_err=7.105e-15\n")

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_forward_malformed_image_exits_2(self, small_cfg, tmp_path,
                                             capsys, name):
        img = tmp_path / name
        img.write_bytes(MALFORMED[name])
        assert main(["--config", small_cfg, "forward", "--image", str(img),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["xxxx.rmkt", "short.rmkt"])
    def test_angle_codec_malformed_input_exits_2(self, tmp_path, capsys,
                                                 name):
        src = tmp_path / "thetas.rmkt"
        src.write_bytes(MALFORMED[name])
        assert main(["angle-codec", "--input", str(src)]) == 2
        err = capsys.readouterr().err
        assert "thetas.rmkt" in err and "Traceback" not in err

    def test_angle_codec_no_action(self, capsys):
        assert _exit_code(["angle-codec"]) == 2
        assert "--encode --decode --input" in capsys.readouterr().err

    def test_forward_dumps_and_determinism(self, small_cfg, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["--config", small_cfg, "--seed", "5", "forward",
                         "--out", str(out)]) == 0
        assert (out_a / "shapes.txt").read_text().splitlines() == [
            "C3 1x8x8x8", "C4 1x8x4x4", "C5 1x8x2x2",
            "M1 1x20x32x32", "M2 1x20x16x16", "M3 1x20x8x8", "M4 1x20x4x4",
            "CP2 1x20x16x16", "CP3 1x20x8x8", "CP4 1x20x4x4", "N5 1x20x4x4",
            "fused_s8 1x28x8x8", "fused_s16 1x28x4x4", "fused_s32 1x48x2x2",
            "logits_s8 1x2x8x8", "boxes_s8 1x6x8x8",
            "logits_s16 1x2x4x4", "boxes_s16 1x6x4x4",
            "logits_s32 1x2x2x2", "boxes_s32 1x6x2x2"]
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

    @pytest.mark.parametrize("size", ["1e-16", "1e-100"])
    def test_eval_oracle_tiny_boxes_perfect(self, tmp_path, capsys, size):
        """Truth boxes far below their centers' ulp match themselves: the
        IoU kernel measures each pair about the pair's own centers."""
        path = tmp_path / "tiny.ini"
        path.write_text(f"[data]\ncanvas = 64\nobjects = 1\n"
                        f"min_size = {size}\nmax_size = {size}\n")
        assert main(["--config", str(path), "eval", "--mode", "oracle"]) == 0
        assert "mAP@0.5 = 1.0000" in capsys.readouterr().out

    # Pinned stdout: a change in the kept boxes (NMS) or in the AP
    # arithmetic shows here. The SMALL network finds nothing; the default
    # config's nonzero APs depend on which boxes NMS keeps.
    def test_eval_model_runs_and_repeats(self, small_cfg, capsys):
        for _ in range(2):
            assert main(["--config", small_cfg, "eval", "--mode",
                         "model"]) == 0
            assert capsys.readouterr().out == (
                "class 0: AP = 0.0000\nclass 1: AP = 0.0000\n"
                "mAP@0.5 = 0.0000\n")

    def test_eval_model_default_config(self, capsys):
        assert main(["eval", "--mode", "model"]) == 0
        assert capsys.readouterr().out == (
            "class 0: AP = 0.1111\nclass 1: AP = 0.0000\nmAP@0.5 = 0.0556\n")

    def test_eval_empty_zero(self, small_cfg, capsys):
        assert main(["--config", small_cfg, "eval", "--mode", "empty"]) == 0
        assert "mAP@0.5 = 0.0000" in capsys.readouterr().out

    # Pinned stdout: the classes listed are those of the seeded truth boxes,
    # which `oracle` and `empty` place without drawing an image.
    @pytest.mark.parametrize("mode,ap", [("oracle", "1.0000"),
                                         ("empty", "0.0000")])
    @pytest.mark.parametrize("seed,config,classes", [
        (42, None, (0, 1)), (7, None, (0, 1)),
        (42, "six", (2, 3, 4, 5)), (7, "six", (0, 1, 2, 3, 4))])
    def test_eval_without_model_pinned(self, tmp_path, capsys, mode, ap, seed,
                                       config, classes):
        argv = ["--seed", str(seed), "eval", "--mode", mode]
        if config:
            path = tmp_path / "six.ini"
            path.write_text("[network]\nclasses = 6\n[data]\nimages = 2\n"
                            "[eval]\ncoco_sweep = yes\n")
            argv = ["--config", str(path)] + argv
        assert main(argv) == 0
        want = "".join(f"class {c}: AP = {ap}\n" for c in classes)
        want += f"mAP@0.5 = {ap}\n"
        if config:
            want += f"mAP@[0.50:0.95] = {ap}\n"
        assert capsys.readouterr().out == want

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
        assert out.splitlines()[0] == (
            "seed=42 omega=1.0 steps=300 lr=0.1 targets=32")
        assert "method=eaem_chord" in out
        trace = (csv / "eaem_chord_trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss"
        assert len(trace) == 301

    def test_boundary_exp_defaults_are_compare_methods(self, tmp_path):
        """With no flags, boundary-exp runs compare_methods(seed, omega),
        at the function's own steps and lr: the same loss traces."""
        csv = tmp_path / "traces"
        assert main(["boundary-exp", "--csv", str(csv)]) == 0
        cfg = load_config()
        report = compare_methods(cfg.data_seed, cfg.network.omega)
        for method, result in report.results.items():
            trace = (csv / f"{method}_trace.csv").read_text().splitlines()
            assert trace[1:] == [f"{i},{v:.12g}" for i, v
                                 in enumerate(result.loss_trace)], method
