"""Strict [section] / key = value configuration files.

Unknown sections or keys are rejected by name; values are type-checked
and range-checked on load.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

from .angle import OMEGA_RANGE, omega_ok
from .errors import ConfigError
from .mdcaa import WINDOW_RULES
from .geometry import LEAST_SIDE_RULE
from .pyramid import SIDE_RULE, NetworkConfig
from .scenes import SceneSpec

# per section, each key's default; a value read for a key takes its
# default's type
_DEFAULTS = {
    "network": {f.name: f.default for f in fields(NetworkConfig)},
    # a scene's class count is [network] classes
    "data": {"seed": 42, "images": 4, "canvas": 256,
             **{f.name: f.default for f in fields(SceneSpec)
                if f.name != "classes"}},
    "eval": {"iou_threshold": 0.5, "nms_threshold": 0.3,
             "score_threshold": 0.05, "coco_sweep": False},
}


@dataclass(frozen=True)
class Config:
    network: NetworkConfig
    data_seed: int
    images: int
    scene: SceneSpec
    canvas: int
    iou_threshold: float
    nms_threshold: float
    score_threshold: float
    coco_sweep: bool


def _parse_value(section: str, key: str, raw: str):
    typ = type(_DEFAULTS[section][key])
    try:
        if typ is bool:
            low = raw.strip().lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        value = typ(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def _validate(values: dict[str, dict]) -> None:
    def positive(v):
        return v > 0

    # per section, key: (test, what the value must be)
    ranges = {
        "network": {
            "omega": (omega_ok, OMEGA_RANGE),
            **WINDOW_RULES,
            **{key: (positive, "positive") for key in (
                "stem_channels", "branch_out", "backbone_channels", "classes",
                "anchor_scale")},
        },
        "data": {
            "canvas": SIDE_RULE,
            "seed": (lambda v: v >= 0, ">= 0"),
            **{key: (positive, "positive") for key in ("images", "objects")},
            "min_size": LEAST_SIDE_RULE,  # a box's least side
        },
        "eval": {key: (lambda v: 0.0 <= v <= 1.0, "in [0, 1]") for key in (
            "iou_threshold", "nms_threshold", "score_threshold")},
    }
    for section, rules in ranges.items():
        for key, (test, what) in rules.items():
            value = values[section][key]
            if not test(value):
                raise ConfigError(
                    f"[{section}] {key} must be {what}, got {value}")
    data = values["data"]
    # gen_scene skips each box whose diagonal reaches the canvas, and no
    # box is smaller than min_size x min_size
    if math.hypot(data["min_size"], data["min_size"]) >= data["canvas"]:
        raise ConfigError(
            f"[data] min_size {data['min_size']} cannot fit the canvas "
            f"{data['canvas']}: a min_size square's diagonal reaches it")
    if data["min_size"] > data["max_size"]:
        raise ConfigError(
            f"[data] min_size {data['min_size']} exceeds max_size "
            f"{data['max_size']}")


def load_config(path: str | None = None) -> Config:
    """Load a config file (or pure defaults when ``path`` is None)."""
    values = {sec: dict(defaults) for sec, defaults in _DEFAULTS.items()}
    if path is not None:
        # no header names "", so [DEFAULT] is an ordinary, unknown section
        parser = configparser.ConfigParser(interpolation=None,
                                           default_section="")
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(
                f"cannot parse config file {path}: {exc}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _DEFAULTS[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                values[section][key] = _parse_value(section, key, raw)
    _validate(values)
    net = values["network"]
    data = values["data"]
    scene = {f.name: data[f.name] for f in fields(SceneSpec)
             if f.name != "classes"}
    return Config(
        network=NetworkConfig(**net),
        data_seed=data["seed"],
        images=data["images"],
        scene=SceneSpec(classes=net["classes"], **scene),
        canvas=data["canvas"],
        **values["eval"],
    )
