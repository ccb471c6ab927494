"""Strict [section] / key = value configuration files.

Unknown sections or keys are rejected by name; values are type-checked
and range-checked on load.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .pyramid import NetworkConfig
from .scenes import SceneSpec

_DEFAULTS = {
    "network": {f.name: f.default for f in fields(NetworkConfig)},
    "data": {"seed": 42, "images": 4, "objects": 3, "canvas": 256,
             "min_size": 20.0, "max_size": 60.0},
    "eval": {"iou_threshold": 0.5, "nms_threshold": 0.3,
             "score_threshold": 0.05, "coco_sweep": False},
}
# each key takes the type of its default
_SCHEMA: dict[str, dict[str, type]] = {
    section: {key: type(value) for key, value in defaults.items()}
    for section, defaults in _DEFAULTS.items()}


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
    typ = _SCHEMA[section][key]
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
    net = values["network"]
    if not (0.0 < net["omega"] <= 2.0):
        raise ConfigError(f"[network] omega must be in (0, 2], got {net['omega']}")
    if net["strip_len"] < 3 or net["strip_len"] % 2 == 0:
        raise ConfigError(
            f"[network] strip_len must be odd and >= 3, got {net['strip_len']}")
    # an even window would shrink the attention map against its input
    if net["pool_window"] < 1 or net["pool_window"] % 2 == 0:
        raise ConfigError(
            f"[network] pool_window must be odd and >= 1, got {net['pool_window']}")
    for key in ("stem_channels", "branch_out", "backbone_channels",
                "anchors", "classes"):
        if net[key] < 1:
            raise ConfigError(f"[network] {key} must be positive")
    if net["anchor_scale"] <= 0:
        raise ConfigError(
            f"[network] anchor_scale must be positive, got {net['anchor_scale']}")
    data = values["data"]
    if data["canvas"] < 64 or data["canvas"] % 64:
        raise ConfigError(
            f"[data] canvas must be a positive multiple of 64, got {data['canvas']}")
    if data["seed"] < 0:
        raise ConfigError(f"[data] seed must be >= 0, got {data['seed']}")
    for key in ("images", "objects"):
        if data[key] < 1:
            raise ConfigError(f"[data] {key} must be positive, got {data[key]}")
    if data["min_size"] <= 0:
        raise ConfigError(
            f"[data] min_size must be positive, got {data['min_size']}")
    if data["min_size"] > data["max_size"]:
        raise ConfigError("[data] min_size exceeds max_size")
    ev = values["eval"]
    for key in ("iou_threshold", "nms_threshold", "score_threshold"):
        if not (0.0 <= ev[key] <= 1.0):
            raise ConfigError(f"[eval] {key} must be in [0, 1]")


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
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                values[section][key] = _parse_value(section, key, raw)
    _validate(values)
    net = values["network"]
    data = values["data"]
    ev = values["eval"]
    return Config(
        network=NetworkConfig(**net),
        data_seed=data["seed"],
        images=data["images"],
        scene=SceneSpec(objects=data["objects"], classes=net["classes"],
                        min_size=data["min_size"], max_size=data["max_size"]),
        canvas=data["canvas"],
        iou_threshold=ev["iou_threshold"],
        nms_threshold=ev["nms_threshold"],
        score_threshold=ev["score_threshold"],
        coco_sweep=ev["coco_sweep"],
    )
