"""Strict [section] / key = value configuration files.

Unknown sections or keys are rejected by name; values are type-checked
and range-checked on load.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .errors import ConfigError
from .pyramid import NetworkConfig
from .scenes import SceneSpec

_SCHEMA: dict[str, dict[str, type]] = {
    "network": {
        "stem_channels": int,
        "branch_out": int,
        "backbone_channels": int,
        "strip_len": int,
        "pool_window": int,
        "omega": float,
        "anchors": int,
        "classes": int,
        "anchor_scale": float,
    },
    "data": {
        "seed": int,
        "images": int,
        "objects": int,
        "canvas": int,
        "min_size": float,
        "max_size": float,
    },
    "eval": {
        "iou_threshold": float,
        "nms_threshold": float,
        "score_threshold": float,
        "coco_sweep": bool,
    },
}

_DEFAULTS = {
    "network": {"stem_channels": 8, "branch_out": 8, "backbone_channels": 16,
                "strip_len": 11, "pool_window": 7, "omega": 1.0, "anchors": 1,
                "classes": 2, "anchor_scale": 4.0},
    "data": {"seed": 42, "images": 4, "objects": 3, "canvas": 256,
             "min_size": 20.0, "max_size": 60.0},
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
    typ = _SCHEMA[section][key]
    try:
        if typ is bool:
            low = raw.strip().lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}") from None


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
    data = values["data"]
    if data["canvas"] % 64:
        raise ConfigError(f"[data] canvas must be divisible by 64, got {data['canvas']}")
    if data["min_size"] > data["max_size"]:
        raise ConfigError("[data] min_size exceeds max_size")
    ev = values["eval"]
    for key in ("iou_threshold", "nms_threshold"):
        if not (0.0 <= ev[key] <= 1.0):
            raise ConfigError(f"[eval] {key} must be in [0, 1]")


def load_config(path: str | None = None) -> Config:
    """Load a config file (or pure defaults when ``path`` is None)."""
    values = {sec: dict(defaults) for sec, defaults in _DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        read = parser.read(path)
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
        network=NetworkConfig(
            stem_channels=net["stem_channels"], branch_out=net["branch_out"],
            backbone_channels=net["backbone_channels"],
            strip_len=net["strip_len"], pool_window=net["pool_window"],
            omega=net["omega"], anchors=net["anchors"],
            classes=net["classes"], anchor_scale=net["anchor_scale"]),
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
