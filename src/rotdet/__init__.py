"""Oriented object detection building blocks, numerically verified.

Public surface: the tensor engine (`tensor`), the feature modules (`msk`,
`mdcaa`, `pyramid`), the unit-circle angle codec (`angle`), rotated-box
geometry and evaluation (`geometry`, `evalmap`, `scenes`), the boundary
loss experiment (`boundary`), and file interchange (`tensorio`).
"""

from .angle import (AngleCode, arg_unit, code_distance, decode, encode,
                    normalize, wrap)
from .geometry import OrientedBox, raster_iou_oracle, rotated_iou, rotated_nms
from .mdcaa import MdcaaWeights, mdcaa_apply, mdcaa_weights
from .msk import MskModuleWeights, count_params, msk_block_forward, msk_module_forward
from .pyramid import NetworkConfig, NetworkWeights, assemble_forward, bottom_up
from .tensor import Tensor, gradcheck

__all__ = [
    "AngleCode", "arg_unit", "code_distance", "decode", "encode", "normalize",
    "wrap",
    "OrientedBox", "raster_iou_oracle", "rotated_iou", "rotated_nms",
    "MdcaaWeights", "mdcaa_apply", "mdcaa_weights",
    "MskModuleWeights", "count_params", "msk_block_forward",
    "msk_module_forward",
    "NetworkConfig", "NetworkWeights", "assemble_forward", "bottom_up",
    "Tensor", "gradcheck",
]

__version__ = "0.1.0"
