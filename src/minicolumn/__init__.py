"""Sparse distributed memory layers.

Building blocks for online sequence learning over sparse binary codes:
spatial pooling of feedforward inputs, prediction-assisted transition memory
with multi-cell columns, and temporal pooling of predictable sequences.
"""

from .encoders import CategoryEncoder, ScalarEncoder
from .metrics import RunReport, prediction_accuracy, sdr_overlap_curve
from .pattern import PatternLayer, reconstruction_error
from .pooling import PoolingLayer, stability
from .sdr import DimensionError, Sdr, flip_noise, overlap, sparsity, union
from .transition import (
    FiringEvent,
    FiringSequence,
    LayerOutput,
    TmLayer,
    capacity,
    firing_time,
    representation_views,
)

__version__ = "0.2.0"

__all__ = [
    "CategoryEncoder",
    "DimensionError",
    "FiringEvent",
    "FiringSequence",
    "LayerOutput",
    "PatternLayer",
    "PoolingLayer",
    "RunReport",
    "ScalarEncoder",
    "Sdr",
    "TmLayer",
    "capacity",
    "firing_time",
    "flip_noise",
    "overlap",
    "prediction_accuracy",
    "reconstruction_error",
    "representation_views",
    "sdr_overlap_curve",
    "sparsity",
    "stability",
    "union",
]
