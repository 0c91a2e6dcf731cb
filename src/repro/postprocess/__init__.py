"""Post-processing: non-negativity, cross-grid consistency, constrained inference."""

from .consistency import GridView, enforce_attribute_consistency
from .constrained_inference import (constrained_inference,
                                    constrained_inference_2d,
                                    mean_consistency_pass,
                                    weighted_average_pass)
from .norm_sub import clip_to_zero, norm_sub

__all__ = [
    "GridView",
    "clip_to_zero",
    "constrained_inference",
    "constrained_inference_2d",
    "enforce_attribute_consistency",
    "mean_consistency_pass",
    "norm_sub",
    "weighted_average_pass",
]
