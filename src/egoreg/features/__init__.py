"""Keypoint detection, descriptors, and covariance region contexts."""

from .context import (
    CONTEXT_DIM,
    ContextConfig,
    Roi,
    attach_context,
    context_regions,
    dense_descriptors,
)
from .detector import DetectorConfig, compute_descriptors, extract_keypoints
from .image import GradientField, GrayImage, bilinear_sample
from .keypoint import DESCRIPTOR_DIM, Keypoint, KeypointTable, as_table, contexts, descriptors

__all__ = [
    "CONTEXT_DIM",
    "ContextConfig",
    "DESCRIPTOR_DIM",
    "DetectorConfig",
    "GradientField",
    "GrayImage",
    "Keypoint",
    "KeypointTable",
    "Roi",
    "as_table",
    "attach_context",
    "bilinear_sample",
    "compute_descriptors",
    "context_regions",
    "contexts",
    "dense_descriptors",
    "descriptors",
    "extract_keypoints",
]
