"""Keypoint detection, descriptors, and covariance region contexts."""

from .context import (
    ContextConfig,
    Roi,
    attach_context,
    context_region,
    context_roi,
    covariance_descriptor,
    dense_descriptors,
    log_euclidean_vec,
)
from .detector import DetectorConfig, compute_descriptors, extract_keypoints
from .image import GradientField, GrayImage, bilinear_sample
from .keypoint import CONTEXT_DIM, DESCRIPTOR_DIM, Keypoint, contexts, descriptors, positions

__all__ = [
    "CONTEXT_DIM",
    "ContextConfig",
    "DESCRIPTOR_DIM",
    "DetectorConfig",
    "GradientField",
    "GrayImage",
    "Keypoint",
    "Roi",
    "attach_context",
    "bilinear_sample",
    "compute_descriptors",
    "context_region",
    "context_roi",
    "contexts",
    "covariance_descriptor",
    "dense_descriptors",
    "descriptors",
    "extract_keypoints",
    "log_euclidean_vec",
    "positions",
]
