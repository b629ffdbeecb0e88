"""Registration of egocentric video frames to a prebuilt 3D point model.

The pipeline: blob keypoints with gradient descriptors and covariance
context vectors, a joint spectral embedding of query and model features,
one-to-one assignment with a ratio test, lifting of 2D matches to 3D
points, and robust pose estimation. Sequence utilities (frame pruning,
tracking, retrieval shortlists), binary file formats, a synthetic
day/night scene generator, and a command line front end round it out.
"""

from .embedding import (AffinityMatrix, EmbeddedSet, assemble_affinity,
                        gaussian_kernel, median_sigma, solve_embedding,
                        spatial_similarity, temporal_distance_profile,
                        temporal_similarity)
from .errors import *  # noqa: F401,F403  (errors defines __all__)
from .evaluation import (MatchReport, RegistrationReport, count_inliers,
                         pose_errors, registration_curve, registration_report)
from .features import (CONTEXT_DIM, DESCRIPTOR_DIM, ContextConfig,
                       DetectorConfig, GradientField, GrayImage, Keypoint,
                       KeypointTable, attach_context, compute_descriptors,
                       dense_descriptors, extract_keypoints)
from .geometry import Intrinsics, PixelPoint, Pose, project_many
from .io import (load_index, load_model, load_pruner, load_sequence,
                 save_index, save_model, save_pruner, save_sequence)
from .matching import (MODES, MatchConfig, MatchTable, hungarian,
                       match_frame_to_shortlist, match_nearest_neighbor,
                       match_single_frame, match_spatiotemporal, ratio_filter)
from .model import Model3D, ModelImage, PointTable, Sequence, SequenceFrame
from .registration import (Correspondences, FrameMatches, PoseEstimate,
                           RansacConfig, RegistrationRecord, ensure_contexts,
                           lift_matches, match_sequence, pnp_solve, ransac_pnp,
                           register_sequence)
from .retrieval import (InvertedIndex, Vocabulary, build_vocabulary,
                        index_images, shortlist)
from .sequence import (LinearPruner, Track, blur_metric, frame_quality_feature,
                       motion_histogram, optical_flow, prune_frames, track_keypoints,
                       train_pruner)
from .synth import SynthConfig, SynthScene, look_at, night_preset, night_transform, synth_scene

__version__ = "0.1.0"
