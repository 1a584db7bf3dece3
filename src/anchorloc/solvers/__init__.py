from .alignment import SimilarityTransform, umeyama_similarity
from .bundle import BundleResult, FreezeMask, bundle_adjust
from .errors import (
    CheiralityFailure,
    DegenerateConfiguration,
    InsufficientCorrespondences,
    InsufficientParallax,
    NoConsensus,
    NumericalFailure,
    ReprojectionTooLarge,
    SolverError,
)
from .pnp import RansacConfig, pose_from_prior, ransac_pnp, refine_pose
from .triangulation import TriangulationConfig, triangulate, triangulate_many
from .twoview import epipolar_inlier_indices, estimate_relative_pose, refine_relative_pose

__all__ = [
    "BundleResult",
    "CheiralityFailure",
    "DegenerateConfiguration",
    "FreezeMask",
    "InsufficientCorrespondences",
    "InsufficientParallax",
    "NoConsensus",
    "NumericalFailure",
    "RansacConfig",
    "ReprojectionTooLarge",
    "SimilarityTransform",
    "SolverError",
    "TriangulationConfig",
    "bundle_adjust",
    "epipolar_inlier_indices",
    "estimate_relative_pose",
    "pose_from_prior",
    "refine_relative_pose",
    "ransac_pnp",
    "refine_pose",
    "triangulate",
    "triangulate_many",
    "umeyama_similarity",
]
