"""streetinv: geometry-guided 3D inventory from sparse street imagery.

Turns 2D detections on panoramic street frames (with known camera poses)
into a deduplicated inventory of 3D object centers: observations are
lifted to world-space rays, associated across views, triangulated by
point-to-ray least squares, and cleaned up by a split/merge refinement
driven by geometric consistency.
"""

from .association import (
    Cluster,
    MatchMatrix,
    PairMatch,
    assign_pairs,
    build_score_matrix,
    geometric_score,
    transitive_cluster,
)
from .geometry import (
    CameraPose,
    Detection2D,
    Observation,
    angles_to_camera_dir,
    build_observation,
    pixel_to_angles,
    rotation_from_euler,
)
from .metrics import (
    EvaluationReport,
    build_report,
    clustering_metrics,
    identification_metrics,
    pairwise_metrics,
)
from .pipeline import PipelineResult, RunConfig, run_pipeline
from .refinement import (
    RefineConfig,
    estimate_physical_size,
    merge_undermatched,
    refine,
    split_overmatched,
)
from .simulator import (
    GroundTruth,
    SceneObject,
    SceneSpec,
    default_scene_spec,
    generate_scene,
    straight_trajectory,
)
from .triangulation import (
    CenterEstimate,
    DegenerateClusterError,
    Ray,
    energy,
    estimate_center,
    point_ray_distance,
    ray_ray_distance,
)

__version__ = "0.1.0"
