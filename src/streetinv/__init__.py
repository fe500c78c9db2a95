"""streetinv: geometry-guided 3D inventory from sparse street imagery.

Turns 2D detections on panoramic street frames (with known camera poses)
into a deduplicated inventory of 3D object centers: observations are
lifted to world-space rays, associated across views, triangulated by
point-to-ray least squares, and cleaned up by a split/merge refinement
driven by geometric consistency.

The simulator deals in `Observation` records, one per ray. Files are read
as columns, checked as arrays: `ingest` lifts every detection in one array
pass into an `ObservationTable`, and every later stage reads the rays as
rows of that table; a cluster names its rays by observation id. Association
sorts its table by frame, so each frame is one run of rows, and takes
from one function, `window_pairs`, the row-slice pairs of frames fewer
than `window` ranks apart. Its scores, geometric or from a file, are an
upper-triangular sparse matrix over those rows, and assignment reads one
dense block of it per frame pair. Localization and each round of
refinement's splitting fit every cluster's center in one batched solve.
"""

from .association import (
    Cluster,
    PairMatch,
    assign_pairs,
    build_score_matrix,
    ray_gaps,
    transitive_cluster,
    window_pairs,
)
from .geometry import (
    CameraPose,
    Detection2D,
    DetectionTable,
    Observation,
    ObservationTable,
    angles_to_camera_dir,
    build_observation,
    lift_detections,
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
from .refinement import estimate_physical_size, merge_undermatched, refine, split_overmatched
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
    CenterEstimates,
    DegenerateClusterError,
    estimate_center,
    estimate_centers,
)

__version__ = "0.1.0"
