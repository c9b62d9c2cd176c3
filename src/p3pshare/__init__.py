"""P3P multi-solution geometry: characteristic conics, sharing pairs, loci."""

from .geometry import (CanonicalFrame, ControlTriangle, RatioPair,
                       SolutionTriplet, ViewAngles, canonical_frame,
                       cocyclic_degeneracy, interior_angles,
                       view_angles_from_center)
from .conics import (Conic, ConicPair, IntersectionSet, build_conics,
                     intersect_conics, quadrant_one_filter)
from .solver import (Solution, SolutionSet, constraint_residuals,
                     recover_centers, solve, triplet_from_ratio)
from .sharing import (PairClassification, SharingLabel, classify_solution_set,
                      companion_check, construct_mate, mate_condition,
                      sharing_residual)
from .loci import (DangerCylinder, SampleRegion, SkewedDangerCylinder,
                   VerticalPlane, cylinder_membership, danger_cylinder,
                   plane_membership, sample_locus, skewed_danger_cylinder,
                   skewed_membership, vertical_plane)
from .scenes import (CampaignReport, GridConfig, Scene, SceneConfig,
                     brute_force_solutions, random_scene, scene_from_center,
                     verify_theorem)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
