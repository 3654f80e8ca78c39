"""Computational toolkit for branched-covering dynamics of rational maps.

Layers, bottom up: polynomial/sphere numerics (numkernel), rational maps as
branched coverings (ratmap), Julia-set sampling and rendering (julia), the
balanced measure (measure), transfer operators and KMS traces (transfer),
weighted inner products, frames, and simplicity witnesses (bimodule), a
catalog of worked examples (registry), and a CLI (cli).
"""

from .errors import (BudgetExceeded, CoprimalityError, CoverTooCoarse,
                     EvaluationAtInfinity, FrameUnavailable, NonConvergence,
                     RatdynError, TabulationMiss, UnknownExample,
                     WitnessFailed)
from .numkernel import (RootSet, SpherePoint, chordal_distance,
                        local_multiplicity, roots_with_multiplicity,
                        sphere_embed)
from .ratmap import (CriticalDatum, Fiber, RationalMap, branch_index,
                     compose, critical_points, evaluate, iterate_map,
                     periodic_points, preimage_tree, preimages, tree_levels)
from .julia import (JuliaCloud, backward_walk, circle_neighbor_stats,
                    critical_points_in_julia, default_escape_radius,
                    escape_membership, mandelbrot_member, read_cloud_csv,
                    render, sample_inverse_iteration, write_cloud_csv,
                    write_pgm)
from .measure import (WeightedCloud, convergence_diagnostic, integrate,
                      invariance_defect, lyubich_exact, lyubich_mc,
                      pushforward, read_weighted_csv, write_diagnostics_json,
                      write_weighted_csv)
from .transfer import (ComposedFunction, Entropy, IterationTrace, KmsRun,
                       ProductFunction, TestFunction, entropy, h_op,
                       kms_defect, kms_iterate, lemma31_defect, transfer_E,
                       write_trace_csv)
from .bimodule import (Frame, GraphFunction, ProductOnGraph, build_frame,
                       expansion_time, frame_delta_defect,
                       frame_reconstruction_defect, inner_product,
                       ix_distance, norm_sup, norm_two, normalized_witness,
                       simplicity_witness, tensor_embed, write_witness_json)
from . import registry

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "CoprimalityError", "CoverTooCoarse",
    "EvaluationAtInfinity", "FrameUnavailable", "NonConvergence",
    "RatdynError", "TabulationMiss", "UnknownExample", "WitnessFailed",
    "RootSet", "SpherePoint", "chordal_distance",
    "local_multiplicity", "roots_with_multiplicity", "sphere_embed",
    "CriticalDatum", "Fiber", "RationalMap", "branch_index", "compose",
    "critical_points", "evaluate", "iterate_map", "periodic_points",
    "preimage_tree", "preimages", "tree_levels",
    "JuliaCloud", "backward_walk", "circle_neighbor_stats",
    "critical_points_in_julia", "default_escape_radius", "escape_membership",
    "mandelbrot_member", "read_cloud_csv", "render",
    "sample_inverse_iteration", "write_cloud_csv", "write_pgm",
    "WeightedCloud", "convergence_diagnostic", "integrate",
    "invariance_defect", "lyubich_exact", "lyubich_mc", "pushforward",
    "read_weighted_csv", "write_diagnostics_json", "write_weighted_csv",
    "ComposedFunction", "Entropy", "IterationTrace", "KmsRun",
    "ProductFunction", "TestFunction", "entropy", "h_op", "kms_defect",
    "kms_iterate", "lemma31_defect", "transfer_E", "write_trace_csv",
    "Frame", "GraphFunction", "ProductOnGraph", "build_frame",
    "expansion_time", "frame_delta_defect", "frame_reconstruction_defect",
    "inner_product", "ix_distance", "norm_sup", "norm_two",
    "normalized_witness", "simplicity_witness", "tensor_embed",
    "write_witness_json",
    "registry",
]
