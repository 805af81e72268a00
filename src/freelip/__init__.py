"""freelip: transportation norms, cycle spaces, and projection-constant
certificates on finite metric spaces and recursive graph families."""

from .cyclespace import (CycleBasis, EdgeVector, boundary, fundamental_cycle_basis,
                         greedy_cycle_packing, mu, quotient_norm, signed_indicator)
from .embeddings import (EmbeddingReport, diamond_stage_net, diamond_top_level,
                         half_dim_embedding, large_embedding, mod_p_selection,
                         mst_parents)
from .freenorm import (DualCertificate, TransportPlan, ae_norm, lip_dual,
                       tree_isometry, tree_norm)
from .graphs import (Edge, TwoPoleGraph, automorphism_search, compose, diamond,
                     diamond_base, k2n_base, laakso, laakso_base, multidiamond, path,
                     recursive_family, single_edge, star)
from .haar_system import (DyadicVector, diamond_bm_bounds, haar, haar_witness_bound,
                          multibranch_analysis, verify_even_level_span)
from .metric import LipschitzFunction, MetricSpace, Molecule, graph_metric, validate_metric
from .projections import (ProjectionReport, average_projection, bm_upper_via_basis_map,
                          generate_group, l1_norm, linf_norm, minimal_projection_lp,
                          orthogonal_projection, orthogonal_rows)
from .recursive import (BaseGraphProfile, annihilation_check, check_conditions,
                        laakso_nonunique_projection, profile_base, witness)
from .symmetry import vertical_automorphism

__version__ = "0.1.0"
