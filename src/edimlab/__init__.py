"""Exact metric and edge metric dimension laboratory for small graphs."""

from .constructions import (
    LabeledConstruction,
    cartesian_path,
    construct_F,
    construct_H,
    join,
    product_upper_witness,
    standard_family,
)
from .errors import (
    BadParamsError,
    DisconnectedError,
    DuplicateEdgeError,
    FormatError,
    GraphError,
    KOutOfRangeError,
    MTooSmallError,
    NoEdgesError,
    NotAnEdgeError,
    NTooLargeError,
    SameVertexError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from .experiments import (
    SurveyRow,
    canonical_mask,
    connected_classes,
    enumerate_connected_graphs,
    labeled_masks,
    ratio_extremes,
    survey_triples,
)
from .formats import (
    parse_edge_list,
    parse_graph6,
    parse_graph_text,
    write_edge_list,
    write_graph6,
)
from .graph import (
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    bfs_levels,
    build_graph,
    diameter,
    edge_vertex_distance,
    is_connected,
    max_degree,
    non_mutual_neighbors,
)
from .reference import (
    edge_metric_dimension_naive,
    equivalence_sweep,
    metric_dimension_naive,
)
from .resolver import (
    DimensionResult,
    edge_metric_dimension,
    edge_signature,
    is_edge_generator,
    is_vertex_generator,
    metric_dimension,
    min_joint_cover,
    vertex_signature,
)
from .theorems import (
    SweepSummary,
    TheoremReport,
    check_corollary_diam_triangle,
    check_edge_count_bound,
    check_Fk_theorem,
    check_Hk_theorem,
    check_join_K1_theorem,
    check_max_degree_lemmas,
    check_ncondition_theorem,
    check_product_theorem,
    check_vertex_count_bound,
    full_edim_condition,
    join_K1_predicate,
    sweep_theorem,
)

__version__ = "0.1.0"
