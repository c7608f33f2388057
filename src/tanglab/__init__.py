"""Exact-arithmetic laboratory for tangencies of 1-intersecting curve families."""

from .bipartite import (
    Bad4Report,
    BipartiteGraph,
    SparsenessBudget,
    SparsityReport,
    ViolationResult,
    avg_degree,
    bad_4tuple_scan,
    check_f_sparse,
    contains_subgraph,
    count_k21,
    count_k22,
    h_plus,
    intersection_reverse_check,
    near_regularize,
    prune_min_degree,
    sub_bineighborhood_violation,
    tangency_order_lists,
)
from .curves import (
    CurveFamily,
    DegeneracyError,
    PolyChain,
    TangencyEdge,
    TangencyGraph,
    TangencyType,
    ValidationReport,
    classify_contact,
    common_points,
    tangency_graph,
    tangency_type,
    validate_family,
)
from .generators import (
    IncidenceInstance,
    gen_doubling,
    gen_grounded_family,
    gen_incidence_grid,
    gen_random_bipartite,
    gen_vee_fan,
)
from .geom import (
    GeometryError,
    OverlapError,
    Point,
    Segment,
    format_rat,
    on_segment,
    orient,
    pt,
    rat,
    segment_intersect,
)
from .io import FormatError, load_family, load_graph, save_family, save_graph
from .xmono import (
    CellStats,
    CuttingFailure,
    EnvelopePiece,
    Partition,
    Trapezoid,
    biinfinite_extend,
    cell_stats,
    cutting_search,
    lower_envelope,
    starts_below,
    trapezoidal_partition,
    value_at,
    vertical_visibility_pairs,
)

__version__ = "0.1.0"
