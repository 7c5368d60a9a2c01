"""General position numbers of graphs, exact solvers, and an exhaustive
census over maximal outerplanar graphs."""

from .census import (
    CensusRecord,
    ClaimReport,
    catalan,
    census_to_csv,
    claim_report_text,
    enumerate_triangulations,
    run_census,
    verify_paper_claims,
)
from .families import (
    BadParam,
    FamilyInstance,
    complete,
    cycle,
    double_fan,
    fan,
    generalized_sunflower,
    generators_at,
    is_generalized_sunflower,
    path,
    quasi_fan,
    straight_linear_2tree,
    sunflower,
)
from .graph import (
    Disconnected,
    DuplicateEdge,
    EdgeListError,
    Graph,
    GraphError,
    SelfLoop,
    UNREACHABLE,
    VertexOutOfRange,
    all_pairs_distances,
    build_graph,
    format_edge_list,
    interval,
    is_connected,
    lies_on_geodesic,
    parse_edge_list,
)
from .mop import (
    EdgeInTooManyTriangles,
    HullNotHamiltonian,
    MopCertificate,
    MopStats,
    NotAnMop,
    StructureViolation,
    WrongEdgeCount,
    canonical_form,
    certificate_to_text,
    maximal_fan,
    mop_stats,
    recognize,
)
from .solve import (
    GpResult,
    SearchCapExceeded,
    gp_number,
    mop_greedy_lower_bound,
)
from .verify import GpSetCheck, is_gp_characterized, is_gp_levels, is_gp_naive

__version__ = "0.1.0"
