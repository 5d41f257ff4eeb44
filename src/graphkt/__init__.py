"""Exact K-theory invariants of graph C*-algebras.

Computes, with exact integer arithmetic, the two K-groups of the
Cuntz-Krieger algebra attached to a finite multigraph's non-backtracking
edge operator, the order of the unit class, and the stable/strict
isomorphism verdicts these determine, together with Ihara-zeta
cross-checks of the same data.
"""

from .errors import DomainError, GraphError, GraphParseError, TheoremViolation
from .multigraph import (
    Multigraph,
    betti_number,
    boundary,
    classify_end_edges,
    contract_edge,
    cycle_basis,
    format_graph,
    generate_chain,
    generate_cycle,
    generate_flower,
    generate_theta,
    graph_to_json,
    is_connected,
    is_stable,
    parse_graph,
    spanning_tree,
    valences,
)
from .edge_operator import (
    edge_matrix,
    is_irreducible,
    is_permutation,
    matrix_from_coordinate_text,
    matrix_to_coordinate_text,
    one_minus_edge_matrix,
    oriented_edges,
    reversal,
)
from .exact_linalg import (
    AbelianGroup,
    SmithDecomposition,
    apply_operations,
    apply_row_operations_to_vector,
    cokernel,
    determinant,
    hermite_normal_form,
    kernel_basis,
    operations_to_text,
    poly_matrix_det,
    smith_normal_form,
    solve_min_scalar,
    xgcd,
)
from .ktheory import (
    ClassificationVerdict,
    KTheoryReport,
    ReductionTranscript,
    boundary_algebra_compatible,
    classify_stable,
    classify_strict,
    contraction_reduce,
    g1_kernel_generators,
    k0,
    k1,
    ktheory_report,
    phi,
    phi_image_equals_kernel,
    report_to_json_dict,
    unit_class_vector,
    unit_order,
)
from .ihara_zeta import (
    ZetaReport,
    edge_charpoly,
    ihara_rhs,
    vanishing_order_at_one,
    verify_bass_identity,
    vertex_adjacency_matrix,
    zeta_report,
)
from .sweep import SweepConfig, SweepReport, enumerate_connected, run_sweep

__version__ = "0.1.0"
