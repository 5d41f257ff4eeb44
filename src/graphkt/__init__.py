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
    format_graph,
    generate_chain,
    generate_cycle,
    generate_flower,
    generate_theta,
    graph_to_json,
    parse_graph,
)
from .ktheory import classify_stable, classify_strict, ktheory_report
from .ihara_zeta import zeta_report
from .sweep import SweepConfig, run_sweep

__version__ = "0.1.0"
