"""Exact radius, center, diameter and peripheral-pair search on weighted
undirected graphs using pivot-based bound tightening, with brute-force
oracles and a benchmark harness.
"""

from .diameter import DiameterResult, find_diameter
from .graph import (
    DimacsParseError,
    Graph,
    GraphSpec,
    GraphValidationError,
    check_connected,
    generate,
    load_dimacs,
    write_dimacs,
)
from .oracle import (
    OracleMetrics,
    apsp_repeated_sssp,
    floyd_warshall,
    scan_diameter,
    scan_metrics,
    scan_radius,
)
from .radius import RadiusResult, far_pair, find_radius
from .sssp import (
    DisconnectedGraphError,
    DistanceMatrix,
    DistanceProvider,
    eccentricity,
)

__all__ = [
    "DiameterResult",
    "DimacsParseError",
    "DisconnectedGraphError",
    "DistanceMatrix",
    "DistanceProvider",
    "Graph",
    "GraphSpec",
    "GraphValidationError",
    "OracleMetrics",
    "RadiusResult",
    "apsp_repeated_sssp",
    "check_connected",
    "eccentricity",
    "far_pair",
    "find_diameter",
    "find_radius",
    "floyd_warshall",
    "generate",
    "load_dimacs",
    "scan_diameter",
    "scan_metrics",
    "scan_radius",
    "write_dimacs",
]
