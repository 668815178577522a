"""Exact rate-distortion-perception functions for Bernoulli vector sources,
with brute-force verification oracles and an Erdos-Renyi graph adapter."""

__version__ = "0.1.0"

from .core import ScalarRegion, h2, h3, rd_boundary, scalar_rdp, scalar_region
from .errors import BernRdpError, ConvergenceError, DomainError, SizeError
from .graph import (EdgeAllocation, EdgeProbabilityMatrix, GraphRdpResult,
                    flatten, graph_rdp, load_matrix)
from .oracle import (GridSpec, ScalarChannel, allocation_grid_oracle,
                     s_of_d_oracle, scalar_channel_oracle)
from .solver import (Allocation, BernoulliVectorSource, BudgetPair,
                     KktCertificate, PlaneRegion, RdpResult, SCurvePoint,
                     check_certificate, classify, in_region_closure,
                     length_bounds, normalize, rdp, s_of_d, solve_region_a,
                     solve_region_b, solve_region_c, t_of_d, water_fill)

__all__ = [
    "Allocation", "BernRdpError", "BernoulliVectorSource", "BudgetPair",
    "ConvergenceError", "DomainError", "EdgeAllocation",
    "EdgeProbabilityMatrix", "GraphRdpResult", "GridSpec", "KktCertificate",
    "PlaneRegion", "RdpResult", "SCurvePoint", "ScalarChannel",
    "ScalarRegion", "SizeError", "allocation_grid_oracle",
    "check_certificate", "classify", "flatten", "graph_rdp",
    "h2", "h3", "in_region_closure", "length_bounds", "load_matrix",
    "normalize", "rd_boundary", "rdp",
    "s_of_d", "s_of_d_oracle", "scalar_channel_oracle",
    "scalar_rdp", "scalar_region", "solve_region_a",
    "solve_region_b", "solve_region_c", "t_of_d", "water_fill",
]
