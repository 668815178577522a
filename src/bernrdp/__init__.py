"""Exact rate-distortion-perception functions for Bernoulli vector sources,
with brute-force verification oracles and an Erdos-Renyi graph adapter."""

__version__ = "0.1.0"

from .core import ScalarRegion, scalar_rdp
from .errors import BernRdpError, ConvergenceError, DomainError, SizeError
from .graph import (EdgeAllocation, EdgeProbabilityMatrix, GraphRdpResult,
                    flatten, graph_rdp, load_matrix)
from .oracle import (GridSpec, ScalarChannel, allocation_grid_oracle,
                     s_of_d_oracle, scalar_channel_oracle)
from .solver import (Allocation, BernoulliVectorSource, BudgetPair,
                     KktCertificate, PlaneRegion, RdpResult, SCurvePoint,
                     check_certificate, classify, length_bounds, normalize,
                     rdp, s_of_d, solve_region_a, solve_region_b,
                     solve_region_c, t_of_d, water_fill)

__all__ = [
    "Allocation", "BernRdpError", "BernoulliVectorSource", "BudgetPair",
    "ConvergenceError", "DomainError", "EdgeAllocation",
    "EdgeProbabilityMatrix", "GraphRdpResult", "GridSpec", "KktCertificate",
    "PlaneRegion", "RdpResult", "SCurvePoint", "ScalarChannel",
    "ScalarRegion", "SizeError", "allocation_grid_oracle",
    "check_certificate", "classify", "flatten", "graph_rdp",
    "length_bounds", "load_matrix", "normalize", "rdp", "s_of_d",
    "s_of_d_oracle", "scalar_channel_oracle", "scalar_rdp", "solve_region_a",
    "solve_region_b", "solve_region_c", "t_of_d", "water_fill",
]
