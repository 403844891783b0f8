"""Counting identities, asymptotic diagnostics, and Monte Carlo for
kernels of adjacency matrices of random d-regular multigraphs.

Exact layer: gfcore (rank/kernel over F_p and Z), confmodel (sampler),
walkdist (histogram-walk step law and n-step tables), exactcount
(per-class kernel counts and master sums), bruteoracle (full-model
enumeration at tiny sizes).  Floating layer: asymptotics (local-CLT
approximants, characteristic-function scans, rate functions, operator
spectral checks).  experiments runs the Monte Carlo studies; cli wraps
everything for the shell.
"""

from .asymptotics import (
    cf_scan,
    lclt_directed,
    operator_L_check,
    rate_directed_explicit,
    rate_directed_opt,
    rate_undirected_explicit,
)
from .bruteoracle import certify_identities
from .confmodel import Graph, GraphParams, sample
from .exactcount import (
    count_graphs_directed,
    count_graphs_undirected,
    master_sum_directed,
    master_sum_undirected,
    singularity_bound_from_master,
)
from .experiments import McConfig, mc_vs_exact, run_mc, scaling_probe
from .gfcore import rank_integer, rank_mod_p
from .walkdist import build_support, moments, phi, walk_distribution

__all__ = [
    "Graph",
    "GraphParams",
    "McConfig",
    "build_support",
    "certify_identities",
    "cf_scan",
    "count_graphs_directed",
    "count_graphs_undirected",
    "lclt_directed",
    "master_sum_directed",
    "master_sum_undirected",
    "mc_vs_exact",
    "moments",
    "operator_L_check",
    "phi",
    "rank_integer",
    "rank_mod_p",
    "rate_directed_explicit",
    "rate_directed_opt",
    "rate_undirected_explicit",
    "run_mc",
    "sample",
    "scaling_probe",
    "singularity_bound_from_master",
    "walk_distribution",
]
