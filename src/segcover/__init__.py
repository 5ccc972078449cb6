"""Unicost set-cover toolkit: bit-parallel sets, reduction, segmentation,
greedy and GRASP solvers, a forced MST bipartition, and a benchmark CLI."""

from .core import (
    Cover,
    Instance,
    cover_is_feasible,
)
from .grasp import (
    EVAL_FUNCTIONS,
    EvalFunction,
    GraspParams,
    RowMap,
    create_row_map,
    grasp_solve,
    rand_construct,
    remove_redundant_sets,
    remove_sets,
)
from .grasp_su import SuParams, grasp_su_solve, rpd, rpd_star
from .greedy import greedy_solve
from .io import (
    GeneratorConfig,
    ParseError,
    emit_results_csv,
    generate_segmentable,
    parse_auto,
    parse_rail,
    parse_scp,
    write_rail,
    write_scp,
)
from .mst import Bipartition, WeightedCoGraph, build_cograph, grasp_mst_solve, mst_bipartition
from .preprocess import ReductionReport, reduce
from .segmentation import Component, Segmentation, find_groups, merge_partial_covers

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "Component",
    "Cover",
    "EVAL_FUNCTIONS",
    "EvalFunction",
    "GeneratorConfig",
    "GraspParams",
    "Instance",
    "ParseError",
    "ReductionReport",
    "RowMap",
    "Segmentation",
    "SuParams",
    "WeightedCoGraph",
    "build_cograph",
    "cover_is_feasible",
    "create_row_map",
    "emit_results_csv",
    "find_groups",
    "generate_segmentable",
    "grasp_mst_solve",
    "grasp_solve",
    "grasp_su_solve",
    "greedy_solve",
    "merge_partial_covers",
    "mst_bipartition",
    "parse_auto",
    "parse_rail",
    "parse_scp",
    "rand_construct",
    "reduce",
    "remove_redundant_sets",
    "remove_sets",
    "rpd",
    "rpd_star",
    "write_rail",
    "write_scp",
]
