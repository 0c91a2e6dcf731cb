"""The paper's contribution: TDG, HDG, grids, the guideline and Algorithms 1-2."""

from .base import RangeQueryMechanism
from .granularity import (DEFAULT_ALPHA1, DEFAULT_ALPHA2, GranularityChoice,
                          choose_granularities_hdg, choose_granularity_tdg,
                          default_user_split, minimum_granularity,
                          nearest_divisor, nearest_power_of_two, raw_g1,
                          raw_g2, recommended_granularity_table)
from .grid import Grid1D, Grid2D
from .hdg import HDG, IHDG
from .phase2 import run_phase2
from .prefix_sum import (PrefixIndex1D, PrefixIndex2D, SummedAreaTable,
                         prefix_sum_1d, summed_area_table)
from .query_estimation import (estimate_lambda_query,
                               lambda_constraint_index_sets)
from .response_matrix import ResponseMatrixResult, build_response_matrix
from .tdg import ITDG, TDG

__all__ = [
    "DEFAULT_ALPHA1",
    "DEFAULT_ALPHA2",
    "GranularityChoice",
    "Grid1D",
    "Grid2D",
    "HDG",
    "IHDG",
    "ITDG",
    "PrefixIndex1D",
    "PrefixIndex2D",
    "RangeQueryMechanism",
    "ResponseMatrixResult",
    "SummedAreaTable",
    "TDG",
    "build_response_matrix",
    "choose_granularities_hdg",
    "choose_granularity_tdg",
    "default_user_split",
    "estimate_lambda_query",
    "lambda_constraint_index_sets",
    "minimum_granularity",
    "nearest_divisor",
    "nearest_power_of_two",
    "prefix_sum_1d",
    "raw_g1",
    "raw_g2",
    "recommended_granularity_table",
    "run_phase2",
    "summed_area_table",
]
