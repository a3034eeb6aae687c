"""Ridge-function approximation toolkit.

Representability tests via cycles, closed-form best approximations and
exact error formulas in the uniform and L2 norms, bolt-based error
formulas on axis-parallel polygons, constructive smooth ridge
decompositions, and an algorithmically constructed universal sigmoidal
activation with a two-neuron network fitter.
"""

import os

# OpenBLAS, MKL and OpenMP read their thread counts once, when numpy loads
# them, so RIDGEKIT_THREADS is copied into their variables before any of
# the imports below loads numpy
_threads = os.environ.get("RIDGEKIT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

from .core import (
    DirectionSet,
    PointConfig,
    RidgeSum,
    ScalarField,
    UnivariateTable,
    grid_minimax_oracle,
    max_cycle_mean,
    parse_expression,
    parse_vector,
    rational,
)
from .cycles import (
    CycleCertificate,
    CycleExists,
    Fibers,
    closed_path_search,
    cycle_functional,
    has_cycle,
    minimal_cycles,
    orbits,
    solve_representation,
    tau_closure,
)
from .uniform import (
    ExtremalPair,
    HypothesisViolated,
    ParallelogramDomain,
    best_uniform,
    diliberto_straus,
    mixed_condition_check,
    verify_extremal,
)
from .l2 import (
    L2Solution,
    NotAnRSet,
    RSetTransform,
    best_l2,
    build_rset,
    l2_error,
)
from .bolts import (
    AxisRect,
    ClassViolated,
    ClosedBolt,
    Hexagon,
    L,
    Octagon,
    StairPolygon,
    ebolts,
    golomb_lower_bound,
    hexagon_error,
    l,
    maximize_bolt,
    octagon_error,
    polygon_error,
    sharp_bounds,
    stairlike_error,
    uc_best,
    vc_best,
)
from .smooth import (
    DecompProblem,
    DecompResult,
    crosscheck_highorder,
    decompose,
    tabulate,
)
from .sigmoid import (
    MonicPoly,
    NetworkParams,
    SigmoidParams,
    calkin_wilf,
    cw_index,
    eval_network,
    fit_two_neuron,
    monic_enum,
    monic_index,
    rational_enum,
    rational_index,
    sigma,
)

__version__ = "1.0.0"

__all__ = [
    "DirectionSet", "PointConfig", "RidgeSum", "ScalarField",
    "UnivariateTable", "grid_minimax_oracle", "max_cycle_mean",
    "parse_expression", "parse_vector", "rational",
    "CycleCertificate", "CycleExists", "Fibers", "closed_path_search",
    "cycle_functional", "has_cycle", "minimal_cycles", "orbits",
    "solve_representation", "tau_closure",
    "ExtremalPair", "HypothesisViolated", "ParallelogramDomain",
    "best_uniform", "diliberto_straus", "mixed_condition_check",
    "verify_extremal",
    "L2Solution", "NotAnRSet", "RSetTransform", "best_l2", "build_rset",
    "l2_error",
    "AxisRect", "ClassViolated", "ClosedBolt", "Hexagon", "L", "Octagon",
    "StairPolygon", "ebolts", "golomb_lower_bound", "hexagon_error", "l",
    "maximize_bolt", "octagon_error", "polygon_error", "sharp_bounds",
    "stairlike_error",
    "uc_best", "vc_best",
    "DecompProblem", "DecompResult", "crosscheck_highorder", "decompose",
    "tabulate",
    "MonicPoly", "NetworkParams", "SigmoidParams", "calkin_wilf",
    "cw_index", "eval_network", "fit_two_neuron", "monic_enum",
    "monic_index", "rational_enum", "rational_index", "sigma",
    "__version__",
]
