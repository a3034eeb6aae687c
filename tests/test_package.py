import types

import ridgekit

# the public names of the package, in the order they are exported
EXPORTS = [
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
    "stairlike_error", "uc_best", "vc_best",
    "DecompProblem", "DecompResult", "crosscheck_highorder", "decompose",
    "tabulate",
    "MonicPoly", "NetworkParams", "SigmoidParams", "calkin_wilf",
    "cw_index", "eval_network", "fit_two_neuron", "monic_enum",
    "monic_index", "rational_enum", "rational_index", "sigma",
    "__version__",
]


def test_star_import_gives_the_public_names_and_no_module():
    namespace = {}
    exec("from ridgekit import *", namespace)
    del namespace["__builtins__"]
    assert ridgekit.__all__ == EXPORTS and len(EXPORTS) == 69
    assert sorted(namespace) == sorted(EXPORTS)
    assert not any(isinstance(v, types.ModuleType)
                   for v in namespace.values())
