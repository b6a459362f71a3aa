"""Tiling 3-uniform hypergraphs with copies of the two-triple 4-vertex
pattern (two edges sharing two vertices), under codegree-style density.

The package provides the data model (`core`), extremal and design-based
instance generators (`constructions`), exact solvers and oracles
(`exact`), the staged pipeline for near-extremal instances (`extremal`),
the greedy near-perfect tiling (`localsearch`), randomized absorption
(`absorb`), text formats (`io`), and a layered driver plus CLI (`cli`).
"""

from types import ModuleType as _ModuleType

from .absorb import (
    AbsorberFamily,
    AbsorptionFailure,
    ConstructionFailure,
    absorb_leftover,
    absorbs,
    build_absorbing_family,
    desk_sampling_rate,
    estimate_absorber_density,
    validate_family,
)
from .cli import DriverParams, DriverResult, main, solve_driver
from .constructions import (
    UnsupportedOrderError,
    build_instance,
    complete_3graph,
    construct_G0,
    construct_G1,
    planted_extremal,
    random_codegree_instance,
    steiner_triple_system,
)
from .core import (
    MAX_EDGES,
    MAX_N,
    DCopy,
    Hypergraph3,
    InputError,
    Tiling,
    Verdict,
    build,
    codegree,
    dcopy_from_quad,
    induced_subgraph,
    is_D_free,
    map_copy,
    min_codegree,
    quad_spans_D,
    validate_tiling,
)
from .exact import (
    FourPartite4Graph,
    SearchBudget,
    four_partite,
    four_partite_degree_stats,
    four_partite_of,
    four_partite_perfect_matching,
    induced_perfect_tiling,
    max_D_free_set,
    max_tiling_exact,
    perfect_tiling_exact,
    quad_catalog,
    tileable,
)
from .extremal import (
    StageFailure,
    XYZPartition,
    extend_to_maximal_D_free,
    greedy_D_free_set,
    partition_XYZ,
    run_extremal_pipeline,
)
from .io import (
    Certificate,
    format_certificate,
    format_instance,
    parse_certificate,
    parse_instance,
    read_certificate,
    read_instance,
    write_certificate,
    write_instance,
)
from .localsearch import near_perfect_tiling

# The public names, without the submodules the imports above bind: a star
# import must not rebind a caller's ``io`` to ``dtiling.io``.
__all__ = sorted(
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))
)
