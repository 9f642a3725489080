"""Good-index-behaviour checker for inner finite-order gradings of gl_n.

The pipeline: a multiplicity vector determines a cyclic grading of gl_n
(`theta_gl`); its nilpotent orbits are labeled partitions (`orbits`); each
orbit has a graded centralizer with explicit structure constants (`centralizer`);
the degree-0 action on the degree minus-one part has an index computed by
symbolic matrix rank (`index_engine`, `exact_linalg`); the grading has good
index behaviour exactly when every orbit's index equals the rank min(r)
(`gib_checker`).  The `thetagib` CLI wraps the pipeline (`cli`).
"""

from .centralizer import GradedCentralizer, XiElement, build_centralizer
from .exact_linalg import (
    EVAL_PRIME,
    USING_COMPILED_KERNEL,
    LinearFormMatrix,
    ResourceLimitExceeded,
    certified_rank,
    ground_field_reduce,
    probabilistic_rank,
)
from .gib_checker import GibReport, OrbitVerdict, check_orbit, check_rep
from .index_engine import (
    GenericActionError,
    IndexResult,
    build_action_matrix,
    export_action,
    index_of_matrix,
    parse_action_document,
)
from .orbits import (
    LabeledPartition,
    all_nilpotent_orbits,
    enumerate_orbits,
    orbit_dimension,
    zero_orbit,
)
from .theta_gl import (
    PatternFlags,
    ThetaRep,
    dual_rep,
    normalize_cyclic,
    pattern_predicates,
    predicted_gib,
    slice_reduce,
    to_kac_diagram,
)

__version__ = "0.1.0"

__all__ = [
    "EVAL_PRIME",
    "GenericActionError",
    "GibReport",
    "GradedCentralizer",
    "IndexResult",
    "LabeledPartition",
    "LinearFormMatrix",
    "OrbitVerdict",
    "PatternFlags",
    "ResourceLimitExceeded",
    "ThetaRep",
    "USING_COMPILED_KERNEL",
    "XiElement",
    "all_nilpotent_orbits",
    "build_action_matrix",
    "build_centralizer",
    "certified_rank",
    "check_orbit",
    "check_rep",
    "dual_rep",
    "enumerate_orbits",
    "export_action",
    "ground_field_reduce",
    "index_of_matrix",
    "normalize_cyclic",
    "orbit_dimension",
    "parse_action_document",
    "pattern_predicates",
    "predicted_gib",
    "probabilistic_rank",
    "slice_reduce",
    "to_kac_diagram",
    "zero_orbit",
]
