"""Signed-multiplicity sets and a compact calculus for piecewise functions.

The core idea: keep regions symbolic (integer combinations of named region
atoms) and keep values formal (words in a free abelian group over function
atoms).  Arithmetic on piecewise functions then needs one term per
refinement piece instead of one case per ordering of the breakpoints, and
evaluation at a concrete point recovers the classical answer by
cancellation.
"""

from .errors import (
    ContractError,
    HybridError,
    MultiplicityOverflowError,
    NonEvaluableError,
    NotReducibleError,
    OpacityError,
    ParseError,
    RefinementError,
    UnimodularError,
    UniverseMismatchError,
    ValuationError,
)
from .hybridset import (
    HybridSet,
    INT64_MAX,
    INT64_MIN,
    checked_add,
    checked_mul,
    ominus,
    oplus,
    otimes,
    reduce_set,
    scalar,
    support,
)
from .regions import (
    FinitePointSet,
    GridRect,
    Interval1D,
    RegionAtom,
    SymbolicHybridSet,
    Universe,
    Valuation,
    grid_cells,
    instantiate,
    rational_grid,
)
from .functions import (
    BUILTIN_STARS,
    Defined,
    FormalValue,
    FreeWord,
    FunctionAtom,
    HybridExpr,
    HybridTerm,
    MERGE,
    PLUS,
    StarOp,
    TIMES,
    UNDEFINED,
    atom,
    constant_atom,
    evaluate,
    evaluate_many,
    graph_function,
    hybrid_graph,
    is_reducible,
    join,
    marked_join,
    reduce_formally,
    term,
    word,
)
from .refine import (
    ChoiceMatrix,
    GeneralisedPartition,
    Refinement,
    STYLE_ONES_TOP,
    STYLE_UPPER_TRIANGLE,
    canonical_choice_matrix,
    common_strict_refinement,
    is_strict,
    min_refinement_size,
    verify_rewrite,
)
from .calculus import (
    CheckReport,
    KarrSum,
    LinearOperatorSpec,
    SUMMATION,
    apply_linear,
    karr_split_check,
    karr_sum,
    linear_operator,
    linearity_report,
    pointwise_star,
    register_linear_operator,
    star_inverse_identity_check,
)
from .matrices import (
    Block,
    SymbolicBlockMatrix,
    block_matrix_2x2,
    grid_universe,
    matrix_add,
    matrix_add_with_refinement,
)
from .splines import (
    SegmentAtom,
    SegmentMerge,
    SplineRegionValue,
    SymbolicSpline,
    spline_eval_region,
    spline_merge,
    spline_merge_with_refinement,
)
from .workspace import (
    Workspace,
    parse_workspace,
    render_workspace,
)

__version__ = "0.1.0"
