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
)
from .regions import (
    FinitePointSet,
    GridRect,
    Interval1D,
    RegionAtom,
    SymbolicHybridSet,
    Universe,
    Valuation,
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
    evaluate_grid,
    evaluate_many,
    graph_function,
    hybrid_graph,
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
    apply_linear,
    karr_split_check,
    karr_sum,
    linearity_report,
    pointwise_star,
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
    SplineRegionValue,
    SymbolicSpline,
    spline_eval_region,
    spline_merge,
)
from .workspace import (
    Workspace,
    parse_workspace,
)

__version__ = "0.1.0"
