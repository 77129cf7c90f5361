"""Exact diagrams, invariants and moves for immersed bouquets in RP^2."""

from .geometry import (
    CodirectionalVectors,
    Point,
    Rat,
    angle_sort,
    antipode,
    circle_point,
    on_unit_circle,
    orient2d,
    pt,
    rat,
    seam_reflection,
    segment_intersection,
)
from .diagram import (
    BouquetDiagram,
    Crossing,
    DiagramFormatError,
    HalfEdge,
    InvalidDiagram,
    Leg,
    LoopParam,
    LoopPath,
    Violation,
    crossings,
    dumps,
    from_json_obj,
    loads,
    to_json_obj,
    validate,
    vertex_directions,
)
from .invariants import (
    CyclicWord,
    DuplicateSymbol,
    InvariantTuple,
    MismatchedLoopCount,
    MissingSymbol,
    canonical_cyclic_word,
    equiv,
    inv1,
    inv2,
    inv3,
    invariants,
    signed_index,
)
from .moves import (
    EDIT_KINDS,
    MOVE_KINDS,
    EditOutcome,
    EditSpec,
    Exhausted,
    MoveBlocked,
    MoveSpec,
    apply_edit,
    apply_edit_outcome,
    apply_move,
    random_edit,
    random_move,
    random_move_applied,
)
from .normal_form import (
    MAX_ENUM_N,
    MAX_REALIZE_N,
    LimitExceeded,
    RealizationError,
    classify,
    enumerate_classes,
    random_tuple,
    realize,
)
from .cli import main, render_svg, run_fuzz, run_replay

__version__ = "0.1.0"
