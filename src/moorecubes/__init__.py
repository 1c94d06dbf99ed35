"""Moore hyperrectangles: cubes with a shape vector and a clamped action.

A cube of dimension n over a target space carries per-direction extents
(the shape) and an action defined on all of R^n_{>=0} by clamping each
coordinate into [0, r_i].  The package provides the cubical structure
maps (faces, degeneracies, connections, reverses), direction-wise Moore
composition with strict and lenient face matching, tensor products over
product spaces, an expression DSL for defining actions, JSON/CSV/SVG
input and output, and a seeded law lab that empirically classifies the
structure-map laws.
"""
from .compose import compose_lenient, compose_strict, multi_compose
from .core import (
    ComposeNode,
    ConnectionNode,
    DegeneracyNode,
    Equality,
    EqualityOracle,
    EqualityWitness,
    Euclidean,
    FaceNode,
    MooreCube,
    Point,
    Primitive,
    Product,
    ReassociateNode,
    ReverseNode,
    Shape,
    Space,
    TensorNode,
    make_cube,
    point_cube,
)
from .cubefile import cube_from_dict, cube_to_dict, load_cube, save_cube
from .errors import (
    BadIndex,
    CompositionUndefined,
    CubeFileError,
    DimensionMismatch,
    EvalError,
    InvalidShape,
    MooreError,
    ParseError,
    UnknownLaw,
)
from .expr import compile_expr, cube_from_exprs, eval_expr, parse_expr, to_source
from .generators import (
    extend_chain,
    gen_composable_pair,
    gen_cube,
    quadrants,
    subdivide,
)
from .lawlab import (
    LAW_IDS,
    Classification,
    InstanceResult,
    LawOutcome,
    LawReport,
    Witness,
    check_instance,
    check_law,
    reevaluate_witness,
    run_suite,
)
from .ops import Sign, connection, degeneracy, face, reverse
from .svg import render_svg, save_svg
from .tensor import reassociate, tensor

__version__ = "0.1.0"

__all__ = [
    "BadIndex",
    "Classification",
    "ComposeNode",
    "CompositionUndefined",
    "ConnectionNode",
    "CubeFileError",
    "DegeneracyNode",
    "DimensionMismatch",
    "Equality",
    "EqualityOracle",
    "EqualityWitness",
    "Euclidean",
    "EvalError",
    "FaceNode",
    "InstanceResult",
    "InvalidShape",
    "LAW_IDS",
    "LawOutcome",
    "LawReport",
    "MooreCube",
    "MooreError",
    "ParseError",
    "Point",
    "Primitive",
    "Product",
    "ReassociateNode",
    "ReverseNode",
    "Shape",
    "Sign",
    "Space",
    "TensorNode",
    "UnknownLaw",
    "Witness",
    "check_instance",
    "check_law",
    "compile_expr",
    "compose_lenient",
    "compose_strict",
    "connection",
    "cube_from_dict",
    "cube_from_exprs",
    "cube_to_dict",
    "degeneracy",
    "eval_expr",
    "extend_chain",
    "face",
    "gen_composable_pair",
    "gen_cube",
    "load_cube",
    "make_cube",
    "multi_compose",
    "parse_expr",
    "point_cube",
    "quadrants",
    "reassociate",
    "reevaluate_witness",
    "render_svg",
    "reverse",
    "run_suite",
    "save_cube",
    "save_svg",
    "subdivide",
    "tensor",
    "to_source",
]
