"""Essential and strongly essential triangulations of 3-manifolds."""

from .triangulation import (Perm4, Triangulation, ValidationReport,
                            ParseError, parse_triangulation, parse_table,
                            parse_json, to_table, are_isomorphic)
from .skeleton import (EdgeClass, FaceClass, VertexLink, SkeletonSummary,
                       SkeletonError, build_skeleton, cycles_match)
from .angles import (AngleVector, AngleSystem, LPOutcome, build_angle_system,
                     solve_angle_lp, enumerate_taut, formal_gauss_bonnet)
from .moves import (MoveRecord, MoveError, pachner_2_3, pachner_3_2,
                    pillow_0_2, extend_taut)
from .presentation import (Presentation, homology, word_image,
                           simplify_presentation)
from .fundamental import (SpineData, PeripheralSystem, presentation_closed,
                          presentation_spine, peripheral_words)
from .coset import CosetTable, coset_enumeration
from .decide import (Budget, GroupVerdict, decide_word, decide_membership,
                     decide_double_coset)
from .gaussian import GaussianRational, parse_gaussian
from .shapes import (ShapeAssignment, ShapeError, NewtonError, parse_shapes,
                     verify_shapes, completeness_products,
                     solve_shapes_newton, shapes_to_angles)
from .develop import DevelopReport, develop_and_scan
from .certify import (EdgeVerdict, TriangulationVerdict, CertifyError,
                      certify_essential, certify_strongly_essential)

__all__ = [
    "Perm4", "Triangulation", "ValidationReport", "ParseError",
    "parse_triangulation", "parse_table", "parse_json", "to_table",
    "are_isomorphic", "EdgeClass", "FaceClass", "VertexLink",
    "SkeletonSummary", "SkeletonError", "build_skeleton", "cycles_match",
    "AngleVector", "AngleSystem", "LPOutcome", "build_angle_system",
    "solve_angle_lp", "enumerate_taut", "formal_gauss_bonnet",
    "MoveRecord", "MoveError", "pachner_2_3", "pachner_3_2", "pillow_0_2",
    "extend_taut", "Presentation", "homology", "word_image",
    "simplify_presentation", "SpineData", "PeripheralSystem",
    "presentation_closed", "presentation_spine", "peripheral_words",
    "CosetTable", "coset_enumeration", "Budget", "GroupVerdict",
    "decide_word", "decide_membership", "decide_double_coset",
    "GaussianRational", "parse_gaussian", "ShapeAssignment", "ShapeError",
    "NewtonError", "parse_shapes", "verify_shapes", "completeness_products",
    "solve_shapes_newton", "shapes_to_angles", "DevelopReport",
    "develop_and_scan", "EdgeVerdict", "TriangulationVerdict",
    "CertifyError", "certify_essential", "certify_strongly_essential",
]
