"""
Command-line interface: parse and validate triangulations, print skeleton
tables, run the angle, group, shape and certification pipelines.

Exit codes: `validate` returns 0 exactly for a valid closed triangulation;
`angles` and `certify` return 0 for a positive answer, 1 for a negative
one, 2 for unknown; errors exit above 2.
"""
import argparse
import json
import sys
from fractions import Fraction

from .angles import solve_angle_lp, enumerate_taut
from .certify import (certify_essential, certify_strongly_essential,
                      CertifyError, ALL_METHODS)
from .decide import Budget
from .fundamental import SpineData, presentation_closed
from .moves import pachner_2_3, pachner_3_2, pillow_0_2, MoveError
from .presentation import homology, simplify_presentation, word_to_string
from .shapes import (parse_shapes, verify_shapes, solve_shapes_newton,
                     completeness_products, ShapeError, NewtonError)
from .skeleton import build_skeleton, SkeletonError
from .triangulation import parse_triangulation, ParseError

EXIT_ERROR = 3


def _load(path):
    try:
        with open(path) as handle:
            return parse_triangulation(handle.read())
    except OSError as e:
        raise CliFailure("cannot read %s: %s" % (path, e))
    except ParseError as e:
        raise CliFailure("parse error in %s: %s" % (path, e))


def _read_shapes(path):
    try:
        with open(path) as handle:
            return parse_shapes(handle.read())
    except OSError as e:
        raise CliFailure("cannot read %s: %s" % (path, e))


class CliFailure(Exception):
    pass


def _emit(args, payload, text):
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text)


def cmd_validate(args):
    tri = _load(args.input)
    report = tri.validate()
    payload = {"valid": report.valid, "violations": report.messages()}
    text = "valid" if report.valid else "\n".join(report.messages())
    _emit(args, payload, text)
    return 0 if report.valid else 1


def cmd_info(args):
    tri = _load(args.input)
    skeleton = build_skeleton(tri)
    lines = ["tetrahedra: %d" % tri.tet_count,
             "vertices: %d   edges: %d   faces: %d   classification: %s"
             % (skeleton.vertex_count, skeleton.edge_count,
                skeleton.face_count, skeleton.classification)]
    for link in skeleton.vertex_links:
        lines.append("vertex %d link: %s (chi = %d)"
                     % (link.index, link.surface_kind,
                        link.euler_characteristic))
    lines.append("")
    lines.append("Edge  Degree  Cycle")
    for e in skeleton.edge_classes:
        cycle = ", ".join("%d (%d%d)" % (t, a, b) for t, (a, b) in e.corners)
        lines.append("%4d  %6d  %s" % (e.index, e.degree, cycle))
    payload = {
        "tets": tri.tet_count,
        "vertices": skeleton.vertex_count,
        "classification": skeleton.classification,
        "links": [{"vertex": l.index, "kind": l.surface_kind,
                   "euler_characteristic": l.euler_characteristic}
                  for l in skeleton.vertex_links],
        "edges": [{"index": e.index, "degree": e.degree,
                   "cycle": [[t, [a, b]] for t, (a, b) in e.corners]}
                  for e in skeleton.edge_classes],
    }
    _emit(args, payload, "\n".join(lines))
    return 0


def _fraction_str(x):
    return str(Fraction(x))


def cmd_angles(args):
    tri = _load(args.input)
    skeleton = build_skeleton(tri)
    if args.taut:
        if args.limit is not None and args.limit < 1:
            raise CliFailure("--limit must be at least 1")
        found = enumerate_taut(skeleton, limit=args.limit)
        payload = {"taut_count": len(found),
                   "taut": [[_fraction_str(x) for x in tv.entries]
                            for tv in found]}
        text = "taut structures: %d\n" % len(found) + "\n".join(
            " ".join(str(int(x)) for x in tv.entries) for tv in found)
        _emit(args, payload, text)
        return 0 if found else 1
    mode = "strict" if args.strict else "semi"
    outcome = solve_angle_lp(skeleton, mode)
    payload = {"mode": mode, "status": outcome.status}
    if outcome.optimum is not None:
        payload["optimum"] = _fraction_str(outcome.optimum)
    if outcome.witness is not None:
        payload["witness"] = [_fraction_str(x)
                              for x in outcome.witness.entries]
    if mode == "strict":
        text = "strict: %s (t* = %s)" % (outcome.status, outcome.optimum)
    else:
        text = "semi: %s" % outcome.status
    if outcome.feasible and outcome.witness is not None:
        text += "\nwitness: " + " ".join(_fraction_str(x)
                                         for x in outcome.witness.entries)
    _emit(args, payload, text)
    return 0 if outcome.feasible else 1


def cmd_pi1(args):
    tri = _load(args.input)
    skeleton = build_skeleton(tri)
    spine = None
    if skeleton.classification == "closed_manifold_1vertex":
        presentation = presentation_closed(skeleton)
        flavor = "closed (edge generators)"
    else:
        spine = SpineData(skeleton)
        presentation = spine.presentation
        flavor = "spine (face-class generators)"
    if args.simplify:
        presentation = simplify_presentation(presentation)
    invariants = homology(presentation)
    lines = ["presentation (%s): %d generators" % (
        flavor, presentation.generator_count)]
    for r in presentation.relators:
        lines.append("  relator: %s" % word_to_string(r))
    lines.append("homology invariants: %s" % (invariants,))
    payload = {"generators": presentation.generator_count,
               "relators": [word_to_string(r) for r in presentation.relators],
               "homology": list(invariants)}
    if args.peripheral:
        spine = spine or SpineData(skeleton)
        payload["peripheral"] = {}
        for link in skeleton.vertex_links:
            if link.surface_kind != "torus":
                continue
            words = spine.peripheral(link.index).words
            payload["peripheral"][str(link.index)] = [
                word_to_string(w) for w in words]
            lines.append("peripheral words at vertex %d: %s, %s"
                         % (link.index, word_to_string(words[0]),
                            word_to_string(words[1])))
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_shapes(args):
    tri = _load(args.input)
    skeleton = build_skeleton(tri)
    if args.verify:
        shapes = _read_shapes(args.verify)
        report = verify_shapes(skeleton, shapes)
        completeness = completeness_products(skeleton, shapes)
        payload = {
            "products": [str(p) for p in report.edge_products],
            "argument_sums": report.edge_argument_sums,
            "flat": report.flat,
            "completeness": [str(c) for c in completeness],
            "passed": report.passed,
        }
        lines = ["edge products: %s" % payload["products"],
                 "argument sums (pi units): %s" % [
                     "%.9f" % s for s in report.edge_argument_sums],
                 "flat tetrahedra: %s" % report.flat,
                 "completeness products: %s" % payload["completeness"],
                 "passed: %s" % report.passed]
        _emit(args, payload, "\n".join(lines))
        return 0 if report.passed else 1
    try:
        solution = solve_shapes_newton(skeleton, tol=args.tol,
                                       max_iter=args.iters)
    except (NewtonError, ShapeError) as e:
        _emit(args, {"status": "failed", "error": str(e)},
              "newton failed: %s" % e)
        return 1
    payload = {"status": "converged",
               "shapes": [[z.real, z.imag] for z in solution]}
    text = "\n".join("tet %d: %.15g + %.15gi" % (t, z.real, z.imag)
                     for t, z in enumerate(solution))
    _emit(args, payload, text)
    return 0


def cmd_move(args):
    tri = _load(args.input)
    skeleton = build_skeleton(tri)
    try:
        if args.two_three is not None:
            out, record = pachner_2_3(tri, args.two_three, skeleton)
        elif args.three_two is not None:
            out, record = pachner_3_2(tri, args.three_two, skeleton)
        else:
            parts = args.zero_two.split(",")
            if len(parts) != 3:
                raise CliFailure("--zero-two wants EDGE,POS1,POS2")
            edge, i, j = (int(p) for p in parts)
            out, record = pillow_0_2(tri, edge, (i, j), skeleton)
    except MoveError as e:
        raise CliFailure(str(e))
    doc = json.dumps(out.to_json(), indent=2)
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(doc + "\n")
        except OSError as e:
            raise CliFailure("cannot write %s: %s" % (args.output, e))
    payload = {"kind": record.kind, "created": record.created,
               "tets": out.tet_count}
    text = "%s move: %d tetrahedra, created %s%s" % (
        record.kind, out.tet_count, record.created,
        ", written to %s" % args.output if args.output else "")
    if not args.output and not args.json:
        text += "\n" + doc
    _emit(args, payload, text)
    return 0


def cmd_certify(args):
    import os
    tri = _load(args.input)
    spec = os.environ.get("ESSEDGE_BUDGET", "")
    if args.budget:
        spec = spec + "," + args.budget if spec else args.budget
    try:
        budgets = Budget.parse(spec)
    except ValueError as e:
        raise CliFailure(str(e))
    methods = tuple(args.methods.split(",")) if args.methods else ALL_METHODS
    shapes = _read_shapes(args.shapes) if args.shapes else None
    try:
        if args.strong:
            verdict = certify_strongly_essential(tri, budgets, shapes,
                                                 methods)
            answer = verdict.strongly_essential
            what = "strongly essential"
        else:
            verdict = certify_essential(tri, budgets, shapes, methods)
            answer = verdict.essential
            what = "essential"
    except CertifyError as e:
        raise CliFailure(str(e))
    lines = ["%s: %s" % (what, answer)]
    for ev in verdict.edge_verdicts:
        lines.append("  edge %d: %s (certificate: %s)"
                     % (ev.edge, ev.essential, ev.certificate.get("kind")))
    for (i, j), (state, cert) in sorted(verdict.pair_table.items()):
        lines.append("  pair (%d, %d): %s (certificate: %s)"
                     % (i, j, state, cert.get("kind")))
    for entry in verdict.method_log:
        lines.append("  # %s" % entry)
    _emit(args, verdict.to_json(), "\n".join(lines))
    return {"yes": 0, "no": 1, "unknown": 2}[answer]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="essedge",
        description="Essential and strongly essential triangulations of "
                    "3-manifolds")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--seed", type=int, default=None,
                        help="accepted and ignored; all searches are "
                             "deterministic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the gluing data")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", help="skeleton tables (edges, links)")
    p.add_argument("input")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("angles", help="angle structure LPs")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--semi", action="store_true")
    group.add_argument("--strict", action="store_true")
    group.add_argument("--taut", action="store_true")
    p.add_argument("--limit", type=int, default=None,
                   help="cap on enumerated taut structures")
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("pi1", help="fundamental group data")
    p.add_argument("input")
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--peripheral", action="store_true")
    p.set_defaults(func=cmd_pi1)

    p = sub.add_parser("shapes", help="gluing equations")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--verify", metavar="FILE",
                       help="exact shapes to verify")
    group.add_argument("--solve", action="store_true",
                       help="Newton-solve the log equations")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--iters", type=int, default=50)
    p.set_defaults(func=cmd_shapes)

    p = sub.add_parser("move", help="Pachner and pillow moves")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--two-three", type=int, metavar="FACE")
    group.add_argument("--three-two", type=int, metavar="EDGE")
    group.add_argument("--zero-two", metavar="EDGE,POS1,POS2")
    p.add_argument("-o", "--output", help="write the result (JSON format)")
    p.set_defaults(func=cmd_move)

    p = sub.add_parser("certify", help="essential / strongly essential")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--essential", action="store_true")
    group.add_argument("--strong", action="store_true")
    p.add_argument("--budget", default="",
                   help="key=value,... (%s); ESSEDGE_BUDGET supplies "
                        "defaults" % ",".join(sorted(Budget.DEFAULTS)))
    p.add_argument("--methods", default="",
                   help="comma list from: %s" % ",".join(ALL_METHODS))
    p.add_argument("--shapes", metavar="FILE",
                   help="exact shape solution for the geometric tier")
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliFailure as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    except (SkeletonError, ShapeError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
