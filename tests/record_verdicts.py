"""
Golden verdict JSON: a fixed set of certifications at a small budget.

    PYTHONPATH=src python tests/record_verdicts.py [--diff]

writes tests/data/verdicts.json, which tests/test_verdicts.py compares
with the current output byte for byte.  With --diff it writes nothing and
prints every record whose JSON would change, as input, methods and mode,
with the parts that change: its answers, its certificates or its
method_log.  The inputs are the bundled
fixtures m136, fig8 and q8 under every subset of the methods, m136 with
its exact shapes under four subsets that reach the geometric tier, two
seeded tetrahedron relabellings of m136 with its shapes permuted to
match under geometry alone and under all methods, two pillow outputs
of m136 under the angle, homology and group methods and under all of
them, and two pillow outputs of m136 whose flat cluster branches, with
m136's shapes extended by -1 on both pillow tetrahedra, under geometry
alone and under all methods; each is certified essential and strongly
essential.  --diff exits 1 when any record would change, so that it can
gate a commit.  Re-record only for a change that means to alter
verdicts, and list what changed in its description.
"""
import importlib.resources
import json
import random
import sys
from itertools import combinations
from pathlib import Path

from essedge import (Budget, ShapeAssignment, build_skeleton, parse_shapes,
                     parse_triangulation)
from essedge.certify import (ALL_METHODS, certify_essential,
                             certify_strongly_essential)
from essedge.moves import pillow_0_2

GOLDEN = Path(__file__).resolve().parent / "data" / "verdicts.json"
BUDGET = Budget(coset_nodes=100, rewrite_steps=100, quotient_degree=2,
                quotient_nodes=100, factor_depth=3, factor_nodes=200)
METHOD_SUBSETS = [methods for k in range(len(ALL_METHODS) + 1)
                  for methods in combinations(ALL_METHODS, k)]
# each of these develops m136's exact shapes, the slowest step recorded
GEOMETRY_SUBSETS = (("geometry",), ("angle", "geometry"),
                    ("geometry", "group"), ALL_METHODS)
PILLOW_SITES = ((0, (0, 1)), (2, (0, 2)))
# pillow outputs with exact shapes, m136's and -1 on both pillow
# tetrahedra, whose flat cluster (3, 5, 7, 8) branches
BRANCHING_SITES = ((3, (2, 3)), (6, (1, 2)))
RELABELLING_SEEDS = (1, 2)


def _fixture(name):
    return (importlib.resources.files("essedge") / "fixtures"
            / name).read_text()


def relabelled(tri, shapes, seed):
    """A seeded tetrahedron relabelling of tri with its shapes moved to
    match."""
    tet_map = list(range(tri.tet_count))
    random.Random(seed).shuffle(tet_map)
    moved = [None] * tri.tet_count
    for t, z in enumerate(shapes.shapes):
        moved[tet_map[t]] = z
    return tri.relabelled(tet_map), ShapeAssignment(moved)


def inputs():
    """(name, triangulation, shapes, methods) for every certification."""
    m136 = parse_triangulation(_fixture("m136.tri"))
    shapes = parse_shapes(_fixture("m136_shapes.txt"))
    fixtures = (("m136", m136),
                ("fig8", parse_triangulation(_fixture("fig8.tri"))),
                ("q8", parse_triangulation(_fixture("q8.tri"))))
    out = [(name, tri, None, methods) for methods in METHOD_SUBSETS
           for name, tri in fixtures]
    out += [("m136+shapes", m136, shapes, methods)
            for methods in GEOMETRY_SUBSETS]
    for seed in RELABELLING_SEEDS:
        tri, moved = relabelled(m136, shapes, seed)
        out += [("m136 relabelled %d" % seed, tri, moved, methods)
                for methods in (("geometry",), ALL_METHODS)]
    skeleton = build_skeleton(m136)
    for edge, sites in PILLOW_SITES:
        tri, _record = pillow_0_2(m136, edge, sites, skeleton)
        name = "m136 pillow %d %s" % (edge, sites)
        out += [(name, tri, None, ("angle", "homology", "group")),
                (name, tri, None, ALL_METHODS)]
    extended = ShapeAssignment(list(shapes.shapes) + [-1, -1])
    for edge, sites in BRANCHING_SITES:
        tri, _record = pillow_0_2(m136, edge, sites, skeleton)
        name = "m136 pillow %d %s+shapes" % (edge, sites)
        out += [(name, tri, extended, methods)
                for methods in (("geometry",), ALL_METHODS)]
    return out


def records():
    """The golden file's records for the current code, as JSON data."""
    out = []
    for name, tri, shapes, methods in inputs():
        for mode, certify in (("essential", certify_essential),
                              ("strongly", certify_strongly_essential)):
            verdict = certify(tri, BUDGET, shapes, methods)
            out.append(json.loads(json.dumps(
                {"input": name, "methods": list(methods), "mode": mode,
                 "verdict": verdict.to_json()}, default=str)))
    return out


def as_text(records):
    # one certification a line, so that a diff names the ones that changed
    return "[\n%s\n]\n" % ",\n".join(json.dumps(r) for r in records)


def verdicts_text():
    """The golden file's text for the current code."""
    return as_text(records())


# what a record's verdict says, part by part
PARTS = (
    ("answers", lambda v: (v["essential"], v["strongly_essential"],
                           [e["essential"] for e in v["edges"]],
                           [(p["pair"], p["parallel"]) for p in v["pairs"]])),
    ("certificates", lambda v: ([e["certificate"] for e in v["edges"]],
                                [p["certificate"] for p in v["pairs"]])),
    ("method_log", lambda v: v["method_log"]),
)


def differences(current, golden):
    """((input, methods, mode), changed parts) for every record whose JSON
    text differs between two lists of records, in the order of current."""
    def key(record):
        return record["input"], tuple(record["methods"]), record["mode"]

    before = {key(r): r for r in golden}
    out = []
    for record in current:
        old = before.pop(key(record), None)
        if old is None:
            out.append((key(record), ["new record"]))
        elif json.dumps(old) != json.dumps(record):
            out.append((key(record), [
                name for name, part in PARTS
                if json.dumps(part(old["verdict"]))
                != json.dumps(part(record["verdict"]))] or ["key order"]))
    out += [(k, ["record removed"]) for k in before]
    return out


def main(argv):
    if argv == ["--diff"]:
        golden = json.loads(GOLDEN.read_text())
        changed = differences(records(), golden)
        for (name, methods, mode), parts in changed:
            print("%s %s %s: %s" % (name, list(methods), mode,
                                    ", ".join(parts)))
        print("%d of %d records would change" % (len(changed), len(golden)),
              file=sys.stderr)
        if changed:
            sys.exit(1)
    elif not argv:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(verdicts_text())
        print("wrote %s" % GOLDEN, file=sys.stderr)
    else:
        sys.exit("usage: record_verdicts.py [--diff]")


if __name__ == "__main__":
    main(sys.argv[1:])
