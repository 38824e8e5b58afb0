"""
Seeded inputs for the certification benchmark.

Each workload turns a seed into a list of cases.  A case holds what
`certify_strongly_essential` receives (a `Triangulation`, never a
skeleton, so `build_skeleton` runs inside the timed call), the budget and
methods it is certified with, and the known truth the gate checks.  All
input generation (moves, relabelling, walks) happens here, in set-up.
Moves are called through their module, so that set-up can be traced.
"""
import hashlib
import importlib.resources
import json
import random
from itertools import combinations

import essedge.certify
from essedge import (Budget, MoveError, ShapeAssignment, build_skeleton,
                     moves, parse_shapes, parse_triangulation)
from essedge.certify import ALL_METHODS

# the budget of acceptance criterion A5 (tests/test_acceptance.py)
A5_BUDGET = Budget(coset_nodes=100, rewrite_steps=100, quotient_degree=2,
                   quotient_nodes=100, factor_depth=3, factor_nodes=200)
A5_METHODS = ("angle", "homology", "group")
CLOSED_BUDGET = Budget(coset_nodes=2000, rewrite_steps=400,
                       quotient_degree=3, quotient_nodes=4000,
                       factor_depth=4, factor_nodes=1000)

RELABELLINGS = 100
# The closed walk stays within WALK_MIN..WALK_MAX tetrahedra and certifies
# its distinct WALK_SIZE-tetrahedron states.  States of one size cost
# alike, so a run's median does not hinge on the mix of sizes a seed draws;
# 5- and 6-tetrahedron states take 3-10 s each, a handful per run.
WALK_MIN, WALK_MAX, WALK_SIZE, WALK_STATES = 2, 4, 3, 40


class Case:
    """One certification input with its truth."""

    def __init__(self, tri, budget, methods, shapes=None, degree2_edge=None,
                 strongly_essential=False):
        self.tri = tri
        self.budget = budget
        self.methods = methods
        self.shapes = shapes
        # a pillow output: this edge must have degree 2, and the output must
        # never be certified strongly essential
        self.degree2_edge = degree2_edge
        # the input must be certified strongly essential
        self.strongly_essential = strongly_essential
        self.key = input_key(tri)

    def certify(self):
        """Certify through the module attribute, so that a traced wrapper
        bound there is the one called."""
        return essedge.certify.certify_strongly_essential(
            self.tri, self.budget, shapes=self.shapes, methods=self.methods)


def input_key(tri):
    text = json.dumps(tri.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fixture(name):
    return (importlib.resources.files("essedge") / "fixtures"
            / name).read_text()


def pillow_outputs(m136):
    """Every valid 0-2 pillow output of m136, in site order, with the
    index of its degree-2 edge."""
    skeleton = build_skeleton(m136)
    outputs = []
    for e in skeleton.edge_classes:
        for i, j in combinations(range(e.degree), 2):
            try:
                moved, record = moves.pillow_0_2(m136, e.index, (i, j),
                                                 skeleton)
            except MoveError:
                continue
            outputs.append((moved, record.degree2_edge))
    return outputs


def _shuffled_pillows(seed, budget, methods):
    outputs = pillow_outputs(parse_triangulation(fixture("m136.tri")))
    random.Random(seed).shuffle(outputs)
    return [Case(tri, budget, methods, degree2_edge=d) for tri, d in outputs]


def pillow_sweep(seed):
    """All 123 pillow outputs at the A5 budget; the seed shuffles them."""
    return _shuffled_pillows(seed, A5_BUDGET, A5_METHODS)


def pillow_deep(seed):
    """The pillow outputs in seeded order at the default budget."""
    return _shuffled_pillows(seed, Budget(), ALL_METHODS)


def cusped_geometry(seed):
    """Seeded tetrahedron relabellings of m136, each with the fixture's
    exact shapes permuted to match."""
    m136 = parse_triangulation(fixture("m136.tri"))
    shapes = list(parse_shapes(fixture("m136_shapes.txt")).shapes)
    rng = random.Random(seed)
    n = m136.tet_count
    cases = []
    for _ in range(RELABELLINGS):
        tet_map = list(range(n))
        rng.shuffle(tet_map)
        moved = [None] * n
        for t in range(n):
            moved[tet_map[t]] = shapes[t]
        cases.append(Case(m136.relabelled(tet_map), Budget(), ALL_METHODS,
                          shapes=ShapeAssignment(moved),
                          strongly_essential=True))
    return cases


def closed_walk(seed):
    """Distinct WALK_SIZE-tetrahedron states of a seeded Pachner 2-3/3-2
    walk from q8 that stays within WALK_MIN..WALK_MAX tetrahedra."""
    rng = random.Random(seed)
    tri = parse_triangulation(fixture("q8.tri"))
    cases, seen = [], set()
    while len(cases) < WALK_STATES:
        skeleton = build_skeleton(tri)
        if skeleton.classification != "closed_manifold_1vertex":
            raise RuntimeError("walk left the one-vertex closed case")
        if tri.tet_count == WALK_SIZE:
            case = Case(tri, CLOSED_BUDGET, ALL_METHODS)
            if case.key not in seen:
                seen.add(case.key)
                cases.append(case)
        up = ([fc.index for fc in skeleton.face_classes
               if len({t for t, _ in fc.representatives}) == 2]
              if tri.tet_count < WALK_MAX else [])
        down = ([e.index for e in skeleton.edge_classes
                 if e.degree == 3 and len({t for t, _ in e.corners}) == 3]
                if tri.tet_count > WALK_MIN else [])
        choices = [(move, sites) for move, sites in (
            (moves.pachner_2_3, up), (moves.pachner_3_2, down)) if sites]
        move, sites = rng.choice(choices)
        try:
            tri, _record = move(tri, rng.choice(sites), skeleton)
        except MoveError:
            continue
    return cases


WORKLOADS = {
    "pillow_sweep": pillow_sweep,
    "pillow_deep": pillow_deep,
    "cusped_geometry": cusped_geometry,
    "closed_walk": closed_walk,
}
