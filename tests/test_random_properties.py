"""
Randomised property suites over small closed triangulations: partition and
Euler invariants, Pachner round trips with homology preservation, exact LP
witnesses, the one angle LP and the one abelianisation against reference
computations, and certificate replay; over ideal inputs, the edges' H1
classes against the group decider.
"""
import random
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest

import essedge.certify
from essedge import (Presentation, Triangulation, Perm4, build_skeleton,
                     are_isomorphic, parse_table, SkeletonError)
from essedge.angles import build_angle_system, solve_angle_lp
from essedge.certify import ALL_METHODS, certify_strongly_essential
from essedge.decide import (Budget, abelian_separation, decide_word,
                            decide_membership,
                            decide_double_coset, replay_word_verdict,
                            replay_membership_verdict,
                            replay_double_coset_verdict)
from essedge.fundamental import EdgeEnd, presentation_spine
from essedge.linprog import solve_lp
from essedge.moves import pachner_2_3, pachner_3_2, pillow_0_2, MoveError
from essedge.presentation import (homology, word_image,
                                  word_from_string as words)
from essedge.snf import abelian_invariants

from conftest import cokernel_reducer

ALL_PERMS = [Perm4(p) for p in permutations(range(4))]


def random_closed_triangulation(rng, max_tets=6):
    """A random valid closed triangulation (singular pseudo-manifold) with
    every face glued; retries until the skeleton builds."""
    while True:
        n = rng.randint(1, max_tets)
        slots = [(t, f) for t in range(n) for f in range(4)]
        rng.shuffle(slots)
        rows = [[None] * 4 for _ in range(n)]
        ok = True
        while slots:
            a = slots.pop()
            b = slots.pop()
            sigma = rng.choice([p for p in ALL_PERMS if p(a[1]) == b[1]])
            if a == b or (a[0] == b[0] and a[1] == b[1]):
                ok = False
                break
            if rows[a[0]][a[1]] is not None or rows[b[0]][b[1]] is not None:
                ok = False
                break
            if a[0] == b[0] and sigma(a[1]) == a[1]:
                ok = False
                break
            rows[a[0]][a[1]] = (b[0], sigma)
            rows[b[0]][b[1]] = (a[0], sigma.inverse())
        if not ok:
            continue
        tri = Triangulation(n, rows)
        if not tri.validate().valid or not tri.is_connected():
            continue
        try:
            build_skeleton(tri)
        except SkeletonError:
            continue
        return tri


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260808)
    return [random_closed_triangulation(rng) for _ in range(100)]


def test_partition_and_euler_invariants(corpus):
    for tri in corpus:
        skeleton = build_skeleton(tri)
        assert sum(skeleton.degrees()) == 6 * tri.tet_count
        assert skeleton.face_count == 2 * tri.tet_count
        seen = set()
        for e in skeleton.edge_classes:
            assert e.degree >= 1
            for t, (a, b) in e.corners:
                key = (t, frozenset((a, b)))
                assert key not in seen
                seen.add(key)
        assert len(seen) == 6 * tri.tet_count
        # V - E + F - T equals the total vertex-link defect
        total = sum(1 - link.euler_characteristic / 2
                    for link in skeleton.vertex_links)
        assert skeleton.euler_characteristic() == total


def _side_direction(tv, flag, f):
    """The direction a corner triangle with the given orientation flag
    induces on its side f: its sorted corners (w1, w2, w3) bound it as
    w1 -> w2 -> w3 -> w1 for flag +1, the other way round for -1."""
    w = sorted(u for u in range(4) if u != tv[1])
    cycle = [(w[0], w[1]), (w[1], w[2]), (w[2], w[0])]
    p, q = next(pq for pq in cycle if f not in pq)
    return (p, q) if flag > 0 else (q, p)


def test_link_walk_orientation_and_tree(corpus, m136):
    """Over the seeded corpus and the pillow outputs of m136, each link's
    walk yields a coherent orientation (two triangles glued along a side
    induce opposite directions on it), a spanning tree whose every parent
    chain is made of glued sides and ends at the basepoint, and one cotree
    side per independent cycle of the link's dual graph."""
    for tri in corpus + list(_pillow_outputs(m136)):
        for link in build_skeleton(tri).vertex_links:
            structure = link.structure
            gluing = structure.side_gluing
            if link.orientable:
                orient = structure.orient
                for (tv, f), (tv2, f2, sigma) in gluing.items():
                    p, q = _side_direction(tv, orient[tv], f)
                    assert _side_direction(tv2, orient[tv2], f2) == (
                        sigma(q), sigma(p))
            basepoint = structure.triangles[0]
            for tv in structure.triangles:
                steps = 0
                while structure.parent[tv] is not None:
                    up = structure.parent[tv]
                    assert gluing[up][0] == tv
                    tv = up[0]
                    steps += 1
                    assert steps < len(structure.triangles)
                assert tv == basepoint
            cycles = len(gluing) // 2 - len(structure.triangles) + 1
            assert len(structure.cotree_sides()) == cycles


def test_relabelling_invariance(corpus):
    rng = random.Random(99)
    for tri in corpus[:25]:
        n = tri.tet_count
        perm = list(range(n))
        rng.shuffle(perm)
        maps = [rng.choice(ALL_PERMS) for _ in range(n)]
        relabelled = tri.relabelled(perm, maps)
        a = build_skeleton(tri)
        b = build_skeleton(relabelled)
        assert sorted(a.degrees()) == sorted(b.degrees())
        assert a.vertex_count == b.vertex_count
        assert a.classification == b.classification
        kinds = sorted(l.surface_kind for l in a.vertex_links)
        assert kinds == sorted(l.surface_kind for l in b.vertex_links)


def test_pachner_round_trip_and_homology(corpus):
    checked = 0
    for tri in corpus:
        skeleton = build_skeleton(tri)
        site = next((fc.index for fc in skeleton.face_classes
                     if len({r[0] for r in fc.representatives}) == 2), None)
        if site is None:
            continue
        base_h1 = homology(presentation_spine(skeleton))
        moved, record = pachner_2_3(tri, site, skeleton)
        assert moved.validate().valid
        mid = build_skeleton(moved)
        assert homology(presentation_spine(mid)) == base_h1
        t, (a, b) = record.new_edge_corner
        edge = mid.edge_lookup[(t, a, b)][0]
        back, _ = pachner_3_2(moved, edge, mid)
        assert back.validate().valid
        assert are_isomorphic(back, tri) is not None
        assert homology(presentation_spine(build_skeleton(back))) == base_h1
        checked += 1
    assert checked >= 50


def test_lp_witnesses_have_zero_residual(corpus):
    for tri in corpus[:40]:
        skeleton = build_skeleton(tri)
        system = build_angle_system(skeleton)
        for mode in ("semi", "strict"):
            outcome = solve_angle_lp(skeleton, mode)
            if outcome.witness is not None:
                assert all(r == 0 for r in system.residual(outcome.witness))


def _strict_reference(system):
    """(status, optimum) of the strict LP solved on its own: maximise t
    with every angle >= t."""
    rowsum = [sum(row) for row in system.matrix]
    status, _, value = solve_lp(
        [row + [k, -k] for row, k in zip(system.matrix, rowsum)],
        system.rhs, [0] * system.columns + [-1, 1])
    if status != "optimal":
        return "infeasible", None
    return ("feasible" if -value > 0 else "infeasible"), -value


def _pillow_outputs(m136):
    skeleton = build_skeleton(m136)
    for e in skeleton.edge_classes:
        for i, j in combinations(range(e.degree), 2):
            try:
                yield pillow_0_2(m136, e.index, (i, j), skeleton)[0]
            except MoveError:
                continue


def test_one_lp_and_one_abelianisation_match_references(corpus, m136, fig8,
                                                         q8):
    """Over the fixtures, the 123 pillow outputs of m136 and the seeded
    corpus: semi feasibility is the feasibility of the angle equations,
    strict status and optimum are the strict LP's own, homology matches
    the Smith invariants of the relator matrix, and word images vanish on
    the words the reference cokernel reduction sends to zero, two words
    having equal images exactly when the reference reduces them alike."""
    pillows = list(_pillow_outputs(m136))
    assert len(pillows) == 123
    rng = random.Random(5)
    for tri in [m136, fig8, q8] + pillows + corpus:
        skeleton = build_skeleton(tri)
        system = build_angle_system(skeleton)
        semi = solve_angle_lp(skeleton, "semi")
        status, _, _ = solve_lp(system.matrix, system.rhs,
                                [0] * system.columns)
        assert semi.feasible == (status == "optimal")
        strict = solve_angle_lp(skeleton, "strict")
        assert (strict.status, strict.optimum) == _strict_reference(system)

        pres = presentation_spine(skeleton)
        n = pres.generator_count
        assert homology(pres) == abelian_invariants(pres.relator_matrix(), n)
        reduce_vec = cokernel_reducer(pres.relator_matrix(), n)
        probes = list(pres.relators) + [(g,) * k for g in range(1, n + 1)
                                        for k in (1, 2, 3)]
        probes += [(g, -h) for g, h in combinations(range(1, n + 1), 2)]
        probes += [tuple(rng.choice([-1, 1]) * rng.randint(1, n)
                         for _ in range(rng.randint(1, 8)))
                   for _ in range(8 if n else 0)]
        pairs = set()
        for w in probes:
            image = word_image(pres, w)
            reduced = reduce_vec(pres.exponent_vector(w))
            assert any(image) == any(reduced)
            pairs.add((image, reduced))
        # equal images exactly when equal reductions
        assert (len({image for image, _ in pairs}) == len(pairs)
                == len({reduced for _, reduced in pairs}))


# ideal triangulations with torus cusps from a seeded random search over
# small gluing tables.  The one-cusped ones have H1 = Z/5 + Z, Z/3 + Z,
# Z/7 + Z and Z + Z + Z: their edge classes modulo the cusp are not all of
# order 2, so c(e) != c⁻(e) for some edge and a pair's two orientations
# can differ in homology.  The two-cusped ones have H1 = Z + Z: the first
# has two edges from cusp 0 to cusp 1, which only the orientation keeping
# both ends can match, and the second has classes of order 3.
SEARCHED_TABLES = (
    "tets: 2\n0: 1 (201) | 1 (312) | 1 (023) | 1 (301)\n"
    "1: 0 (120) | 0 (231) | 0 (023) | 0 (130)\n",
    "tets: 2\n0: 1 (213) | 1 (130) | 1 (012) | 1 (320)\n"
    "1: 0 (023) | 0 (301) | 0 (321) | 0 (102)\n",
    "tets: 3\n0: 1 (123) | 2 (203) | 1 (210) | 1 (302)\n"
    "1: 0 (320) | 2 (102) | 0 (231) | 0 (012)\n"
    "2: 1 (103) | 2 (321) | 0 (103) | 2 (310)\n",
    "tets: 3\n0: 1 (103) | 1 (102) | 2 (213) | 2 (320)\n"
    "1: 0 (103) | 0 (102) | 2 (102) | 2 (031)\n"
    "2: 1 (203) | 1 (132) | 0 (321) | 0 (203)\n",
    "tets: 4\n0: 3 (321) | 1 (312) | 3 (230) | 3 (210)\n"
    "1: 3 (130) | 2 (012) | 2 (231) | 0 (130)\n"
    "2: 1 (013) | 2 (023) | 2 (013) | 1 (302)\n"
    "3: 0 (321) | 1 (201) | 0 (302) | 0 (210)\n",
    "tets: 4\n0: 1 (132) | 2 (021) | 1 (023) | 1 (021)\n"
    "1: 0 (132) | 3 (213) | 0 (023) | 0 (021)\n"
    "2: 0 (031) | 2 (213) | 3 (130) | 2 (103)\n"
    "3: 3 (203) | 2 (302) | 3 (102) | 1 (103)\n",
)


def _ideal_neighbours(tri):
    """The 2-3 and 3-2 neighbours of a triangulation."""
    skeleton = build_skeleton(tri)
    out = []
    for move, sites in ((pachner_2_3, skeleton.face_classes),
                        (pachner_3_2, skeleton.edge_classes)):
        for site in sites:
            try:
                out.append(move(tri, site.index, skeleton)[0])
            except MoveError:
                continue
    return out


@pytest.mark.parametrize("methods", [("homology",), ("group",), ALL_METHODS])
def test_edge_classes_agree_with_the_decider(m136, fig8, methods):
    """Over m136, fig8, the 123 pillow outputs of m136, the 2-3/3-2
    neighbours of m136 and fig8, and the searched tables with their
    neighbours: comparing two edges' H1 classes separates an ideal pair orientation exactly when the
    decider's abelianisation step separates `parallel_test_data`'s word,
    and the pair pass, which skips the pairs the classes separate, gives
    every pair the state and certificate that `answer` gives it from its
    questions, which asks nothing when no orientation's ends match."""
    a5 = Budget(coset_nodes=100, rewrite_steps=100, quotient_degree=2,
                quotient_nodes=100, factor_depth=3, factor_nodes=200)
    neighbours = _ideal_neighbours(m136) + _ideal_neighbours(fig8)
    assert len(neighbours) > 10
    searched = [parse_table(text) for text in SEARCHED_TABLES]
    searched += [moved for tri in searched for moved in _ideal_neighbours(tri)]
    inputs = ([m136, fig8] + list(_pillow_outputs(m136)) + neighbours
              + searched)
    orientations = pairs_answered = 0
    for tri in inputs:
        a = essedge.certify._Analysis(tri, a5, None, methods)
        classes = a.classes
        for i, j in combinations(range(len(classes)), 2):
            for flip, other in ((False, classes[j][0]),
                                (True, classes[j][1])):
                data = a.spine.parallel_test_data(i, j, flip)
                if data is not None:
                    word, h2, h1 = data
                    separated = abelian_separation(a.presentation, h1, h2,
                                                   word)
                    assert ((separated is not None)
                            == (classes[i][0] != other))
                    orientations += 1
        for (i, j), (state, certificate) in essedge.certify._pair_pass(
                a).items():
            if certificate["kind"] != "geometric_scan":
                member, expected = a.answer(a.pair_questions(i, j))
                assert (state, certificate) == (
                    essedge.certify._PAIR_STATE[member], expected)
                pairs_answered += 1
    assert orientations > 9000 and pairs_answered > 4000


def test_separated_pairs_read_the_orientation_that_flips_j():
    """Two edges that run between two cusps in opposite directions match
    ends only in the orientation that flips j, so that orientation alone
    decides whether homology separates them: it compares c(i) with c⁻(j).
    No searched table has such edges with classes of order above 2, so
    the ends and classes are built by hand: edges 0 and 3 run from cusp 0
    to cusp 1, edges 1 and 2 from cusp 1 to cusp 0, and the classes lie in
    Z/3, where c⁻ = -c differs from c."""
    forward = EdgeEnd(0, ()), EdgeEnd(1, ())
    backward = EdgeEnd(1, ()), EdgeEnd(0, ())
    analysis = SimpleNamespace(
        spine=SimpleNamespace(ends=[forward, backward, backward, forward]),
        classes=[((1,), (2,)), ((1,), (2,)), ((2,), (1,)), ((1,), (2,))])
    pairs = list(combinations(range(4), 2))
    # (0, 1) and (1, 3): flipped, c(i) != c⁻(j); (1, 2): kept, c(1) != c(2);
    # (0, 2) and (2, 3): flipped, c(i) == c⁻(j); (0, 3): kept, equal
    assert essedge.certify._Analysis.separated_pairs(analysis, pairs) == {
        (0, 1), (1, 2), (1, 3)}


def test_group_certificates_replay(corpus):
    budget = Budget(coset_nodes=600, rewrite_steps=800, quotient_degree=3,
                    quotient_nodes=2000, factor_depth=4, factor_nodes=800)
    replayed = 0
    for tri in corpus[:30]:
        skeleton = build_skeleton(tri)
        pres = presentation_spine(skeleton)
        if pres.generator_count == 0:
            continue
        for g in range(min(2, pres.generator_count)):
            word = (g + 1,)
            verdict = decide_word(pres, word, budget)
            assert replay_word_verdict(pres, word, verdict)
            if verdict.answer != "unknown":
                replayed += 1
        target = (2,) if pres.generator_count >= 2 else (1, 1)
        # (1, -1) free-reduces to (), so that subgroup is trivial and the
        # rewriting step answers for it
        for sub in ([(1,)], [(1, -1)]):
            verdict = decide_membership(pres, sub, target, budget)
            assert replay_membership_verdict(pres, sub, target, verdict)
            if verdict.answer != "unknown":
                replayed += 1
        h1, h2 = [(1,)], [(pres.generator_count,)]
        word = (pres.generator_count, 1, 1) + target
        verdict = decide_double_coset(pres, h1, h2, word, budget)
        assert replay_double_coset_verdict(pres, h1, h2, word, verdict)
        if verdict.answer != "unknown":
            replayed += 1
    assert replayed >= 20


def test_shared_searches_answer_as_fresh_ones(corpus, m136, monkeypatch):
    """Deciding a question on a presentation that earlier questions have
    filled with coset attempts and product tables gives the same verdict,
    certificate included, as deciding it on a fresh presentation: over the
    random corpus, and over every question a pillow certification at the
    A5 budget asks."""
    answered = []
    decide = essedge.certify.decide_double_coset

    def recorded(*question):
        verdict = decide(*question)
        answered.append((question, verdict.to_json()))
        return verdict

    budget = Budget(coset_nodes=300, rewrite_steps=200, quotient_degree=3,
                    quotient_nodes=500, factor_depth=3, factor_nodes=300)
    for tri in corpus[:20]:
        pres = presentation_spine(build_skeleton(tri))
        n = pres.generator_count
        subgroups = ([], [(1,)], [(n,)], [(1, n)]) if n else ()
        targets = [(g + 1,) for g in range(n)] + [(1, 1), (n, -1, n)]
        for h1 in subgroups:
            for h2 in subgroups:
                for w in targets:
                    recorded(pres, h1, h2, w, budget)
    monkeypatch.setattr(essedge.certify, "decide_double_coset", recorded)
    a5 = Budget(coset_nodes=100, rewrite_steps=100, quotient_degree=2,
                quotient_nodes=100, factor_depth=3, factor_nodes=200)
    for edge, sites in ((0, (0, 1)), (2, (3, 4)), (5, (0, 2))):
        pillow, _record = pillow_0_2(m136, edge, sites)
        certify_strongly_essential(pillow, a5,
                                   methods=("angle", "homology", "group"))
    presentations = {id(q[0]): q[0] for q, _answer in answered}
    assert len(presentations) > 10
    assert sum(len(p.built) for p in presentations.values()) < len(answered)
    for (pres, *rest), answer in answered:
        fresh = Presentation(pres.generator_count, pres.relators)
        assert decide(fresh, *rest).to_json() == answer
