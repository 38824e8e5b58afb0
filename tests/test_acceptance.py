"""
Acceptance criteria A1-A8, one test per criterion, each printing a
pass/fail line with its runtime and asserting the stated bound.
"""
import math
import random
import time
from fractions import Fraction
from itertools import combinations

from essedge import build_skeleton, cycles_match, are_isomorphic
from essedge.angles import (solve_angle_lp, enumerate_taut,
                            build_angle_system)
from essedge.certify import certify_essential, certify_strongly_essential
from essedge.coset import coset_enumeration
from essedge.decide import (Budget, decide_word, decide_membership,
                            replay_word_verdict, replay_membership_verdict)
from essedge.develop import develop_and_scan
from essedge.fundamental import presentation_closed, presentation_spine
from essedge.moves import pillow_0_2, extend_taut, pachner_2_3, pachner_3_2, MoveError
from essedge.presentation import homology
from essedge.shapes import verify_shapes, solve_shapes_newton, _log_residual, _gluing_equations

from test_skeleton import M136_CYCLES
from test_random_properties import random_closed_triangulation


class _Clock:
    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "pass" if exc_type is None else "FAIL"
        print("%s: %s (%.2fs, limit %ds)" % (self.name, status, elapsed,
                                             self.limit))
        if exc_type is None:
            assert elapsed < self.limit, (
                "%s exceeded its %ds budget: %.2fs"
                % (self.name, self.limit, elapsed))
        return False


def test_a1_parsing_and_skeleton():
    from essedge import parse_triangulation
    from conftest import fixture_text
    with _Clock("A1 parsing + skeleton reproduces the edge table", 1):
        tri = parse_triangulation(fixture_text("m136.tri"))
        skeleton = build_skeleton(tri)
        assert skeleton.edge_count == 7
        assert skeleton.degrees() == (4, 4, 10, 10, 6, 4, 4)
        for expected, edge in zip(M136_CYCLES, skeleton.edge_classes):
            assert cycles_match(edge.corners, expected)


def test_a2_angle_lp(m136_skeleton):
    with _Clock("A2 strict optimum 0 and a taut structure on m136", 5):
        strict = solve_angle_lp(m136_skeleton, "strict")
        assert strict.optimum == 0
        assert not strict.feasible
        tauts = enumerate_taut(m136_skeleton)
        assert len(tauts) >= 1
        system = build_angle_system(m136_skeleton)
        assert all(system.satisfied_by(t) for t in tauts)


def test_a3_exact_gluing_verification(m136_skeleton, m136_shapes):
    with _Clock("A3 exact m136 edge products, arguments, flat set", 1):
        report = verify_shapes(m136_skeleton, m136_shapes)
        assert all(p == 1 for p in report.edge_products)
        assert len(report.edge_products) == 7
        assert all(abs(s - 2.0) < 1e-9 / math.pi
                   for s in report.edge_argument_sums)
        assert report.flat == [3, 5]


def test_a4_strict_implies_strongly_essential(fig8_skeleton):
    with _Clock("A4 figure-8: t* = 1/3 and strongly essential", 1):
        strict = solve_angle_lp(fig8_skeleton, "strict")
        assert strict.optimum == Fraction(1, 3)
        assert all(x == Fraction(1, 3) for x in strict.witness.entries)
        verdict = certify_strongly_essential(fig8_skeleton)
        assert verdict.strongly_essential == "yes"
        assert all(v.certificate["kind"] == "strict_angle"
                   for v in verdict.edge_verdicts)


def test_a5_pillow_counterexample_property(m136, m136_skeleton):
    with _Clock("A5 0-2 pillow outputs over all valid sites", 30):
        tauts = enumerate_taut(m136_skeleton)
        assert tauts
        budget = Budget(coset_nodes=100, rewrite_steps=100,
                        quotient_degree=2, quotient_nodes=100,
                        factor_depth=3, factor_nodes=200)
        methods = ("angle", "homology", "group")
        sites = 0
        transports = 0
        for e in m136_skeleton.edge_classes:
            for i, j in combinations(range(e.degree), 2):
                try:
                    moved, record = pillow_0_2(m136, e.index, (i, j),
                                               m136_skeleton)
                except MoveError:
                    continue
                sites += 1
                skeleton = build_skeleton(moved)
                # (a) a degree-2 edge class exists
                assert skeleton.edge_classes[record.degree2_edge].degree == 2
                # (b) strict LP infeasible
                strict = solve_angle_lp(skeleton, "strict")
                assert not strict.feasible
                # (c) transported taut structures verify
                system = build_angle_system(skeleton)
                for taut in tauts:
                    try:
                        extended = extend_taut(m136, e.index, (i, j), taut,
                                               m136_skeleton)
                    except MoveError:
                        continue
                    transports += 1
                    assert extended.is_taut()
                    assert system.satisfied_by(extended)
                # (d) never certified strongly essential
                verdict = certify_strongly_essential(skeleton, budget,
                                                     methods=methods)
                assert verdict.strongly_essential != "yes"
        assert sites > 0 and transports > 0


def test_a6_group_certificates(q8_skeleton):
    with _Clock("A6 quaternionic space: 8 cosets, group certificates", 5):
        presentation = presentation_closed(q8_skeleton)
        assert homology(presentation) == (2, 2)
        table = coset_enumeration(presentation, max_cosets=1000)
        assert table is not None and table.coset_count == 8
        assert table.verify()
        verdict = certify_essential(q8_skeleton)
        assert verdict.essential == "yes"
        assert len(verdict.edge_verdicts) == 3
        for v in verdict.edge_verdicts:
            assert v.essential == "yes"
            assert v.certificate["kind"] in ("homology", "group_word")


def test_a7_property_suites(fig8_skeleton):
    with _Clock("A7 randomised invariants, moves, LP, replay, newton", 120):
        rng = random.Random(20260808)
        corpus = [random_closed_triangulation(rng) for _ in range(100)]

        # (i) partition and Euler invariants
        for tri in corpus:
            skeleton = build_skeleton(tri)
            assert sum(skeleton.degrees()) == 6 * tri.tet_count
            assert skeleton.face_count == 2 * tri.tet_count
            defect = sum(1 - link.euler_characteristic / 2
                         for link in skeleton.vertex_links)
            assert skeleton.euler_characteristic() == defect

        # (ii) Pachner round trips preserve isomorphism type and homology
        rounds = 0
        for tri in corpus:
            skeleton = build_skeleton(tri)
            site = next((fc.index for fc in skeleton.face_classes
                         if len({r[0] for r in fc.representatives}) == 2),
                        None)
            if site is None:
                continue
            base = homology(presentation_spine(skeleton))
            moved, record = pachner_2_3(tri, site, skeleton)
            mid = build_skeleton(moved)
            assert homology(presentation_spine(mid)) == base
            t, (a, b) = record.new_edge_corner
            back, _ = pachner_3_2(moved, mid.edge_lookup[(t, a, b)][0], mid)
            assert are_isomorphic(back, tri) is not None
            rounds += 1
        assert rounds >= 50

        # (iii) LP witnesses satisfy the equalities exactly
        for tri in corpus[:40]:
            skeleton = build_skeleton(tri)
            system = build_angle_system(skeleton)
            for mode in ("semi", "strict"):
                outcome = solve_angle_lp(skeleton, mode)
                if outcome.witness is not None:
                    assert all(r == 0
                               for r in system.residual(outcome.witness))

        # (iv) every definite group verdict replays
        budget = Budget(coset_nodes=400, rewrite_steps=400,
                        quotient_degree=3, quotient_nodes=1000,
                        factor_depth=4, factor_nodes=400)
        definite = 0
        for tri in corpus[:25]:
            pres = presentation_spine(build_skeleton(tri))
            if pres.generator_count == 0:
                continue
            word = (1,)
            verdict = decide_word(pres, word, budget)
            assert replay_word_verdict(pres, word, verdict)
            if verdict.answer != "unknown":
                definite += 1
            sub = [(1,)]
            target = (2,) if pres.generator_count >= 2 else (1, 1)
            mem = decide_membership(pres, sub, target, budget)
            assert replay_membership_verdict(pres, sub, target, mem)
            if mem.answer != "unknown":
                definite += 1
        assert definite >= 15

        # (v) Newton on the figure-8 reaches the known solution
        solution = solve_shapes_newton(fig8_skeleton)
        target = complex(0.5, 0.8660254)
        for z in solution:
            assert abs(z - target) < 1e-9 + 4e-8  # target quoted to 8 digits
            assert abs(z - complex(0.5, math.sqrt(3) / 2)) < 1e-9
        _skeleton, rows, targets = _gluing_equations(fig8_skeleton)
        residuals = _log_residual(rows, targets, solution)
        assert all(aber < 1e-12 for aber in map(abs, residuals))


def test_a8_verdict_consistency(m136_skeleton, fig8_skeleton, q8_skeleton,
                                m136_shapes):
    with _Clock("A8 certificate sources agree wherever they resolve", 60):
        budget = Budget(coset_nodes=2000, rewrite_steps=2000,
                        quotient_degree=3, quotient_nodes=4000,
                        factor_depth=4, factor_nodes=1000)

        # m136: the semi-angle certificate says essential; the group tier
        # must never contradict it
        angle = certify_essential(m136_skeleton, methods=("angle",))
        assert angle.essential == "yes"
        group = certify_essential(m136_skeleton, budget,
                                  methods=("homology", "group"))
        for v in group.edge_verdicts:
            assert v.essential in ("yes", "unknown")

        # m136: the geometric scan says strongly essential; double-coset
        # verdicts must never find a parallel pair
        geometric = certify_strongly_essential(m136_skeleton, budget,
                                               shapes=m136_shapes)
        assert geometric.strongly_essential == "yes"
        grp = certify_strongly_essential(m136_skeleton, budget,
                                         methods=("homology", "group"))
        assert grp.strongly_essential != "no"
        for state, _cert in grp.pair_table.values():
            assert state in ("not_parallel", "unknown")

        # figure-8: strict angle certificate vs group essential tier
        strict = certify_strongly_essential(fig8_skeleton)
        assert strict.strongly_essential == "yes"
        group8 = certify_essential(fig8_skeleton, budget,
                                   methods=("homology", "group"))
        for v in group8.edge_verdicts:
            assert v.essential in ("yes", "unknown")

        # quaternionic space: abelianisation and the completed coset table
        # agree on every edge generator
        presentation = presentation_closed(q8_skeleton)
        table = coset_enumeration(presentation)
        for g in range(3):
            verdict = decide_word(presentation, (g + 1,), budget)
            assert verdict.answer == "yes"
            assert table.apply(0, (g + 1,)) != 0
