import random
from fractions import Fraction
from itertools import combinations

import pytest

import essedge.develop
from essedge.develop import (INFINITY, DevelopedTet, Moebius, _SLOT_ORDER,
                             _base_instance, _develop_across, _flat_clusters,
                             _flat_slots, _holonomy, _periodic_coincidences,
                             _primitive, cross_ratio, develop_and_scan,
                             fourth_vertex, moebius_between, point)
from essedge.moves import pillow_0_2
from essedge.shapes import (solve_shapes_newton, ShapeAssignment, ShapeError,
                            verify_shapes)
from essedge.gaussian import parse_gaussian
from essedge.triangulation import TET_EDGES
from record_verdicts import relabelled


def test_m136_flat_cluster_scan(m136_skeleton, m136_shapes):
    report = develop_and_scan(verify_shapes(m136_skeleton, m136_shapes))
    assert report.conclusive_for_flat_clusters
    assert len(report.clusters) == 1
    cluster = report.clusters[0]
    assert cluster.tets == (3, 5)
    assert cluster.conclusive
    assert cluster.coincidences == []
    assert cluster.translation is not None
    assert cluster.translation.is_parabolic()


def _gluing(tri, t, face):
    """A gluing, as its two sides (tetrahedron, face)."""
    other, sigma = tri.gluing(t, face)
    return frozenset(((t, face), (other, sigma(face))))


def _intra_cluster_gluings(tri, cluster):
    return {_gluing(tri, t, face) for t in cluster for face in range(4)
            if tri.gluing(t, face) is not None
            and tri.gluing(t, face)[0] in cluster}


def test_linear_cluster_settled_without_breadth_first_search(
        m136, m136_shapes, monkeypatch):
    """The one development crosses each intra-cluster gluing exactly
    once, from one side, and develops nothing else: on m136's linear
    cluster and on the branching clusters of two pillow outputs."""
    calls = []
    develop_across = essedge.develop._develop_across

    def counted(tri, slots, inst, face):
        calls.append(_gluing(tri, inst.tet, face))
        return develop_across(tri, slots, inst, face)

    monkeypatch.setattr(essedge.develop, "_develop_across", counted)
    inputs = [(m136, m136_shapes)] + [
        (tri, shapes) for tri, shapes, _record, _pairs
        in _branching_outputs(m136, m136_shapes)]
    for tri, shapes in inputs:
        calls.clear()
        report = develop_and_scan(verify_shapes(tri, shapes))
        [cluster] = report.clusters
        assert cluster.conclusive
        gluings = _intra_cluster_gluings(tri, cluster.tets)
        assert len(calls) == len(gluings)
        assert set(calls) == gluings


def test_developed_cross_ratios_reproduce_shapes(m136_skeleton, m136_shapes,
                                                 monkeypatch):
    """Developing across every face that joins two flat tetrahedra, from
    each flat tetrahedron's base instance, reproduces the shapes, checked
    here without the scan's own cross-ratio check."""
    monkeypatch.setattr(essedge.develop, "_check_cross_ratios",
                        lambda slots, inst: inst)
    tri = m136_skeleton.triangulation
    slots = _flat_slots(m136_shapes)
    assert sorted(slots) == [3, 5]
    for tet in slots:
        base = _base_instance(slots, tet)
        neighbours = [_develop_across(tri, slots, base, face)
                      for face in range(4)
                      if tri.gluing(tet, face)[0] in slots]
        assert len(neighbours) == 2
        for inst in [base] + neighbours:
            for slot, order in enumerate(_SLOT_ORDER):
                num, den = cross_ratio(*(inst.positions[v] for v in order))
                assert (Fraction(num, den)
                        == m136_shapes.slots[3 * inst.tet + slot])


def test_every_developed_instance_is_checked(m136_skeleton, m136_shapes,
                                             monkeypatch):
    """One cross-ratio check per instance the cluster scans build."""
    built, checked = [], []
    check = essedge.develop._check_cross_ratios

    class Counted(DevelopedTet):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    def counted_check(shapes, inst):
        checked.append(inst.tet)
        return check(shapes, inst)

    monkeypatch.setattr(essedge.develop, "DevelopedTet", Counted)
    monkeypatch.setattr(essedge.develop, "_check_cross_ratios",
                        counted_check)
    develop_and_scan(verify_shapes(m136_skeleton, m136_shapes))
    assert built and checked == built


def _coincidences(scan):
    return sorted(p for c in scan.clusters for p in c.coincidences)


def test_scan_is_frame_independent(m136, m136_shapes):
    """The development starts at its cluster's lowest tetrahedron, so
    relabelling the tetrahedra moves the frame it develops in.  Read
    through the edge correspondence, the scan of each relabelling finds
    the same coincidences: none on m136, two pairs on each branching
    pillow output."""
    rng = random.Random(136)
    bases = [(m136, m136_shapes)] + [
        (tri, shapes) for tri, shapes, _record, _pairs
        in _branching_outputs(m136, m136_shapes)]
    for tri, shapes in bases:
        report = verify_shapes(tri, shapes)
        expected = _coincidences(develop_and_scan(report))
        starts = set()
        for _ in range(6):
            tet_map = list(range(tri.tet_count))
            rng.shuffle(tet_map)
            moved = [None] * tri.tet_count
            for t, z in enumerate(shapes.shapes):
                moved[tet_map[t]] = z
            moved_report = verify_shapes(tri.relabelled(tet_map),
                                         ShapeAssignment(moved))
            lookup = moved_report.skeleton.edge_lookup
            image = {}
            for e in report.skeleton.edge_classes:
                t, (a, b) = e.corners[0]
                image[e.index] = lookup[(tet_map[t], a, b)][0]
            scan = develop_and_scan(moved_report)
            assert scan.conclusive_for_flat_clusters
            assert _coincidences(scan) == sorted(
                tuple(sorted((image[i], image[j]))) for i, j in expected)
            [cluster] = scan.clusters
            starts.add(tet_map.index(cluster.tets[0]))
        assert len(starts) > 1


def test_develop_rejects_float_shapes(fig8_skeleton):
    """Newton's floating solution is not a shape assignment: only exact
    shapes are verified, and so only exact shapes are developed."""
    solution = solve_shapes_newton(fig8_skeleton)
    assert all(isinstance(z, complex) for z in solution)
    with pytest.raises(ShapeError, match="exact"):
        verify_shapes(fig8_skeleton, solution)


def test_develop_rejects_unverified(m136_skeleton):
    with pytest.raises(ShapeError):
        develop_and_scan(verify_shapes(
            m136_skeleton, ShapeAssignment([parse_gaussian("i")] * 7)))


BRANCHING = (((3, (2, 3)), [(3, 7), (6, 8)]),
             ((6, (1, 2)), [(3, 8), (6, 7)]))


def _branching_outputs(m136, m136_shapes):
    """Two pillow outputs of m136 with exact shapes, m136's and -1 on both
    pillow tetrahedra, whose flat cluster branches, with their records."""
    extended = ShapeAssignment(list(m136_shapes.shapes) + [-1, -1])
    for (edge, sites), pairs in BRANCHING:
        tri, record = pillow_0_2(m136, edge, sites)
        yield tri, extended, record, pairs


def test_branching_pillow_scans(m136, m136_shapes):
    """The branching cluster's holonomy is the translation z -> z + 1, so
    its development is infinite but its scan is conclusive; it finds the
    pair opposite the degree-2 edge parallel."""
    for tri, shapes, record, pairs in _branching_outputs(m136, m136_shapes):
        report = develop_and_scan(verify_shapes(tri, shapes))
        assert report.conclusive_for_flat_clusters
        [cluster] = report.clusters
        assert cluster.tets == (3, 5, 7, 8)
        assert cluster.conclusive
        t = cluster.translation
        assert (t.a, t.b, t.c, t.d) == (1, 1, 0, 1)
        assert cluster.coincidences == pairs
        assert record.split_edges in pairs


def _bounded_coincidences(report, cap=200):
    """Coincident edge-class pairs of a breadth-first development of each
    flat cluster, stopped at cap instances, read by endpoint set."""
    skeleton = report.skeleton
    tri = skeleton.triangulation
    slots = _flat_slots(report.shapes)
    pairs = set()
    for cluster in _flat_clusters(tri, slots):
        order = [_base_instance(slots, cluster[0])]
        seen = {(order[0].tet, order[0].positions)}
        for inst in order:
            for face in range(4):
                entry = tri.gluing(inst.tet, face)
                if (len(order) < cap and entry is not None
                        and entry[0] in cluster):
                    new = _develop_across(tri, slots, inst, face)
                    if (new.tet, new.positions) not in seen:
                        seen.add((new.tet, new.positions))
                        order.append(new)
        assert len(order) == cap
        ends = {}
        for inst in order:
            for a, b in TET_EDGES:
                cls = skeleton.edge_lookup[(inst.tet, a, b)][0]
                ends.setdefault(frozenset((inst.positions[a],
                                           inst.positions[b])),
                                set()).add(cls)
        for classes in ends.values():
            pairs.update(combinations(sorted(classes), 2))
    return sorted(pairs)


def test_scan_matches_bounded_breadth_first_development(m136, m136_shapes):
    """On m136, the branching pillow outputs and seeded relabellings of
    all three, a breadth-first development of 200 instances per cluster
    finds exactly the coincidences of the holonomy scan."""
    bases = [(m136, m136_shapes)] + [
        (tri, shapes) for tri, shapes, _record, _pairs
        in _branching_outputs(m136, m136_shapes)]
    inputs = list(bases) + [relabelled(tri, shapes, seed)
                            for seed in range(7) for tri, shapes in bases]
    found = 0
    for tri, shapes in inputs:
        report = verify_shapes(tri, shapes)
        scan = develop_and_scan(report)
        assert scan.conclusive_for_flat_clusters
        pairs = _coincidences(scan)
        assert pairs == _bounded_coincidences(report)
        found += bool(pairs)
    assert found == 2 * 8


def _same_map(f, g):
    return all(f(p) == g(p) for p in (point(0), point(1), INFINITY))


def test_holonomy_classification():
    """The three outcomes on hand-built generators, each conjugated into
    seeded random frames."""
    rng = random.Random(11)
    shift = Moebius(1, 1, 0, 1)
    assert _holonomy([]) == (True, None, "trivial holonomy")
    for _ in range(30):
        frame = _random_frame(rng)

        def moved(*maps):
            return [frame.compose(m).compose(frame.inverse()) for m in maps]

        assert _holonomy(moved(IDENTITY)) == (True, None, "trivial holonomy")
        conclusive, t, reason = _holonomy(moved(shift, Moebius(2, 3, 0, 2)))
        assert conclusive and reason == "cyclic parabolic holonomy"
        [half] = moved(Moebius(2, 1, 0, 2))
        assert _same_map(t, half) or _same_map(t, half.inverse())
        # z -> z / (z + 1) is parabolic and fixes 0, not oo
        assert _holonomy(moved(shift, Moebius(1, 0, 1, 1))) == (
            False, None,
            "parabolic holonomy generators with different fixed points")
        for map_ in (Moebius(2, 0, 0, 1), Moebius(0, -1, 1, 0)):
            conclusive, t, reason = _holonomy(moved(shift, map_))
            assert not conclusive and t is None
            assert reason.endswith("is not parabolic")


# ---- the rational projective line ----

def test_projective_points():
    assert point(2) == _primitive(4, 2) == (2, 1)
    assert point(Fraction(-3, 6)) == _primitive(3, -6) == (-1, 2)
    assert INFINITY == _primitive(5, 0) == _primitive(-5, 0)
    assert point(2) != INFINITY
    with pytest.raises(ShapeError):
        _primitive(0, 0)


def test_placement_realises_slot_values():
    z = Fraction(-1, 3)
    zp = 1 / (1 - z)
    zpp = 1 - 1 / z
    positions = [point(0), point(1), INFINITY, point(zp)]
    values = [Fraction(*cross_ratio(*(positions[v] for v in order)))
              for order in _SLOT_ORDER]
    assert values == [z, zp, zpp]


def test_fourth_vertex_inverts_cross_ratio():
    z = Fraction(5, 2)
    positions = [point(0), point(1), INFINITY, point(1 / (1 - z))]
    for k in range(4):
        partial = list(positions)
        partial[k] = None
        assert fourth_vertex(partial, z) == positions[k]


def test_moebius_triples():
    a = (point(0), point(1), INFINITY)
    b = (point(3), point(Fraction(1, 2)), point(-2))
    m = moebius_between(a, b)
    assert tuple(m(p) for p in a) == b
    assert m.inverse().compose(m).is_identity()


def test_moebius_between():
    ps = (point(0), point(1), INFINITY, point(Fraction(-2, 3)))
    m = Moebius(1, 3, 0, 1)
    images = tuple(m(p) for p in ps)
    found = moebius_between(ps, images)
    assert found is not None
    assert all(found(p) == q for p, q in zip(ps, images))
    # no single map exists when the fourth point is off
    bad = images[:3] + (point(100),)
    assert moebius_between(ps, bad) is None


def test_parabolic_translation():
    t = Moebius(1, 1, 0, 1)
    assert t.is_parabolic()
    w, c = t.translation_frame()
    assert w.is_identity() and c == 1
    s = moebius_between((point(0), point(1), INFINITY),
                        (point(1), point(2), INFINITY))
    assert s.is_parabolic()
    # a translation conjugated away from oo: its frame sends the fixed
    # point conj(oo) = 2 back to oo, where it translates by c
    conj = Moebius(2, 1, 1, 1)
    t = conj.compose(Moebius(2, 3, 0, 2)).compose(conj.inverse())
    w, c = t.translation_frame()
    assert w(point(2)) == INFINITY and c != 0
    assert w.compose(t).compose(w.inverse())(point(0)) == point(c)
    rot = Moebius(0, -1, 1, 0)  # z -> -1/z, elliptic
    assert not rot.is_parabolic()
    with pytest.raises(ValueError):
        rot.translation_frame()


# ---- coincidences modulo a parabolic translation ----

def test_cusp_lifts_coincide_across_periods():
    """Lifts (oo, 0) and (oo, 2) differ by two periods of z -> z + 1, so
    their edge classes coincide."""
    lifts = [(0, INFINITY, point(0)), (1, INFINITY, point(2))]
    assert _periodic_coincidences(lifts, Moebius(1, 1, 0, 1)) == [(0, 1)]


IDENTITY = Moebius(1, 0, 0, 1)


def _random_frame(rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d != b * c:
            return Moebius(a, b, c, d)


def _expanded_coincidences(lifts, translation, reach=40):
    """Pairs of distinct edge classes with lifts that agree under some
    power translation^k, |k| <= reach, found by applying each power."""
    forward, backward = [IDENTITY], [IDENTITY]
    inverse = translation.inverse()
    for _ in range(reach):
        forward.append(translation.compose(forward[-1]))
        backward.append(inverse.compose(backward[-1]))
    powers = forward + backward[1:]
    pairs = set()
    for i, (c1, p1, q1) in enumerate(lifts):
        images = {frozenset((g(p1), g(q1))) for g in powers}
        for c2, p2, q2 in lifts[i + 1:]:
            if c1 != c2 and frozenset((p2, q2)) in images:
                pairs.add(tuple(sorted((c1, c2))))
    return sorted(pairs)


def test_periodic_coincidences_match_explicit_translates():
    """On seeded random lift sets, in random frames, the canonical keys
    find exactly the coincidences that explicit translates find."""
    rng = random.Random(7)
    ends = [point(Fraction(k, 2)) for k in range(-6, 7)] + [INFINITY]
    checked = cusp_hits = 0
    for _ in range(400):
        frame = _random_frame(rng) if rng.random() < 0.7 else IDENTITY
        step = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
        step *= rng.choice((1, -1))
        translation = Moebius(step.denominator, step.numerator, 0,
                              step.denominator)
        lifts = []
        for _ in range(rng.randint(2, 7)):
            p, q = rng.sample(ends, 2)
            lifts.append((rng.randint(0, 3), p, q))
        back = frame.inverse()
        translation = back.compose(translation).compose(frame)
        lifts = [(c, back(p), back(q)) for c, p, q in lifts]
        expected = _expanded_coincidences(lifts, translation)
        assert _periodic_coincidences(lifts, translation) == expected
        checked += 1
        cusp = back(INFINITY)
        cusp_hits += bool(expected) and any(cusp in (p, q)
                                            for _, p, q in lifts)
    assert checked == 400 and cusp_hits > 0
