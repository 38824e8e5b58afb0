import pytest

import essedge.develop
from essedge.develop import develop_and_scan, _SLOT_ORDER, FloatPoint
from essedge.gaussian import cross_ratio_shape, Moebius
from essedge.shapes import solve_shapes_newton, ShapeAssignment, ShapeError
from essedge.gaussian import parse_gaussian


def test_m136_scan_radius_three(m136_skeleton, m136_shapes):
    report = develop_and_scan(m136_skeleton, m136_shapes, radius=3)
    assert all(report.edge_endpoints_distinct.values())
    assert report.coincident_edges == []
    assert report.parallel_candidates == []
    assert report.conclusive_for_flat_clusters
    assert len(report.clusters) == 1
    cluster = report.clusters[0]
    assert cluster.tets == (3, 5)
    assert cluster.conclusive
    assert cluster.coincidences == []
    assert cluster.translation is not None
    assert cluster.translation.is_parabolic()


def test_linear_cluster_settled_without_breadth_first_search(
        m136_skeleton, m136_shapes, monkeypatch):
    """m136's flat cluster is linear with a parabolic period, so one walk
    around it decides the scan; growing a breadth-first development to the
    default cap of 200 instances would cross more than 200 faces."""
    calls = []
    develop_across = essedge.develop._develop_across

    def counted(*args):
        calls.append(args)
        return develop_across(*args)

    monkeypatch.setattr(essedge.develop, "_develop_across", counted)
    report = develop_and_scan(m136_skeleton, m136_shapes, radius=3)
    assert report.clusters[0].conclusive
    assert len(calls) < 200


def test_linear_cluster_walk_too_short(m136_skeleton, m136_shapes):
    """With a cap below the period the walk is inconclusive, the fallback
    breadth-first development is not finite either, and the walk's reason
    stands."""
    report = develop_and_scan(m136_skeleton, m136_shapes, radius=0,
                              cluster_cap=1)
    cluster = report.clusters[0]
    assert cluster.tets == (3, 5)
    assert not cluster.conclusive
    assert cluster.reason == "no period found within 1 steps"
    assert cluster.translation is None
    assert cluster.instance_count == 2
    assert not report.conclusive_for_flat_clusters


def test_developed_cross_ratios_reproduce_shapes(m136_skeleton, m136_shapes):
    report = develop_and_scan(m136_skeleton, m136_shapes, radius=2)
    for inst in report.instances:
        for slot in range(3):
            order = _SLOT_ORDER[slot]
            value = cross_ratio_shape(*(inst.positions[v] for v in order))
            assert value == m136_shapes.slot_value(inst.tet, slot)


def test_scan_is_frame_independent(m136_skeleton, m136_shapes):
    """Coincidence patterns are Moebius-invariant, so the translated
    cluster translation stays parabolic with its fixed point moved."""
    report = develop_and_scan(m136_skeleton, m136_shapes, radius=2)
    translation = report.clusters[0].translation
    conj = Moebius(1, 2, 3, 7)
    moved = conj.compose(translation).compose(conj.inverse())
    assert moved.is_parabolic()


def test_fig8_float_scan(fig8_skeleton):
    solution = solve_shapes_newton(fig8_skeleton)
    report = develop_and_scan(fig8_skeleton, solution, radius=2)
    assert all(report.edge_endpoints_distinct.values())
    assert report.coincident_edges == []
    assert report.clusters == []
    assert report.conclusive_for_flat_clusters


def test_equal_float_points_hash_alike():
    pairs = [(FloatPoint(4.999999e-7), FloatPoint(5.000001e-7)),
             (FloatPoint(0.25 + 0.5j), FloatPoint(0.25 + 0.5j + 1e-12)),
             (FloatPoint(2.0, 4.0), FloatPoint(0.5)),
             (FloatPoint(1.0, 0.0), FloatPoint(3.0, 1e-13)),
             (FloatPoint(1.0, 0.0), FloatPoint(1e6))]
    for p, q in pairs:
        if p == q:
            assert hash(p) == hash(q)
            assert len({p, q}) == 1
        else:
            assert len({p, q}) == 2
    assert FloatPoint(0.25 + 0.5j) == FloatPoint(0.25 + 0.5j + 1e-12)
    assert FloatPoint(1.0, 0.0) == FloatPoint(3.0, 1e-13)


def test_radius_zero(m136_skeleton, m136_shapes):
    report = develop_and_scan(m136_skeleton, m136_shapes, radius=0)
    assert len(report.instances) == 1
    seen_edges = sorted(report.edge_endpoints_distinct)
    base_edges = sorted({m136_skeleton.edge_lookup[(0, a, b)][0]
                         for a in range(4) for b in range(4) if a != b})
    assert seen_edges == base_edges
    assert all(report.edge_endpoints_distinct.values())


def test_develop_rejects_unverified(m136_skeleton):
    with pytest.raises(ShapeError):
        develop_and_scan(m136_skeleton,
                         ShapeAssignment([parse_gaussian("i")] * 7))
