import pytest

import essedge.develop
from essedge.develop import develop_and_scan, _SLOT_ORDER
from essedge.gaussian import cross_ratio_shape, Moebius
from essedge.shapes import (solve_shapes_newton, ShapeAssignment, ShapeError,
                            verify_shapes)
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


def test_develop_rejects_float_shapes(fig8_skeleton):
    """Newton's floating solution verifies, but only exact shapes are
    developed."""
    solution = solve_shapes_newton(fig8_skeleton)
    assert verify_shapes(fig8_skeleton, solution).passed
    assert not solution.exact
    with pytest.raises(ShapeError, match="exact"):
        develop_and_scan(fig8_skeleton, solution, radius=2)


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
