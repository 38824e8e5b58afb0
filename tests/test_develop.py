import pytest

import essedge.develop
from essedge.develop import (develop_and_scan, DevelopedTet, _SLOT_ORDER,
                             _base_instance, _develop_across)
from essedge.gaussian import cross_ratio_shape, Moebius
from essedge.shapes import (solve_shapes_newton, ShapeAssignment, ShapeError,
                            verify_shapes)
from essedge.gaussian import parse_gaussian


def test_m136_flat_cluster_scan(m136_skeleton, m136_shapes):
    report = develop_and_scan(m136_skeleton, m136_shapes)
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
    report = develop_and_scan(m136_skeleton, m136_shapes)
    assert report.clusters[0].conclusive
    assert len(calls) < 200


def test_linear_cluster_walk_too_short(m136_skeleton, m136_shapes):
    """With a cap below the period the walk is inconclusive, the fallback
    breadth-first development is not finite either, and the walk's reason
    stands."""
    report = develop_and_scan(m136_skeleton, m136_shapes, cluster_cap=1)
    cluster = report.clusters[0]
    assert cluster.tets == (3, 5)
    assert not cluster.conclusive
    assert cluster.reason == "no period found within 1 steps"
    assert cluster.translation is None
    assert cluster.instance_count == 2
    assert not report.conclusive_for_flat_clusters


def test_developed_cross_ratios_reproduce_shapes(m136_skeleton, m136_shapes,
                                                 monkeypatch):
    """Developing across every glued face of every tetrahedron's base
    instance reproduces the shapes, checked here without the scan's own
    cross-ratio check."""
    monkeypatch.setattr(essedge.develop, "_check_cross_ratios",
                        lambda shapes, inst: inst)
    tri = m136_skeleton.triangulation
    for tet in range(tri.tet_count):
        base = _base_instance(m136_shapes, tet)
        # every face of m136 is glued
        neighbours = [_develop_across(tri, m136_shapes, base, face)
                      for face in range(4)]
        for inst in [base] + neighbours:
            for slot, order in enumerate(_SLOT_ORDER):
                value = cross_ratio_shape(*(inst.positions[v]
                                            for v in order))
                assert value == m136_shapes.slot_value(inst.tet, slot)


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
    develop_and_scan(m136_skeleton, m136_shapes)
    assert built and checked == built


def test_scan_is_frame_independent(m136_skeleton, m136_shapes):
    """Coincidence patterns are Moebius-invariant, so the translated
    cluster translation stays parabolic with its fixed point moved."""
    report = develop_and_scan(m136_skeleton, m136_shapes)
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
        develop_and_scan(fig8_skeleton, solution)


def test_develop_rejects_unverified(m136_skeleton):
    with pytest.raises(ShapeError):
        develop_and_scan(m136_skeleton,
                         ShapeAssignment([parse_gaussian("i")] * 7))
