from itertools import combinations

import pytest

from essedge import (Triangulation, Perm4, build_skeleton, are_isomorphic)
from essedge.moves import (pachner_2_3, pachner_3_2, pillow_0_2, extend_taut,
                           MoveError)
from essedge.angles import (solve_angle_lp, enumerate_taut,
                            build_angle_system)
from essedge.fundamental import presentation_spine
from essedge.presentation import homology

from conftest import dual_h1


def two_tets_one_face():
    """Two tetrahedra glued along a single face, boundary mode."""
    sigma = Perm4((0, 1, 2, 3))
    rows = [[(1, sigma), None, None, None],
            [(0, sigma), None, None, None]]
    return Triangulation(2, rows)


def test_two_three_defining_case():
    tri = two_tets_one_face()
    skeleton = build_skeleton(tri)
    face = skeleton.face_lookup[(0, 0)][0]
    out, record = pachner_2_3(tri, face, skeleton)
    assert out.tet_count == 3
    assert not [v for v in out.validate().violations
                if v[0] != "unglued"]
    new_skeleton = build_skeleton(out)
    t, (a, b) = record.new_edge_corner
    edge = new_skeleton.edge_lookup[(t, a, b)][0]
    assert new_skeleton.edge_classes[edge].closed
    assert new_skeleton.edge_classes[edge].degree == 3


def test_two_three_round_trip(fig8, fig8_skeleton):
    for face in range(fig8_skeleton.face_count):
        out, record = pachner_2_3(fig8, face, fig8_skeleton)
        assert out.validate().valid
        mid = build_skeleton(out)
        assert mid.classification == "ideal_all_torus_or_klein"
        t, (a, b) = record.new_edge_corner
        edge = mid.edge_lookup[(t, a, b)][0]
        back, _ = pachner_3_2(out, edge, mid)
        assert back.validate().valid
        assert are_isomorphic(back, fig8) is not None


def test_m136_two_three_site(m136, m136_skeleton):
    sites = [fc.index for fc in m136_skeleton.face_classes
             if {r[0] for r in fc.representatives} == {3, 5}]
    out, _ = pachner_2_3(m136, sites[0], m136_skeleton)
    assert out.tet_count == 8
    skeleton = build_skeleton(out)
    assert skeleton.classification == "ideal_all_torus_or_klein"


def test_moves_preserve_invariants(fig8, fig8_skeleton):
    base_h1 = dual_h1(fig8_skeleton)
    base_euler = fig8_skeleton.euler_characteristic()
    base_kinds = sorted(l.surface_kind for l in fig8_skeleton.vertex_links)
    out, record = pachner_2_3(fig8, 0, fig8_skeleton)
    skeleton = build_skeleton(out)
    assert dual_h1(skeleton) == base_h1
    assert skeleton.euler_characteristic() == base_euler
    assert sorted(l.surface_kind for l in skeleton.vertex_links) == base_kinds


def test_three_two_preconditions(fig8, fig8_skeleton):
    # both figure-8 edges have degree 6
    with pytest.raises(MoveError):
        pachner_3_2(fig8, 0, fig8_skeleton)


def test_two_three_rejects_self_gluing():
    # one tetrahedron with face 0 glued to face 1 of itself
    sigma = Perm4((1, 0, 2, 3))
    tri = Triangulation(1, [[(0, sigma), (0, sigma.inverse()), None, None]])
    assert all(v[0] == "unglued" for v in tri.validate().violations)
    skeleton = build_skeleton(tri)
    face = skeleton.face_lookup[(0, 0)][0]
    with pytest.raises(MoveError):
        pachner_2_3(tri, face, skeleton)


def test_two_three_rejects_out_of_range_face(fig8, fig8_skeleton):
    for index in (fig8_skeleton.face_count, -1):
        with pytest.raises(MoveError):
            pachner_2_3(fig8, index, fig8_skeleton)


def test_three_two_rejects_out_of_range_edge(fig8, fig8_skeleton):
    # the 2-3 output has a degree-3 edge that -1 could wrap round to
    out, _ = pachner_2_3(fig8, 0, fig8_skeleton)
    skeleton = build_skeleton(out)
    assert 3 in skeleton.degrees()
    for index in (skeleton.edge_count, -1):
        with pytest.raises(MoveError):
            pachner_3_2(out, index, skeleton)


def test_pillow_rejects_out_of_range_edge(m136, m136_skeleton):
    for index in (m136_skeleton.edge_count, -1):
        with pytest.raises(MoveError):
            pillow_0_2(m136, index, (0, 1), m136_skeleton)


def test_pillow_produces_degree_two_and_split(m136, m136_skeleton):
    out, record = pillow_0_2(m136, 0, (0, 1), m136_skeleton)
    assert out.validate().valid
    assert out.tet_count == m136.tet_count + 2
    skeleton = build_skeleton(out)
    assert skeleton.edge_classes[record.degree2_edge].degree == 2
    assert len(set(record.split_edges)) == 2
    assert skeleton.classification == "ideal_all_torus_or_klein"


def test_pillow_strict_infeasible(m136, m136_skeleton):
    base = solve_angle_lp(m136_skeleton, "strict").optimum
    out, _ = pillow_0_2(m136, 0, (0, 1), m136_skeleton)
    outcome = solve_angle_lp(build_skeleton(out), "strict")
    assert not outcome.feasible
    # strict optimum is monotone non-increasing under the pillow move
    assert outcome.optimum <= base <= 0


def test_pillow_rejects_same_face_class(m136, m136_skeleton):
    edge = m136_skeleton.edge_classes[0]
    same = None
    for i, j in combinations(range(edge.degree), 2):
        fi = m136_skeleton.face_lookup[(edge.corners[i][0],
                                        edge.pivots[i])][0]
        fj = m136_skeleton.face_lookup[(edge.corners[j][0],
                                        edge.pivots[j])][0]
        if fi == fj:
            same = (i, j)
            break
    if same is not None:
        with pytest.raises(MoveError):
            pillow_0_2(m136, 0, same, m136_skeleton)
    with pytest.raises(MoveError):
        pillow_0_2(m136, 0, (0, 0), m136_skeleton)


def test_pillow_preserves_homology(m136, m136_skeleton):
    base = homology(presentation_spine(m136_skeleton))
    out, _ = pillow_0_2(m136, 2, (0, 3), m136_skeleton)
    assert homology(presentation_spine(build_skeleton(out))) == base


def test_taut_transport(m136, m136_skeleton):
    tauts = enumerate_taut(m136_skeleton)
    transported = 0
    for edge in m136_skeleton.edge_classes:
        for i, j in combinations(range(edge.degree), 2):
            try:
                out, record = pillow_0_2(m136, edge.index, (i, j),
                                         m136_skeleton)
            except MoveError:
                continue
            system = build_angle_system(build_skeleton(out))
            for taut in tauts:
                try:
                    new = extend_taut(m136, edge.index, (i, j), taut,
                                      m136_skeleton)
                except MoveError:
                    continue
                transported += 1
                assert new.is_taut()
                assert system.satisfied_by(new)
            if transported > 10:
                return
    assert transported > 0


def test_taut_transport_requires_opposite_sides(m136, m136_skeleton):
    tauts = enumerate_taut(m136_skeleton)
    # find a site where both pi-corners fall in the same arc and check the
    # transport is refused
    for edge in m136_skeleton.edge_classes:
        for i, j in combinations(range(edge.degree), 2):
            fi = m136_skeleton.face_lookup[(edge.corners[i][0],
                                            edge.pivots[i])][0]
            fj = m136_skeleton.face_lookup[(edge.corners[j][0],
                                            edge.pivots[j])][0]
            if fi == fj:
                continue
            for taut in tauts:
                from essedge.skeleton import slot_of
                arc1 = sum(int(taut.slot(edge.corners[k][0],
                                         slot_of(*edge.corners[k][1])))
                           for k in range(min(i, j) + 1, max(i, j) + 1))
                if arc1 != 1:
                    with pytest.raises(MoveError):
                        extend_taut(m136, edge.index, (i, j), taut,
                                    m136_skeleton)
                    return
    pytest.skip("no same-side site found")
