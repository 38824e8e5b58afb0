from fractions import Fraction

import pytest

from essedge import Triangulation, build_skeleton
from essedge.angles import (AngleVector, build_angle_system, solve_angle_lp,
                            enumerate_taut, formal_gauss_bonnet)
from essedge.skeleton import slot_of


def test_system_shapes(fig8_skeleton, m136_skeleton):
    sys8 = build_angle_system(fig8_skeleton)
    assert sys8.shape == (4, 6)
    assert [sum(row) for row in sys8.matrix[2:]] == [6, 6]
    sysm = build_angle_system(m136_skeleton)
    assert sysm.shape == (14, 21)
    assert [sum(row) for row in sysm.matrix[7:]] == [4, 4, 10, 10, 6, 4, 4]


def test_single_tet_boundary_system():
    system = build_angle_system(Triangulation(1, [[None] * 4]))
    assert system.shape == (1, 3)
    assert system.matrix[0] == [1, 1, 1]
    assert system.rhs[0] == 1


def test_fig8_strict_optimum(fig8_skeleton):
    out = solve_angle_lp(fig8_skeleton, "strict")
    assert out.feasible
    assert out.optimum == Fraction(1, 3)
    assert all(x == Fraction(1, 3) for x in out.witness.entries)
    assert build_angle_system(fig8_skeleton).satisfied_by(out.witness)


def test_m136_strict_optimum_zero(m136_skeleton):
    out = solve_angle_lp(m136_skeleton, "strict")
    assert not out.feasible
    assert out.optimum == 0


def test_m136_semi_feasible(m136_skeleton):
    out = solve_angle_lp(m136_skeleton, "semi")
    assert out.feasible
    assert out.witness.is_semi()
    assert build_angle_system(m136_skeleton).satisfied_by(out.witness)


def test_semi_reads_the_strict_optimum(fig8_skeleton, m136_skeleton):
    """Semi is t* >= 0 with the strict optimum's witness and no optimum of
    its own; the skeleton holds the one solve both modes read."""
    for skeleton in (fig8_skeleton, m136_skeleton):
        semi = solve_angle_lp(skeleton, "semi")
        strict = solve_angle_lp(skeleton, "strict")
        assert semi.feasible and semi.optimum is None
        assert semi.witness == strict.witness
        assert min(semi.witness.entries) == strict.optimum
        assert skeleton.angle_lp == (strict.optimum, strict.witness)


def test_empty_system():
    """Without tetrahedra the empty vector is a semi-angle structure and
    no strict one is claimed."""
    skeleton = build_skeleton(Triangulation(0, []))
    semi = solve_angle_lp(skeleton, "semi")
    assert semi.feasible and semi.witness == AngleVector([])
    strict = solve_angle_lp(skeleton, "strict")
    assert not strict.feasible and strict.optimum is None
    with pytest.raises(ValueError):
        solve_angle_lp(skeleton, "taut")


def test_witness_residuals_exact(fig8_skeleton, m136_skeleton):
    for skeleton in (fig8_skeleton, m136_skeleton):
        system = build_angle_system(skeleton)
        for mode in ("semi", "strict"):
            out = solve_angle_lp(skeleton, mode)
            if out.witness is not None:
                assert all(r == 0 for r in system.residual(out.witness))


def test_m136_taut_structures(m136_skeleton):
    found = enumerate_taut(m136_skeleton)
    assert len(found) >= 1
    system = build_angle_system(m136_skeleton)
    for tv in found:
        assert tv.is_taut()
        assert system.satisfied_by(tv)
        semi = solve_angle_lp(m136_skeleton, "semi")
        assert semi.feasible
    # deterministic order and count, frozen after first computation
    assert len(found) == 4


def test_m136_taut_fixture(m136_skeleton):
    found = enumerate_taut(m136_skeleton)
    first = [int(x) for x in found[0].entries]
    assert first == [1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0,
                     0, 0, 1, 0, 1, 0, 0, 1, 0]


def test_fig8_taut_satisfy_equalities(fig8_skeleton):
    system = build_angle_system(fig8_skeleton)
    for tv in enumerate_taut(fig8_skeleton):
        assert system.satisfied_by(tv)


def test_degree_one_edge_has_no_taut():
    # two tetrahedra glued along two faces producing a degree-1 edge:
    # instead build any triangulation with a degree-1 edge via direct check
    from essedge import Perm4
    # single tetrahedron with face 2 glued to face 3 by the transposition
    # of 2 and 3 creates a degree-1 edge at {0,1}... detect dynamically
    sigma = Perm4((0, 1, 3, 2))
    tri = Triangulation(1, [[None, None, (0, sigma), (0, sigma)]])
    if not tri.validate().violations:
        skeleton = build_skeleton(tri)
        if any(e.closed and e.degree == 1 for e in skeleton.edge_classes):
            assert enumerate_taut(skeleton) == []


def test_taut_limit(m136_skeleton):
    assert len(enumerate_taut(m136_skeleton, limit=1)) == 1


def test_gauss_bonnet_triangle():
    a, b = Fraction(1, 3), Fraction(1, 2)
    c = 1 - a - b
    assert formal_gauss_bonnet([a, b, c], 3) == 0


def test_gauss_bonnet_quadrilateral():
    # 2a + 2b - 2 = -2c for a triangle's angles a + b + c = 1
    a, b = Fraction(1, 5), Fraction(3, 10)
    c = 1 - a - b
    area = formal_gauss_bonnet([a, b, a, b], 4)
    assert area == 2 * a + 2 * b - 2 == -2 * c


def test_gauss_bonnet_octagon():
    # corners (a,a,a,a,b,b,c,c) with the a-edge met twice: 2(a - 2)
    a, b, c = Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)
    area = formal_gauss_bonnet([a, a, a, a, b, b, c, c], 8)
    assert area == 4 * a + 2 * b + 2 * c - 6 == 2 * (a - 2) + (
        2 * b + 2 * c + 2 * a - 2)


def test_gauss_bonnet_octagon_reduced_form():
    # with angle sum a + b + c = 1 the octagon contributes 2a + 2 - 6
    a = Fraction(1, 6)
    b = Fraction(1, 3)
    c = 1 - a - b
    area = formal_gauss_bonnet([a, a, a, a, b, b, c, c], 8)
    assert area == 2 * a + 2 - 6


def test_gauss_bonnet_errors():
    with pytest.raises(ValueError):
        formal_gauss_bonnet([1, 1], 3)
    with pytest.raises(ValueError):
        formal_gauss_bonnet([1, 1], 2)


def test_vertex_linking_torus_gauss_bonnet(m136_skeleton):
    # the vertex-linking surface of a semi-angle structure: each corner
    # triangle contributes its tetrahedron's three slot angles; the total
    # combinatorial area is 2 chi = 0 for the torus link
    out = solve_angle_lp(m136_skeleton, "semi")
    total = Fraction(0)
    link = m136_skeleton.vertex_links[0]
    for (t, v) in link.structure.triangles:
        corners = [out.witness.slot(t, slot_of(v, w))
                   for w in range(4) if w != v]
        total += formal_gauss_bonnet(corners, 3)
    assert total == 0


def test_slot_of():
    assert slot_of(0, 1) == slot_of(2, 3) == 0
    assert slot_of(0, 2) == slot_of(1, 3) == 1
    assert slot_of(0, 3) == slot_of(1, 2) == 2
