import cmath
import math

import pytest

from essedge import Triangulation
from essedge.gaussian import parse_gaussian, GaussianRational
from essedge.shapes import (ShapeAssignment, parse_shapes, verify_shapes,
                            completeness_products, slot_values,
                            solve_shapes_newton, shapes_to_angles,
                            ShapeError, NewtonError, _gluing_equations,
                            _log_residual)
from essedge.angles import build_angle_system


def test_parse_shapes_text_and_json(m136_shapes):
    assert len(m136_shapes) == 7
    again = parse_shapes('{"shapes": ["2*i", "-1"]}')
    assert again.shapes[0] == parse_gaussian("2*i")


def test_degenerate_shape_rejected():
    with pytest.raises(ShapeError):
        ShapeAssignment([parse_gaussian("0")])
    with pytest.raises(ShapeError):
        ShapeAssignment([parse_gaussian("1")])


def test_m136_edge_zero_product_by_hand(m136_skeleton, m136_shapes):
    # (2i)(2i)((-1+i)/2)((1+i)/4) = 1 around the first edge
    report = verify_shapes(m136_skeleton, m136_shapes)
    product = report.edge_products[0]
    assert product == GaussianRational(1)
    values = [parse_gaussian(s) for s in
              ("2*i", "2*i", "-1/2+1/2*i", "1/4+1/4*i")]
    acc = GaussianRational(1)
    for v in values:
        acc = acc * v
    assert acc == GaussianRational(1)
    assert abs(report.edge_argument_sums[0] - 2.0) < 1e-12


def test_m136_verify_all_edges(m136_skeleton, m136_shapes):
    report = verify_shapes(m136_skeleton, m136_shapes)
    assert all(p == 1 for p in report.edge_products)
    assert report.arguments_ok()
    assert report.flat == [3, 5]
    assert report.passed


def test_m136_alternate_slot_convention_fails(m136_skeleton, m136_shapes):
    """Swapping the slot-1 and slot-2 values breaks the edge products, so
    exactly one convention is compatible with the fixture data."""
    from essedge.skeleton import slot_of
    swapped_total = []
    for e in m136_skeleton.edge_classes:
        acc = GaussianRational(1)
        for t, (a, b) in e.corners:
            slot = slot_of(a, b)
            slot = {0: 0, 1: 2, 2: 1}[slot]
            acc = acc * m136_shapes.slots[3 * t + slot]
        swapped_total.append(acc)
    assert any(p != 1 for p in swapped_total)


def test_m136_completeness_exact(m136_skeleton, m136_shapes):
    products = completeness_products(m136_skeleton, m136_shapes)
    assert len(products) == 2
    assert all(p == GaussianRational(1) for p in products)


@pytest.mark.parametrize("count", [6, 8])
def test_completeness_checks_shape_count(m136_skeleton, m136_shapes, count):
    shapes = (list(m136_shapes.shapes) * 2)[:count]
    with pytest.raises(ShapeError, match="expected 7 shapes"):
        completeness_products(m136_skeleton, shapes)


def test_constant_i_fails_on_wrong_degrees(m136_skeleton):
    shapes = ShapeAssignment([parse_gaussian("i")] * 7)
    report = verify_shapes(m136_skeleton, shapes)
    bad = [e.index for e, p in zip(m136_skeleton.edge_classes,
                                   report.edge_products) if p != 1]
    assert bad  # m136 has edges of degree other than 4


def test_gluing_system_rejects_sphere_links(q8_skeleton):
    with pytest.raises(ShapeError):
        _gluing_equations(q8_skeleton)


def test_gluing_system_row_counts(fig8_skeleton, m136_skeleton):
    edge_rows = fig8_skeleton.edge_rows
    assert len(edge_rows) == 2
    for row, e in zip(edge_rows, fig8_skeleton.edge_classes):
        assert sum(row) == e.degree == 6
    # each tetrahedron contributes all six edge ends across the edge rows
    for t in range(2):
        total = sum(row[3 * t + s] for row in edge_rows for s in range(3))
        assert total == 6
    _skeleton, rows, targets = _gluing_equations(fig8_skeleton)
    assert rows[:2] == edge_rows and len(rows) == 4
    assert targets == [2j * math.pi] * 2 + [0j] * 2
    assert [sum(r) for r in m136_skeleton.edge_rows] == [4, 4, 10, 10, 6, 4, 4]


def test_m136_edge0_row_slots(m136_skeleton):
    # corners 0(01), 4(30), 2(21), 1(31): slots 0, 2, 2, 1
    _skeleton, rows, _targets = _gluing_equations(m136_skeleton)
    row = rows[0]
    hits = {(col // 3, col % 3): k for col, k in enumerate(row) if k}
    assert hits == {(0, 0): 1, (4, 2): 1, (2, 2): 1, (1, 1): 1}


def test_fig8_newton(fig8_skeleton):
    solution = solve_shapes_newton(fig8_skeleton)
    target = complex(0.5, math.sqrt(3.0) / 2.0)
    for z in solution:
        assert abs(z - target) < 1e-9
    _skeleton, rows, targets = _gluing_equations(fig8_skeleton)
    residuals = _log_residual(rows, targets, solution)
    assert all(abs(r) < 1e-12 for r in residuals)


def test_newton_needs_cusp_rows(fig8_skeleton):
    """Edge equations alone have a positive-dimensional solution set; the
    two completeness rows pin the complete structure (checked by the
    residual of the full system at a gluing-variety point that is not
    complete)."""
    _skeleton, rows, targets = _gluing_equations(fig8_skeleton)
    # z1 = z2 = i satisfies both edge equations of the figure-8 gluing
    # variety only approximately; instead take the one-parameter family
    # z1 = z, z2 = w with the edge equation and check completeness fails
    # away from the complete point
    zs = solve_shapes_newton(fig8_skeleton)
    perturbed = [zs[0] * 1.05, zs[1]]
    residuals = _log_residual(rows, targets, perturbed)
    assert any(abs(r) > 1e-6 for r in residuals)


def test_newton_tol_zero_diverges(fig8_skeleton):
    with pytest.raises(NewtonError):
        solve_shapes_newton(fig8_skeleton, tol=0.0)


def test_m136_newton_boundary_sensitive(m136_skeleton):
    """Flat tetrahedra sit on the boundary of the log-equation domain;
    Newton from the all-i start either converges or honestly reports
    failure."""
    try:
        solution = solve_shapes_newton(m136_skeleton, max_iter=60)
    except (NewtonError, ShapeError):
        return
    _skeleton, rows, targets = _gluing_equations(m136_skeleton)
    residuals = _log_residual(rows, targets, solution)
    assert all(abs(r) < 1e-12 for r in residuals)


def test_shapes_to_angles_single_i():
    shapes = ShapeAssignment([parse_gaussian("i")])
    tri = Triangulation(1, [[None] * 4])
    angles = shapes_to_angles(verify_shapes(tri, shapes))
    assert angles == [0.5, 0.25, 0.25]


def test_shapes_to_angles_fig8(fig8_skeleton):
    solution = solve_shapes_newton(fig8_skeleton)
    angles = [cmath.phase(w) / math.pi
              for z in solution for w in slot_values(z)]
    assert len(angles) == 6
    assert all(abs(a - 1.0 / 3.0) < 1e-9 for a in angles)


def test_shapes_to_angles_m136(m136_skeleton, m136_shapes):
    angles = shapes_to_angles(verify_shapes(m136_skeleton, m136_shapes))
    system = build_angle_system(m136_skeleton)
    for row, rhs in zip(system.matrix, system.rhs):
        value = sum(c * a for c, a in zip(row, angles))
        assert abs(value - float(rhs)) < 1e-9
    flat_zero_slots = [i for i, a in enumerate(angles) if a == 0.0]
    assert set(flat_zero_slots) <= {9, 10, 11, 15, 16, 17}
    # each flat tetrahedron has exactly one pi and two zero slots
    for t in (3, 5):
        values = sorted(angles[3 * t: 3 * t + 3])
        assert values == [0.0, 0.0, 1.0]


def test_shapes_to_angles_rejects_bad(m136_skeleton):
    with pytest.raises(ShapeError):
        shapes_to_angles(verify_shapes(
            m136_skeleton, ShapeAssignment([parse_gaussian("i")] * 7)))
