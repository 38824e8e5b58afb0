from fractions import Fraction

import pytest

from essedge.gaussian import (GaussianRational, parse_gaussian,
                              format_gaussian, ProjectivePoint, INFINITY,
                              point, cross_ratio_shape, fourth_vertex,
                              Moebius, moebius_from_triples, moebius_between,
                              ONE, I)

SLOT_ORDERS = ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def test_parse_format_round_trip():
    for text in ["2*i", "-1+2*i", "3/5+1/5*i", "-1", "1/5+2/5*i", "2",
                 "1/2+1/2*i", "0", "-i", "7/3"]:
        z = parse_gaussian(text)
        assert parse_gaussian(format_gaussian(z)) == z


def test_field_operations():
    a = parse_gaussian("3/5+1/5*i")
    b = parse_gaussian("-1+2*i")
    assert (a * b) / b == a
    assert a + b - b == a
    assert (ONE / a) * a == ONE
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0)


def test_triple_product_identity():
    for text in ["2*i", "-1+2*i", "3/5+1/5*i", "-1", "2"]:
        z = parse_gaussian(text)
        zp = ONE / (ONE - z)
        zpp = ONE - ONE / z
        assert z * zp * zpp == GaussianRational(-1)


def test_real_values_hash_as_their_numbers():
    for value in (3, Fraction(-7, 5), 0):
        z = GaussianRational(value)
        assert z == value
        assert hash(z) == hash(value)
        assert len({z, value}) == 1
        assert {value: "x"}.get(z) == "x"
    assert len({GaussianRational(3, 1), GaussianRational(3)}) == 2


def test_projective_points():
    assert point(2) == ProjectivePoint(4, 2)
    assert INFINITY == ProjectivePoint(5, 0)
    assert point(2) != INFINITY


def test_placement_realises_slot_values():
    z = parse_gaussian("2*i")
    zp = ONE / (ONE - z)
    zpp = ONE - ONE / z
    positions = [point(0), point(1), INFINITY, ProjectivePoint(zp, ONE)]
    values = [cross_ratio_shape(*(positions[v] for v in order))
              for order in SLOT_ORDERS]
    assert values == [z, zp, zpp]


def test_fourth_vertex_inverts_cross_ratio():
    z = parse_gaussian("1/5+2/5*i")
    positions = [point(0), point(1), INFINITY,
                 ProjectivePoint(ONE / (ONE - z), ONE)]
    for k in range(4):
        partial = list(positions)
        partial[k] = None
        assert fourth_vertex(partial, z) == positions[k]


def test_moebius_triples():
    a = (point(0), point(1), INFINITY)
    b = (point(3), point(parse_gaussian("1+i")), point(-2))
    m = moebius_from_triples(a, b)
    assert tuple(m(p) for p in a) == b
    assert m.inverse().compose(m).is_identity()


def test_moebius_between():
    ps = (point(0), point(1), INFINITY, point(parse_gaussian("2*i")))
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
    assert t.parabolic_fixed_point() == INFINITY
    s = moebius_from_triples((point(0), point(1), INFINITY),
                             (point(1), point(2), INFINITY))
    assert s.is_parabolic()
    rot = Moebius(0, -1, 1, 0)  # z -> -1/z, elliptic
    assert not rot.is_parabolic()
