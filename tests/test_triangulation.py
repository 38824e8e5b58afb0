import json

import pytest

from essedge import (Perm4, Triangulation, ParseError, parse_triangulation,
                     parse_table, to_table, are_isomorphic)


def test_perm4_group_axioms():
    perms = Perm4.all()
    assert len(perms) == 24
    identity = Perm4.identity()
    for p in perms:
        assert p * p.inverse() == identity
        assert p.inverse() * p == identity
        for q in perms:
            for r in perms:
                assert (p * q) * r == p * (q * r)
                break
    assert Perm4((3, 1, 2, 0)).inverse() == Perm4((3, 1, 2, 0))


def test_perm4_rejects_non_bijections():
    with pytest.raises(ValueError):
        Perm4((0, 0, 1, 2))


def test_table_row_interpretation(m136):
    # "Face 012: 1 (312)" on tetrahedron 0 glues face 3 to tetrahedron 1
    # with images 0->3, 1->1, 2->2, 3->0
    assert m136.gluing(0, 3) == (1, Perm4((3, 1, 2, 0)))
    # the mutual inverse appears in row 1 as "Face 123: 0 (120)"
    assert m136.gluing(1, 0) == (0, Perm4((3, 1, 2, 0)))


def test_empty_document():
    tri = parse_triangulation("tets: 0\n")
    assert tri.tet_count == 0
    assert tri.validate().valid


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_table("")
    with pytest.raises(ParseError):
        parse_table("tets: 1\n0: 5 (012) | 0 (013) | 0 (023) | 0 (123)")
    with pytest.raises(ParseError):
        parse_table("tets: 1\n0: 0 (001) | 0 (013) | 0 (023) | 0 (123)")
    with pytest.raises(ParseError):
        parse_table("tets: 2\n0: 1 (012) | 1 (013) | 1 (023) | 1 (123)")


def test_json_booleans_are_not_integers():
    """true and false are ints to Python, but not tetrahedron indices or
    vertex images: they would not round-trip through to_json."""
    glued = [0, [1, 0, 3, 2]]
    doc = {"tets": 1, "gluings": [[glued] * 4]}
    tri = parse_triangulation(json.dumps(doc))
    assert tri.to_json() == doc
    for forged in ({"tets": True, "gluings": doc["gluings"]},
                   {"tets": 1, "gluings": [[[True, [1, 0, 3, 2]]] * 4]},
                   {"tets": 1, "gluings": [[[0, [True, False, 3, 2]]] * 4]}):
        with pytest.raises(ParseError):
            parse_triangulation(json.dumps(forged))


def test_validate_m136(m136):
    assert m136.validate().valid


def test_validate_unglued():
    tri = Triangulation(1, [[None] * 4])
    report = tri.validate()
    assert not report.valid
    assert len(report.violations) == 4
    assert all(v[0] == "unglued" for v in report.violations)


def test_validate_mutual_inverse_violation():
    # (0, face 3) -> (1, sigma) but (1, sigma(3)) points elsewhere
    sigma = Perm4((3, 1, 2, 0))
    rows = [
        [None, None, None, (1, sigma)],
        [(0, Perm4((0, 1, 2, 3))), None, None, None],
    ]
    report = Triangulation(2, rows).validate()
    assert any(v[0] == "mutual_inverse" and (v[1], v[2]) == (0, 3)
               for v in report.violations)


def test_json_round_trip(m136):
    doc = json.dumps(m136.to_json())
    again = parse_triangulation(doc)
    assert again == m136


def test_table_round_trip(fig8):
    assert parse_triangulation(to_table(fig8)) == fig8


def test_isomorphic_to_itself(m136):
    iso = are_isomorphic(m136, m136)
    assert iso is not None


def test_isomorphism_recovers_relabelling(m136):
    n = m136.tet_count
    shift = [(t + 1) % n for t in range(n)]
    shifted = m136.relabelled(shift)
    iso = are_isomorphic(m136, shifted)
    assert iso is not None
    tet_map, vertex_maps = iso
    # the recovered isomorphism commutes with all gluings
    for t in range(n):
        for f in range(4):
            other, sigma = m136.gluing(t, f)
            other2, sigma2 = shifted.gluing(tet_map[t], vertex_maps[t](f))
            assert other2 == tet_map[other]
            assert sigma2 == vertex_maps[other] * sigma * vertex_maps[t].inverse()


def test_non_isomorphic_different_sizes(m136, fig8):
    assert are_isomorphic(m136, fig8) is None
