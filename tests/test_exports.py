import essedge

REMOVED = ("GluingSystem", "build_gluing_system")


def test_every_export_resolves():
    missing = [name for name in essedge.__all__
               if not hasattr(essedge, name)]
    assert missing == []
    assert len(set(essedge.__all__)) == len(essedge.__all__)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in essedge.__all__
        assert not hasattr(essedge, name)
        assert not hasattr(essedge.shapes, name)


def test_shapes_hold_one_exact_form():
    shapes = essedge.parse_shapes("i")
    report = essedge.verify_shapes(essedge.Triangulation(1, [[None] * 4]),
                                   shapes)
    for name in ("exact", "as_complex", "slot_value"):
        assert not hasattr(shapes, name)
    assert not hasattr(report, "exact")
    assert essedge.PeripheralSystem._fields == ("words", "curves")
