import sys
from collections import Counter

import pytest

import essedge.angles
import essedge.decide
import essedge.develop
import essedge.fundamental
import essedge.linprog
import essedge.shapes
import essedge.snf
from essedge import (ShapeAssignment, Triangulation, build_skeleton,
                     parse_triangulation)
from essedge.certify import (certify_essential, certify_strongly_essential,
                             CertifyError)
from essedge.decide import Budget
from essedge.fundamental import presentation_spine
from essedge.moves import pillow_0_2
from essedge.presentation import homology
from conftest import fixture_text


def test_m136_essential_semi_angle(m136_skeleton):
    verdict = certify_essential(m136_skeleton)
    assert verdict.essential == "yes"
    assert all(v.certificate["kind"] == "semi_angle"
               for v in verdict.edge_verdicts)


def test_fig8_strongly_essential_strict(fig8_skeleton):
    verdict = certify_strongly_essential(fig8_skeleton)
    assert verdict.strongly_essential == "yes"
    assert verdict.essential == "yes"
    assert all(v.certificate["kind"] == "strict_angle"
               for v in verdict.edge_verdicts)


def test_m136_strongly_essential_geometric(m136_skeleton, m136_shapes):
    verdict = certify_strongly_essential(m136_skeleton, shapes=m136_shapes)
    assert verdict.strongly_essential == "yes"
    assert verdict.essential == "yes"
    # strict angle structures are unavailable, so the flat-cluster scan
    # must have carried the verdict
    assert any("strict optimum 0" in line for line in verdict.method_log)
    assert any("flat-cluster scan conclusive" in line
               for line in verdict.method_log)
    assert all(state == "not_parallel"
               for state, _ in verdict.pair_table.values())


def test_q8_essential_group(q8_skeleton):
    verdict = certify_essential(q8_skeleton)
    assert verdict.essential == "yes"
    assert all(v.certificate["kind"] in ("homology", "group_word")
               for v in verdict.edge_verdicts)


def test_q8_strongly_essential(q8_skeleton):
    verdict = certify_strongly_essential(q8_skeleton)
    assert verdict.strongly_essential == "yes"


def test_pillow_output_not_strongly_essential(m136, m136_skeleton,
                                              m136_shapes):
    out, record = pillow_0_2(m136, 0, (0, 1), m136_skeleton)
    budget = Budget(coset_nodes=500, rewrite_steps=500,
                    quotient_degree=2, quotient_nodes=500,
                    factor_depth=4, factor_nodes=2000)
    verdict = certify_strongly_essential(build_skeleton(out), budget)
    assert verdict.strongly_essential != "yes"


def test_methods_filter(m136_skeleton):
    verdict = certify_essential(m136_skeleton, methods=("angle",))
    assert verdict.essential == "yes"
    no_methods = certify_essential(m136_skeleton, methods=())
    assert no_methods.essential == "unknown"


@pytest.mark.parametrize("methods", [("angles",), "eometry,grou", "group",
                                     ("group", "bogus"), ["homology", None]])
def test_methods_outside_the_tiers_are_rejected(fig8, methods):
    """A bare string or any name outside ALL_METHODS is an error, not a
    filter that runs no tier or matches names by substring."""
    for certify in (certify_essential, certify_strongly_essential):
        with pytest.raises(CertifyError, match="methods"):
            certify(fig8, methods=methods)
    assert certify_essential(fig8, methods=["angle"]).essential == "yes"


def test_group_only_agrees_with_angle_certificates(m136_skeleton):
    """Verdict consistency: the group pipeline, run on its own with a
    modest budget, never contradicts the angle certificate."""
    angle = certify_essential(m136_skeleton, methods=("angle",))
    budget = Budget(coset_nodes=3000, rewrite_steps=3000,
                    quotient_degree=3, quotient_nodes=3000)
    group = certify_essential(m136_skeleton, budget,
                              methods=("homology", "group"))
    assert angle.essential == "yes"
    for v in group.edge_verdicts:
        assert v.essential in ("yes", "unknown")


def test_mixed_classification_rejected():
    tri = Triangulation(1, [[None] * 4])
    with pytest.raises(CertifyError):
        certify_essential(tri)


def test_verdict_json(fig8_skeleton):
    verdict = certify_strongly_essential(fig8_skeleton)
    doc = verdict.to_json()
    assert doc["essential"] == "yes"
    assert doc["strongly_essential"] == "yes"
    assert len(doc["edges"]) == 2


def test_determinism(m136_skeleton, m136_shapes):
    a = certify_strongly_essential(m136_skeleton, shapes=m136_shapes)
    b = certify_strongly_essential(m136_skeleton, shapes=m136_shapes)
    assert a.to_json() == b.to_json()


def _count_calls(monkeypatch, fn, calls):
    """Count calls of fn through every essedge module holding it."""
    def counted(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "essedge" or name.startswith("essedge."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize("name, with_shapes, methods", [
    ("m136", True, ("geometry", "group")),
    ("m136", False, ("homology", "geometry")),
    ("q8", False, ("angle", "homology", "geometry", "group")),
])
def test_each_fact_computed_once(request, monkeypatch, m136_shapes, name,
                                 with_shapes, methods):
    """The edge pass and the pair pass share the presentation, the spine,
    the shape solution and the development."""
    calls = Counter()
    for fn in (essedge.fundamental.presentation_closed,
               essedge.shapes.solve_shapes_newton,
               essedge.shapes.verify_shapes,
               essedge.develop.develop_and_scan):
        _count_calls(monkeypatch, fn, calls)
    spine_init = essedge.fundamental.SpineData.__init__

    def counted_init(self, *args):
        calls["SpineData"] += 1
        spine_init(self, *args)

    monkeypatch.setattr(essedge.fundamental.SpineData, "__init__",
                        counted_init)
    skeleton = request.getfixturevalue(name + "_skeleton")
    verdict = certify_strongly_essential(
        skeleton, shapes=m136_shapes if with_shapes else None,
        methods=methods)
    assert set(calls.values()) <= {1}, calls
    assert len(set(verdict.method_log)) == len(verdict.method_log)


def test_one_angle_lp_per_certification(monkeypatch, m136_shapes):
    """A certification asks the angle LP twice, strict and then semi in its
    edge pass, and both read the skeleton's one solve.  The triangulation
    is parsed afresh, so no shared skeleton holds the LP already."""
    calls = Counter()
    for fn in (essedge.linprog.solve_lp, essedge.angles.solve_angle_lp):
        _count_calls(monkeypatch, fn, calls)
    m136 = parse_triangulation(fixture_text("m136.tri"))
    verdict = certify_strongly_essential(m136, shapes=m136_shapes)
    assert verdict.strongly_essential == "yes"
    assert calls == {"solve_lp": 1, "solve_angle_lp": 2}


def test_no_abelianisation_in_certification(monkeypatch, m136_shapes):
    """Certification never takes a Smith normal form.  A pillow output at
    the A5 budget asks many abelian questions, of edges and pairs alike,
    and answers every one on exponent vectors; m136 with its shapes reads
    its cusp's peripheral pair off the link graph; closed q8 asks its
    group questions under every method.  The spy does count the Smith
    normal form that `homology` takes."""
    calls = Counter()
    _count_calls(monkeypatch, essedge.snf.smith_normal_form, calls)
    _count_calls(monkeypatch, essedge.decide.abelian_separation, calls)
    m136 = parse_triangulation(fixture_text("m136.tri"))
    pillow, _ = pillow_0_2(m136, 2, (3, 4))
    budget = Budget(coset_nodes=100, rewrite_steps=100, quotient_degree=2,
                    quotient_nodes=100, factor_depth=3, factor_nodes=200)
    certify_strongly_essential(pillow, budget,
                               methods=("angle", "homology", "group"))
    assert calls["abelian_separation"] > 1
    verdict = certify_strongly_essential(m136, shapes=m136_shapes)
    assert verdict.strongly_essential == "yes"
    q8 = parse_triangulation(fixture_text("q8.tri"))
    assert certify_strongly_essential(q8).strongly_essential == "yes"
    assert calls["smith_normal_form"] == 0
    assert homology(presentation_spine(m136)) == (2, 2, 0)
    assert calls["smith_normal_form"] == 1


def test_group_searches_built_once_per_certification(monkeypatch):
    """A pillow certification at the A5 budget asks many questions of few
    subgroups: each coset attempt, keyed by subgroup words and cap, and
    each factorisation product table, keyed by words, depth and node
    budget, is built exactly once."""
    built = Counter()
    enumerate_cosets = essedge.decide.coset_enumeration
    product_table = essedge.decide._product_table

    def counted_cosets(presentation, words=(), max_cosets=10000):
        built["coset", tuple(map(tuple, words)), max_cosets] += 1
        return enumerate_cosets(presentation, words, max_cosets=max_cosets)

    def counted_table(words, depth, nodes):
        built["factor", tuple(map(tuple, words)), depth, nodes] += 1
        return product_table(words, depth, nodes)

    monkeypatch.setattr(essedge.decide, "coset_enumeration", counted_cosets)
    monkeypatch.setattr(essedge.decide, "_product_table", counted_table)
    questions = Counter()
    _count_calls(monkeypatch, essedge.decide.decide_double_coset, questions)
    m136 = parse_triangulation(fixture_text("m136.tri"))
    pillow, _ = pillow_0_2(m136, 2, (3, 4))
    budget = Budget(coset_nodes=100, rewrite_steps=100, quotient_degree=2,
                    quotient_nodes=100, factor_depth=3, factor_nodes=200)
    certify_strongly_essential(pillow, budget,
                               methods=("angle", "homology", "group"))
    assert {key[0] for key in built} == {"coset", "factor"}
    assert set(built.values()) == {1}, built.most_common(3)
    assert questions["decide_double_coset"] > 2 * len(built)


def test_lattices_built_once_per_certification(monkeypatch):
    """Every exponent lattice of a pillow certification at the A5 budget,
    keyed by its set of vectors and whether it holds the relator rows, is
    echelonised once.  The edge classes, the edge questions and the pair
    questions, whose subgroups are conjugates of the one cusp's
    peripheral subgroup, all read the one lattice of the cusp."""
    built = Counter()
    store = essedge.decide._built

    def counted(presentation, key, build):
        def counted_build():
            built[key] += 1
            return build()
        return store(presentation, key, counted_build)

    monkeypatch.setattr(essedge.decide, "_built", counted)
    questions = Counter()
    _count_calls(monkeypatch, essedge.decide.abelian_separation, questions)
    m136 = parse_triangulation(fixture_text("m136.tri"))
    pillow, _ = pillow_0_2(m136, 2, (3, 4))
    skeleton = build_skeleton(pillow)
    budget = Budget(coset_nodes=100, rewrite_steps=100, quotient_degree=2,
                    quotient_nodes=100, factor_depth=3, factor_nodes=200)
    verdict = certify_strongly_essential(
        skeleton, budget, methods=("angle", "homology", "group"))
    assert set(built.values()) == {1}, built.most_common(3)
    spine = essedge.fundamental.SpineData(skeleton)
    cusp = tuple(sorted({tuple(spine.presentation.exponent_vector(w))
                         for w in spine.peripheral(0).words}))
    lattices = {key for key in built if key[0] == "lattice"}
    assert {key for key in lattices if key[2]} == {("lattice", cusp, True)}
    assert questions["abelian_separation"] > 2 * len(lattices)
    separated = [c for state, c in verdict.pair_table.values()
                 if state == "not_parallel"]
    assert separated and all(c == {"kind": "homology"} for c in separated)


def test_pair_values_shared_within_a_certification(m136, m136_skeleton):
    """A pillow verdict holds one (state, certificate) tuple per state and
    witness-free certificate, and pair keys shared across certifications;
    its JSON is the golden file's."""
    import json
    import record_verdicts
    methods = ("angle", "homology", "group")
    golden = next(r for r in json.loads(record_verdicts.GOLDEN.read_text())
                  if (r["input"], r["methods"], r["mode"])
                  == ("m136 pillow 0 (0, 1)", list(methods), "strongly"))
    tri, _record = pillow_0_2(m136, 0, (0, 1), m136_skeleton)
    verdict, again = (certify_strongly_essential(
        tri, record_verdicts.BUDGET, methods=methods) for _ in range(2))
    assert json.loads(json.dumps(verdict.to_json())) == golden["verdict"]
    values = list(verdict.pair_table.values())
    kinds = {c["kind"] for _, c in values}
    assert kinds == {"homology", "budget_exhausted"}
    assert len({id(c) for _, c in values}) == len(kinds)
    assert len({id(v) for v in values}) == 2
    assert all(a is b for a, b in zip(verdict.pair_table, again.pair_table))


def test_slot_values_derived_once(monkeypatch, m136_skeleton, m136_shapes):
    """The shape checks of a certification and the development all read
    one slot table, derived with one call per tetrahedron, straight from
    the shapes: the rational slot values are never formed."""
    calls = Counter()
    _count_calls(monkeypatch, essedge.shapes._slot_pairs, calls)
    _count_calls(monkeypatch, essedge.shapes.slot_values, calls)
    shapes = ShapeAssignment(m136_shapes.shapes)
    verdict = certify_strongly_essential(m136_skeleton, shapes=shapes)
    assert any("flat-cluster scan conclusive" in line
               for line in verdict.method_log)
    assert calls["_slot_pairs"] == len(shapes) == 7
    assert calls["slot_values"] == 0


def test_verified_shapes_make_every_edge_essential(monkeypatch, m136_skeleton,
                                                   m136_shapes):
    """The geometric edge tier reads the verified solution alone: it
    develops nothing."""
    calls = Counter()
    _count_calls(monkeypatch, essedge.develop.develop_and_scan, calls)
    verdict = certify_essential(m136_skeleton, shapes=m136_shapes,
                                methods=("geometry",))
    assert verdict.essential == "yes"
    assert [v.certificate for v in verdict.edge_verdicts] == [
        {"kind": "geometric_endpoints"}] * 7
    assert calls["develop_and_scan"] == 0


def test_floating_shapes_are_rejected(m136_skeleton, m136_shapes):
    """Shapes are exact or rejected: floating ones raise where the
    geometric tier reads them, instead of being skipped."""
    floats = [complex(z) for z in m136_shapes.shapes]
    for certify in (certify_essential, certify_strongly_essential):
        with pytest.raises(essedge.shapes.ShapeError, match="exact"):
            certify(m136_skeleton, shapes=floats, methods=("geometry",))


def test_supplied_shapes_are_validated_at_once(fig8_skeleton, q8_skeleton,
                                              m136_shapes):
    """Shapes are checked when a certification starts, whatever tier would
    read them: a strict angle structure decides fig8 first, and a closed
    triangulation has no geometric tier."""
    floats = [0.5 + 0.86j] * 2
    for certify in (certify_essential, certify_strongly_essential):
        with pytest.raises(essedge.shapes.ShapeError, match="exact"):
            certify(fig8_skeleton, shapes=floats)
        with pytest.raises(essedge.shapes.ShapeError, match="expected 2"):
            certify(fig8_skeleton, shapes=m136_shapes)
        with pytest.raises(CertifyError, match="closed"):
            certify(q8_skeleton, shapes=[])


def test_supplied_shapes_converted_once(monkeypatch, m136_skeleton,
                                        m136_shapes):
    """The geometric tier reads the one `ShapeAssignment` made from the
    supplied shapes when the certification started."""
    calls = Counter()
    init = ShapeAssignment.__init__

    def counted(self, shapes):
        calls["ShapeAssignment"] += 1
        init(self, shapes)

    monkeypatch.setattr(ShapeAssignment, "__init__", counted)
    verdict = certify_strongly_essential(m136_skeleton,
                                         shapes=list(m136_shapes.shapes))
    assert verdict.strongly_essential == "yes"
    assert calls["ShapeAssignment"] == 1


def test_negatively_oriented_solution_skipped(m136_skeleton, m136_shapes):
    """No fixture has a verified negatively oriented solution, so this
    only shows that the guard fires before anything is verified."""
    shapes = list(m136_shapes.shapes)
    shapes[0] = shapes[0].conjugate()
    for certify in (certify_essential, certify_strongly_essential):
        verdict = certify(m136_skeleton, shapes=ShapeAssignment(shapes),
                          methods=("geometry",))
        assert verdict.method_log == [
            "geometry: negatively oriented tetrahedra [0]; skipped"]
        certificates = ([v.certificate for v in verdict.edge_verdicts]
                        + [c for _, c in verdict.pair_table.values()])
        assert not any(c["kind"].startswith("geometric")
                       for c in certificates)


@pytest.mark.parametrize("methods", [(), ("homology",)])
def test_closed_case_honours_methods(monkeypatch, q8_skeleton, methods):
    """Without the group tier a closed triangulation asks no group
    question; with homology named its abelianisation step runs alone, for
    the edges and the pairs."""
    calls = Counter()
    _count_calls(monkeypatch, essedge.decide.decide_double_coset, calls)
    verdict = certify_strongly_essential(q8_skeleton, methods=methods)
    assert calls["decide_double_coset"] == 0
    certificates = ([v.certificate for v in verdict.edge_verdicts]
                    + [c for _, c in verdict.pair_table.values()])
    if methods:
        # every edge of q8, and the first word i·j^-1 of every pair, is
        # separated in homology, in the form the group decider gives
        assert verdict.strongly_essential == "yes"
        assert all(state == "not_parallel"
                   for state, _ in verdict.pair_table.values())
        for c in certificates:
            assert c["kind"] == "homology"
            assert c["detail"]["kind"] == "abelianization"
    else:
        assert verdict.strongly_essential == "unknown"
        assert all(state == "unknown"
                   for state, _ in verdict.pair_table.values())
        assert all(c == {"kind": "budget_exhausted"} for c in certificates)


def test_unasked_edge_names_no_budget(m136_skeleton):
    """An unknown names the budget only after a group search ran out of
    it."""
    for certify in (certify_essential, certify_strongly_essential):
        verdict = certify(m136_skeleton, methods=())
        assert [v.certificate for v in verdict.edge_verdicts] == [
            {"kind": "budget_exhausted"}] * 7
    budget = Budget(coset_nodes=10, rewrite_steps=10, quotient_degree=2,
                    quotient_nodes=10, factor_depth=1, factor_nodes=10)
    searched = certify_essential(m136_skeleton, budget, methods=("group",))
    unknown = [v.certificate for v in searched.edge_verdicts
               if v.essential == "unknown"]
    assert unknown and all(c["budget"] == budget.to_json() for c in unknown)


def test_ideal_pair_decided_by_homology(monkeypatch, m136_skeleton):
    """The pair pass has the homology tier too: abelianisation separates
    some pairs of m136 with no group search."""
    calls = Counter()
    _count_calls(monkeypatch, essedge.decide.decide_double_coset, calls)
    verdict = certify_strongly_essential(m136_skeleton,
                                         methods=("homology",))
    assert calls["decide_double_coset"] == 0
    separated = [c for state, c in verdict.pair_table.values()
                 if state == "not_parallel"]
    assert separated
    assert all(c == {"kind": "homology"} for c in separated)
    assert len({id(c) for c in separated}) == 1


@pytest.mark.parametrize("name, with_shapes, methods, strongly, kinds", [
    ("m136", True, ("angle", "geometry"), True,
     ["geometric_scan", "semi_angle"]),
    ("m136", True, ("geometry",), False, ["geometric_endpoints"]),
    ("fig8", False, ("angle",), True, ["strict_angle"]),
    ("pillow", False, ("angle", "homology", "group"), True,
     ["budget_exhausted", "homology", "semi_angle"]),
])
def test_global_certificate_stored_once(request, m136, m136_shapes, name,
                                        with_shapes, methods, strongly,
                                        kinds):
    """Every edge or pair one witness-free certificate decides holds that
    one object: a global certificate, or a tier's certificate without
    detail, such as an ideal pair's homology or an unknown's."""
    certify = certify_strongly_essential if strongly else certify_essential
    budget = None
    if name == "pillow":
        tri, _record = pillow_0_2(m136, 0, (0, 1),
                                  request.getfixturevalue("m136_skeleton"))
        skeleton = build_skeleton(tri)
        budget = Budget(coset_nodes=100, rewrite_steps=100,
                        quotient_degree=2, quotient_nodes=100,
                        factor_depth=3, factor_nodes=200)
    else:
        skeleton = request.getfixturevalue(name + "_skeleton")
    verdict = certify(skeleton, budget,
                      shapes=m136_shapes if with_shapes else None,
                      methods=methods)
    certificates = ([v.certificate for v in verdict.edge_verdicts]
                    + [c for _, c in verdict.pair_table.values()])
    assert sorted({c["kind"] for c in certificates}) == kinds
    for kind in kinds:
        assert len({id(c) for c in certificates if c["kind"] == kind}) == 1
