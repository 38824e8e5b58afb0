import sys
from collections import Counter

import pytest

import essedge.develop
import essedge.fundamental
import essedge.shapes
from essedge import Triangulation, build_skeleton
from essedge.certify import (certify_essential, certify_strongly_essential,
                             CertifyError)
from essedge.decide import Budget
from essedge.moves import pillow_0_2


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
