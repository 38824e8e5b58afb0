"""
The benchmark's layer trace (`bench/spans.py`) against the library: every
function and method it wraps or counts still exists, its outcome observers
accept their functions' signatures, tracing changes no answer, and the
group-search layers a pillow certification reaches record calls.
"""
import sys
from pathlib import Path

import essedge
from essedge import Budget, parse_triangulation
from essedge.certify import ALL_METHODS, certify_strongly_essential
from essedge.moves import pillow_0_2
from conftest import fixture_text

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import spans  # noqa: E402

A5 = Budget(coset_nodes=100, rewrite_steps=100, quotient_degree=2,
            quotient_nodes=100, factor_depth=3, factor_nodes=200)
SMALL = Budget(coset_nodes=200, rewrite_steps=50, quotient_degree=3,
               quotient_nodes=200, factor_depth=2, factor_nodes=50)


def test_every_traced_name_resolves():
    for _layer, module, name, _observe in spans.SPANS:
        assert callable(getattr(sys.modules[module], name)), (module, name)
    for _layer, module, cls, name in spans.METHOD_SPANS:
        assert callable(vars(getattr(sys.modules[module], cls))[name]), name
    for _tally, module, name in spans.COUNTERS:
        assert callable(getattr(sys.modules[module], name)), (module, name)


def test_traced_certifications_answer_as_untraced():
    """A pillow output of m136 at the A5 budget and q8 at a small budget,
    certified with and without the trace: the same verdict JSON, no span
    raised, and the spine's methods, the decider, coset, quotient and
    factorisation layers and the pivot counter all record calls."""
    m136 = parse_triangulation(fixture_text("m136.tri"))
    pillow, _ = pillow_0_2(m136, 2, (3, 4))
    q8 = parse_triangulation(fixture_text("q8.tri"))
    cases = ((pillow, A5, ("angle", "homology", "group")),
             (q8, SMALL, ALL_METHODS))

    def certify_all():
        # through the module attribute, as the benchmark's cases call it,
        # since tracing rebinds the names the essedge modules hold
        return [essedge.certify.certify_strongly_essential(
                    tri, budget, methods=methods).to_json()
                for tri, budget, methods in cases]

    untraced = certify_all()
    rec = spans.Recorder()
    with spans.traced(rec):
        traced = certify_all()
    assert (essedge.certify.certify_strongly_essential
            is certify_strongly_essential)
    assert traced == untraced
    raised = {name: n for name, n in rec.tally.items()
              if name.endswith(".raised.hits") and n}
    assert raised == {}
    for layer in ("certify", "fundamental", "decide", "coset",
                  "decide.quotient", "decide.factor"):
        assert rec.calls[layer] > 0, layer
    assert rec.tally["linprog.pivots"] > 0
