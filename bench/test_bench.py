"""Tests of the benchmark itself: seeded inputs, the gate and the trace."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import essedge  # noqa: E402
import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from essedge import build_skeleton, certify_strongly_essential  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _inputs(cases):
    return ([c.tri.to_json() for c in cases],
            [None if c.shapes is None else list(c.shapes.shapes)
             for c in cases])


@pytest.mark.parametrize("name", [w["name"] for w in DECLARED["workloads"]])
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name]
    assert _inputs(make(7)) == _inputs(make(7))
    assert _inputs(make(7)) != _inputs(make(8))


def test_inputs_have_their_workload_shape():
    for case in workloads.closed_walk(3):
        skeleton = build_skeleton(case.tri)
        assert skeleton.classification == "closed_manifold_1vertex"
        assert case.tri.tet_count == workloads.WALK_SIZE
    pillows = workloads.pillow_sweep(3)
    assert len(pillows) == 123
    for case in pillows:
        skeleton = build_skeleton(case.tri)
        assert skeleton.edge_classes[case.degree2_edge].degree == 2


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "cusped_geometry", "--seed", "1", "--seconds", "0", "--trace",
         trace], capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[kind]}
    assert result["correct"] and result["failed"] == 0


def _untraced_references():
    """(module, attribute) pairs of essedge modules that still hold a traced
    function unwrapped: call sites whose spans would go missing."""
    originals = set()
    for _layer, module, name, _observe in spans.SPANS:
        fn = getattr(sys.modules[module], name)
        originals.add(id(getattr(fn, "__wrapped__", fn)))
    return [(name, attr) for name, module in list(sys.modules.items())
            if name == "essedge" or name.startswith("essedge.")
            for attr, value in vars(module).items() if id(value) in originals]


def test_tracing_rebinds_every_import():
    rec = spans.Recorder()
    original = essedge.certify.solve_angle_lp
    assert ("essedge.certify", "solve_angle_lp") in _untraced_references()
    with spans.traced(rec):
        assert _untraced_references() == []
        assert essedge.decide.coset_enumeration is (
            essedge.coset.coset_enumeration)
        assert hasattr(essedge.decide.coset_enumeration, "__wrapped__")
        case = workloads.cusped_geometry(0)[0]
        case.certify()
    assert essedge.certify.solve_angle_lp is original
    assert rec.calls["angles"] == 2 and rec.calls["develop"] == 1
    assert rec.calls["fundamental"] > 0


def test_gate_fails_contradictions():
    q8 = workloads.Case(
        essedge.parse_triangulation(workloads.fixture("q8.tri")),
        workloads.CLOSED_BUDGET, workloads.ALL_METHODS)
    verdict = q8.certify()
    assert gate.check(q8, verdict, {}).failure is None
    recorded = gate.answers(verdict)
    assert gate.check(q8, verdict, {q8.key: recorded}).failure is None

    recorded["edges"][0] = "no"
    assert "edge 0" in gate.check(q8, verdict, {q8.key: recorded}).failure

    verdict.edge_verdicts[0].essential = "no"
    assert "replay" in gate.check(q8, verdict, {}).failure

    pillow = workloads.pillow_sweep(0)[0]
    verdict = certify_strongly_essential(pillow.tri, pillow.budget,
                                         methods=pillow.methods)
    assert gate.check(pillow, verdict, {}).failure is None
    verdict.strongly_essential = "yes"
    assert "strongly" in gate.check(pillow, verdict, {}).failure
    assert "raised" in gate.check(pillow, ValueError("x"), {}).failure
