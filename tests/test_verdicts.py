"""The verdict JSON of a fixed set of certifications is unchanged, and
its definite answers never depend on which other methods run."""
import hashlib
import json
from collections import defaultdict

import pytest

import record_verdicts
from essedge.certify import certify_strongly_essential
from record_verdicts import BUDGET, GOLDEN, as_text, differences, records
from test_random_properties import _pillow_outputs

# sha256 of the verdict JSON of the 123 pillow outputs of m136, in site
# order, at the A5 budget (`record_verdicts.BUDGET`) with methods angle,
# homology and group; recorded before pairs were answered from edge classes
PILLOW_SWEEP_SHA256 = (
    "e8cedf3401a61fc60b63828a677e77c9bae8ec728cd49d6fdb8bf770756e2502")


def test_verdicts_match_golden_file():
    """Byte for byte; re-record with tests/record_verdicts.py only for a
    change that means to alter verdicts."""
    current, golden = records(), GOLDEN.read_text()
    if as_text(current) != golden:
        changed = differences(current, json.loads(golden))
        if not changed:
            pytest.fail("%s differs from the current output only in its "
                        "layout" % GOLDEN.name)
        (name, methods, mode), parts = changed[0]
        pytest.fail("%d records differ from %s; the first is %s under %s, "
                    "%s, in its %s (tests/record_verdicts.py --diff lists "
                    "them all)" % (len(changed), GOLDEN.name, name,
                                   list(methods), mode, ", ".join(parts)))


def test_pillow_sweep_matches_recorded_digest(m136):
    """Every verdict of the benchmark's pillow sweep, certificates and
    method log included, is unchanged: a change to any pair of any output
    fails here, not only at the benchmark's gate."""
    verdicts = [certify_strongly_essential(
        tri, BUDGET, methods=("angle", "homology", "group")).to_json()
        for tri in _pillow_outputs(m136)]
    assert len(verdicts) == 123
    text = json.dumps(verdicts, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PILLOW_SWEEP_SHA256


def _answers(verdict):
    """Every answer of a verdict, keyed by what it answers."""
    out = {"essential": verdict["essential"],
           "strongly_essential": verdict["strongly_essential"]}
    out.update(("edge %d" % e["edge"], e["essential"])
               for e in verdict["edges"])
    out.update(("pair %d,%d" % tuple(p["pair"]), p["parallel"])
               for p in verdict["pairs"])
    return out


def test_more_methods_keep_every_definite_answer():
    """For every input and mode and every two method subsets S within T in
    the golden file, each definite answer under S is the same under T."""
    runs = defaultdict(list)
    for record in json.loads(GOLDEN.read_text()):
        runs[record["input"], record["mode"]].append(
            (set(record["methods"]), _answers(record["verdict"])))
    checks, violations = 0, []
    for (name, mode), subsets in runs.items():
        for small, under_small in subsets:
            for large, under_large in subsets:
                if not small < large:
                    continue
                for subject, answer in under_small.items():
                    if answer in ("yes", "no", "parallel", "not_parallel"):
                        checks += 1
                        if under_large.get(subject, answer) != answer:
                            violations.append((name, mode, sorted(small),
                                               sorted(large), subject))
    assert checks >= 1948  # as recorded; more definite answers only add
    assert not violations, violations[:5]


def test_diff_exits_nonzero_when_a_record_would_change(monkeypatch, capsys):
    """--diff gates a commit: it returns when no record would change and
    exits 1 when one would, writing nothing either way."""
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.setattr(record_verdicts, "records", lambda: golden)
    record_verdicts.main(["--diff"])
    changed = json.loads(json.dumps(golden))
    changed[0]["verdict"]["method_log"].append("changed")
    monkeypatch.setattr(record_verdicts, "records", lambda: changed)
    with pytest.raises(SystemExit) as exit_info:
        record_verdicts.main(["--diff"])
    assert exit_info.value.code == 1
    assert "method_log" in capsys.readouterr().out
    assert json.loads(GOLDEN.read_text()) == golden
