"""
The correctness gate behind the benchmark's failure count.

A certification fails when it raised, when it contradicts its workload's
known truth, when one of its definite answers differs from the definite
answer recorded for the same input at the baseline commit, or when a
certificate it carries fails replay.  Replay rebuilds the group
questions from the public `presentation_closed` and `SpineData` and checks
each witness with the `replay_*_verdict` functions of `essedge.decide`.
Everything here runs outside the timed region.
"""
import json
from pathlib import Path

from essedge import build_skeleton, presentation_closed, SpineData
from essedge.decide import (GroupVerdict, replay_word_verdict,
                            replay_membership_verdict,
                            replay_double_coset_verdict)
from essedge.presentation import concat

ANSWERS_DIR = Path(__file__).resolve().parent / "answers"


def answers(verdict):
    """The definite-or-unknown answers of a verdict, as recorded."""
    return {
        "essential": verdict.essential,
        "strongly_essential": verdict.strongly_essential,
        "edges": [v.essential for v in verdict.edge_verdicts],
        "pairs": {"%d,%d" % k: v[0]
                  for k, v in sorted(verdict.pair_table.items())},
    }


def load_recorded(workload):
    path = ANSWERS_DIR / (workload + ".json")
    return json.loads(path.read_text()) if path.exists() else {}


def _conflicts(recorded, current):
    """Definite answers of current that differ from definite recorded
    ones."""
    def definite(a, b):
        return "unknown" not in (a, b) and None not in (a, b) and a != b
    out = [k for k in ("essential", "strongly_essential")
           if definite(recorded[k], current[k])]
    out += ["edge %d" % i for i, (a, b) in enumerate(zip(recorded["edges"],
                                                         current["edges"]))
            if definite(a, b)]
    out += ["pair " + k for k, a in recorded["pairs"].items()
            if definite(a, current["pairs"].get(k))]
    return out


class Outcome:
    """What the gate found for one certification."""

    def __init__(self, failure=None, questions=0, definite=0,
                 unreplayable=0):
        self.failure = failure
        self.questions = questions
        self.definite = definite
        self.unreplayable = unreplayable


class _Replayer:
    """Replays the certificates of one verdict against its input."""

    def __init__(self, tri):
        self.skeleton = build_skeleton(tri)
        self.closed = (self.skeleton.classification
                       == "closed_manifold_1vertex")
        if self.closed:
            self.spine = None
            self.presentation = presentation_closed(self.skeleton)
        else:
            self.spine = SpineData(self.skeleton)
            self.presentation = self.spine.presentation

    def _loop(self, e):
        """Edge loop word and peripheral subgroup of an ideal edge."""
        t0, (a, _b) = self.skeleton.edge_classes[e].corners[0]
        vertex = self.spine.vertex_of_end(t0, a)
        return self.spine.edge_loop_word(e), self.spine.peripheral(
            vertex).words

    def _ends_differ(self, e):
        t0, (a, b) = self.skeleton.edge_classes[e].corners[0]
        return self.spine.vertex_of_end(t0, a) != self.spine.vertex_of_end(
            t0, b)

    def edge(self, v):
        """True/False for a replayed edge certificate, None for one that
        carries no witness."""
        kind = v.certificate.get("kind")
        if self.closed and kind in ("homology", "group_word"):
            answer = v.essential  # the edge loop is nontrivial iff essential
            return replay_word_verdict(
                self.presentation, (v.edge + 1,),
                GroupVerdict(answer, v.certificate["detail"]))
        if kind == "distinct_vertices":
            return v.essential == "yes" and self._ends_differ(v.edge)
        if kind == "homology":
            word, subgroup = self._loop(v.edge)
            return v.essential == "yes" and replay_membership_verdict(
                self.presentation, subgroup, word,
                GroupVerdict("no", {"kind": "abelianization"}))
        if kind == "group_membership":
            word, subgroup = self._loop(v.edge)
            member = {"yes": "no", "no": "yes"}[v.essential]
            return replay_membership_verdict(
                self.presentation, subgroup, word,
                GroupVerdict(member, v.certificate["detail"]))
        return None

    def pair(self, i, j, state, cert):
        kind = cert.get("kind")
        if self.closed:
            words = (concat((i + 1,), (-(j + 1),)), concat((i + 1,), (j + 1,)))
            detail = cert.get("detail")
            if state == "parallel":
                # some sign combination is trivial
                return any(replay_word_verdict(self.presentation, w,
                                               GroupVerdict("no", detail))
                           for w in words)
            # both signs must be nontrivial, but only the first one's
            # witness is kept: replay it, and count the pair unreplayable
            if not replay_word_verdict(self.presentation, words[0],
                                       GroupVerdict("yes", detail)):
                return False
            return None
        if kind == "distinct_vertices":
            return (state == "not_parallel"
                    and self.spine.parallel_test_data(i, j, False) is None
                    and self.spine.parallel_test_data(i, j, True) is None)
        if kind == "group_double_coset" and state == "parallel":
            data = self.spine.parallel_test_data(i, j, cert["flip"])
            if data is None:
                return False
            word, h2, h1 = data
            return replay_double_coset_verdict(
                self.presentation, h1, h2, word,
                GroupVerdict("yes", cert["detail"]))
        return None


def check(case, verdict, recorded):
    """Gate one certification; verdict is the exception it raised, if
    any."""
    if isinstance(verdict, Exception):
        return Outcome("raised %r" % (verdict,))
    pairs = verdict.pair_table
    questions = len(verdict.edge_verdicts) + len(pairs)
    definite = (sum(v.essential != "unknown" for v in verdict.edge_verdicts)
                + sum(state != "unknown" for state, _ in pairs.values()))
    outcome = Outcome(None, questions, definite)
    replayer = _Replayer(case.tri)

    if case.degree2_edge is not None:
        degree2 = replayer.skeleton.edge_classes[case.degree2_edge]
        if degree2.degree != 2:
            outcome.failure = "pillow output lacks its degree-2 edge"
        elif verdict.strongly_essential == "yes":
            outcome.failure = "pillow output certified strongly essential"
    if case.strongly_essential and verdict.strongly_essential != "yes":
        outcome.failure = ("not certified strongly essential: %s"
                           % verdict.strongly_essential)
    if outcome.failure:
        return outcome

    if case.key in recorded:
        conflicts = _conflicts(recorded[case.key], answers(verdict))
        if conflicts:
            outcome.failure = "differs from recorded answers at " + ", ".join(
                conflicts)
            return outcome

    checks = [replayer.edge(v) for v in verdict.edge_verdicts
              if v.essential != "unknown"]
    checks += [replayer.pair(i, j, state, cert)
               for (i, j), (state, cert) in sorted(pairs.items())
               if state != "unknown"]
    if False in checks:
        outcome.failure = "a certificate failed replay"
    outcome.unreplayable = checks.count(None)
    return outcome
