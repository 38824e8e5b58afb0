"""
Certification benchmark for essedge.

    python3 bench/run.py --workload pillow_sweep --seed 0 --seconds 30 --trace 0

Builds the workload's inputs from the seed (set-up), then certifies them
one after another through `certify_strongly_essential` for the given
number of seconds, cycling through them if they run out.  Every
certification is then checked by the gate in gate.py, outside the timed
region.  The run prints one line per metric and, last, one JSON object
with the keys correct, attempted, failed and metrics.

End-to-end times are reported at reference speed.  On a shared host the
processor's speed swings by half for tens of seconds at a time, more than
a change worth detecting, and a whole run can fall into a slow spell.  So
each timed call is preceded by a fixed interpreter-bound loop, and its
time is divided by how much slower than REFERENCE_LOOP_S that loop just
ran.  Per-layer self times are plain seconds.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.
With --trace 1 each input is certified twice in a row, untraced and
traced (see spans.py), and the metrics are the per-layer ones: spans,
counts and ratios from the traced calls, the share of their wall time the
layer spans cover, and the tracing overhead against the untraced calls.

Exit status: 0 when every certification passed the gate (and, traced,
the spans cover at least MIN_COVERAGE of certification time), 1 when not,
2 when the essedge sources or BENCHMARK.json are missing.
"""
import argparse
import itertools
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_COVERAGE = 0.9
# layers whose calls and self time are reported from the certification
# spans; moves run only in set-up and are reported from there
CERT_LAYERS = ("skeleton", "angles", "linprog", "fundamental", "snf",
               "decide", "decide.rewrite", "decide.quotient",
               "decide.factor", "coset", "shapes", "develop")
# seconds _reference_loop takes at reference speed; uncontended it takes
# 1.03 ms on the 2-vCPU Xeon VM (CPython 3.11) the baseline was taken on
REFERENCE_LOOP_S = 1e-3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _reference_loop():
    """Fixed interpreter-bound work like the library's: rational
    arithmetic, tuple hashing, dict and set churn."""
    acc = Fraction(0)
    counts, flipped = {}, set()
    for i in range(1, 400):
        acc += Fraction(i, i + 7)
        key = (i % 17, i % 13, i)
        counts[key] = counts.get(key[:2], 0) + 1
        flipped.add(key[::-1])
    return acc


def _loop_seconds():
    start = perf_counter()
    _reference_loop()
    return perf_counter() - start


def slowdown():
    """How many times slower than reference speed the processor runs now:
    the best of three reference loops."""
    return min(_loop_seconds() for _ in range(3)) / REFERENCE_LOOP_S


def timed(case):
    """(verdict or the exception raised, seconds at reference speed)."""
    factor = slowdown()
    start = perf_counter()
    try:
        verdict = case.certify()
    except Exception as exc:  # a failed certification is counted, not fatal
        verdict = exc
    return verdict, (perf_counter() - start) / factor


def measure(cases, seconds, certify):
    """Certify cases in order, cycling, until seconds have passed; at least
    one certification is always made."""
    results = []
    start = perf_counter()
    while not results or perf_counter() - start < seconds:
        case = cases[len(results) % len(cases)]
        results.append((case, certify(case)))
    return results


def setup(make, seed, recorder):
    """Build the inputs SETUP_REPEATS times; the median time at reference
    speed and the inputs.  With a recorder, the first build is traced."""
    times, keys, cases = [], None, None
    for repeat in range(SETUP_REPEATS):
        tracing = (spans.traced(recorder) if recorder and repeat == 0
                   else nullcontext())
        factor = slowdown()
        start = perf_counter()
        with tracing:
            cases = make(seed)
        times.append((perf_counter() - start) / factor)
        if keys is not None and keys != [c.key for c in cases]:
            raise RuntimeError("the same seed gave different inputs")
        keys = [c.key for c in cases]
    return statistics.median(times), cases


def end_to_end(results, outcomes, setup_s):
    times = [seconds for _case, (_verdict, seconds) in results]
    failed = sum(o.failure is not None for o in outcomes)
    questions = sum(o.questions for o in outcomes)
    definite = sum(o.definite for o in outcomes)
    return {
        "certs_per_s": (len(times) / sum(times), "1/s"),
        "cert_p50_ms": (statistics.median(times) * 1000, "ms"),
        "decided_frac": (definite / questions if questions else 0.0,
                         "ratio"),
        "ok_frac": (1 - failed / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(rec, setup_rec, results, outcomes):
    plain = sum(r[1][0][1] for r in results)
    traced = sum(r[1][1][1] for r in results)
    certs = len(results)
    m = {}
    for layer in CERT_LAYERS:
        m[layer + ".calls"] = (rec.calls[layer], "count")
        m[layer + ".self_s"] = (rec.self_s[layer], "s")
    m["moves.calls"] = (setup_rec.calls["moves"], "count")
    m["moves.self_s"] = (setup_rec.self_s["moves"], "s")
    m["linprog.pivots"] = (rec.tally["linprog.pivots"], "count")
    m["angles.calls_per_cert"] = (rec.calls["angles"] / certs, "calls/cert")
    m["develop.calls_per_cert"] = (rec.calls["develop"] / certs,
                                   "calls/cert")
    m["decide.definite_frac"] = (rec.frac("decide.definite"), "ratio")
    m["decide.rewrite.hit_frac"] = (rec.frac("decide.rewrite.hit"), "ratio")
    m["decide.quotient.hit_frac"] = (rec.frac("decide.quotient.hit"),
                                     "ratio")
    m["decide.quotient.exhausted_frac"] = (
        rec.frac("decide.quotient.exhausted"), "ratio")
    for layer in ("decide.quotient", "coset"):
        calls = rec.calls[layer]
        m[layer + ".distinct_frac"] = (
            len(rec.keys[layer]) / calls if calls else 0.0, "ratio")
    m["coset.complete_frac"] = (rec.frac("coset.complete"), "ratio")
    m["shapes.newton_fail_frac"] = (rec.frac("solve_shapes_newton.raised"),
                                    "ratio")
    m["certify.self_s"] = (rec.self_s["certify"], "s")
    definite = sum(o.definite for o in outcomes)
    m["certify.unreplayable_frac"] = (
        sum(o.unreplayable for o in outcomes) / definite if definite
        else 0.0, "ratio")
    # spans below certify's own cover this share of certification time
    m["trace.coverage"] = (1 - rec.self_s["certify"] / rec.root_s, "ratio")
    m["trace.overhead_frac"] = (traced / plain - 1, "ratio")
    return m


def main(argv=None):
    args = parse_args(argv)
    bench_json = ROOT / "BENCHMARK.json"
    if not (SRC / "essedge" / "__init__.py").is_file():
        print("bench: no essedge sources under %s" % SRC, file=sys.stderr)
        return 2
    if not bench_json.is_file():
        print("bench: %s is missing" % bench_json, file=sys.stderr)
        return 2
    declared = json.loads(bench_json.read_text())

    factor = slowdown()
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import essedge
    import gate
    import workloads
    import_s = (perf_counter() - start) / factor
    if Path(essedge.__file__).resolve().parent != SRC / "essedge":
        print("bench: imported essedge from %s, not %s"
              % (essedge.__file__, SRC), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("bench: unknown workload %r; known: %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2

    rec = spans.Recorder() if args.trace else None
    setup_rec = spans.Recorder() if args.trace else None
    setup_s, cases = setup(workloads.WORKLOADS[args.workload], args.seed,
                           setup_rec)

    if args.trace:
        plain_first = itertools.cycle((True, False))

        def certify(case):
            # alternate which of the two calls runs first, so that neither
            # side of the overhead ratio gains from running second
            first = next(plain_first)
            if first:
                plain = timed(case)
            with spans.traced(rec):
                traced = timed(case)
            if not first:
                plain = timed(case)
            return plain, traced
    else:
        certify = timed
    results = measure(cases, args.seconds, certify)

    recorded = gate.load_recorded(args.workload)
    outcomes = []
    for case, result in results:
        if args.trace:
            (plain, _), (verdict, _) = result
            if (not isinstance(plain, Exception)
                    and not isinstance(verdict, Exception)
                    and gate.answers(plain) != gate.answers(verdict)):
                verdict = RuntimeError("tracing changed the answers")
        else:
            verdict = result[0]
        outcome = gate.check(case, verdict, recorded)
        if outcome.failure:
            print("FAILED %s: %s" % (case.key, outcome.failure),
                  file=sys.stderr)
        outcomes.append(outcome)
    failed = sum(o.failure is not None for o in outcomes)

    if args.trace:
        metrics = per_layer(rec, setup_rec, results, outcomes)
        kind = "per_layer"
    else:
        metrics = end_to_end(results, outcomes, import_s + setup_s)
        kind = "end_to_end"
    names = [m["name"] for m in declared[kind]]
    printed = {(name, unit) for name, (_value, unit) in metrics.items()}
    listed = {(m["name"], m["unit"]) for m in declared[kind]}
    if printed != listed:
        print("bench: metrics %s do not match the %s metrics of %s"
              % (sorted(printed ^ listed), kind, bench_json),
              file=sys.stderr)
        return 2

    correct = failed == 0
    if args.trace and metrics["trace.coverage"][0] < MIN_COVERAGE:
        print("bench: spans cover only %.3f of certification time"
              % metrics["trace.coverage"][0], file=sys.stderr)
        correct = False
    for name in names:
        value, unit = metrics[name]
        print("%-32s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
