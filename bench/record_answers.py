"""
Record the answers the gate compares against.

    python3 bench/record_answers.py WORKLOAD [--seed 0] [--limit N]

Certifies the first N inputs (all by default) that the seed gives the
workload and stores each verdict's answers, keyed by the input, in
answers/WORKLOAD.json, keeping the entries already there.  Run it only at
a commit whose answers are trusted: the gate fails any later definite
answer that differs from a recorded definite one.
"""
import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int)
    args = p.parse_args(argv)
    recorded = gate.load_recorded(args.workload)
    cases = workloads.WORKLOADS[args.workload](args.seed)[:args.limit]
    for case in cases:
        recorded[case.key] = gate.answers(case.certify())
    gate.ANSWERS_DIR.mkdir(exist_ok=True)
    path = gate.ANSWERS_DIR / (args.workload + ".json")
    lines = ["%s: %s" % (json.dumps(key), json.dumps(recorded[key]))
             for key in sorted(recorded)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print("%s: %d inputs recorded" % (path, len(recorded)))


if __name__ == "__main__":
    main()
