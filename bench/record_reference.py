"""Record the verdicts every benchmark run is checked against.

Runs each round of each workload's pool once and writes `reference.json`
next to this file.  The budgeted tight sweep is recorded in exhaustive mode,
so its budgeted rounds are checked to never contradict a proven verdict.
Record once, on a commit whose verdicts are trusted; a change that moves a
verdict is then caught by every later run.

    python3 bench/record_reference.py
"""

import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    program = workloads.load_program(Path(__file__).resolve().parent.parent)
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        rounds, attempted, unknown = [], 0, 0
        for index in range(workload.rounds):
            entry, result = workload.record_round(program, index)
            if result.failed:
                raise SystemExit(f"{name} round {index} failed")
            problem = workload.check(result.summary, entry)
            if problem:
                raise SystemExit(f"{name} round {index}: {problem}")
            rounds.append(entry)
            attempted += result.instances
            unknown += result.unknown
        resolved = (attempted - unknown) / attempted
        reference[name] = {"rounds": rounds, "resolved_frac": resolved}
        print(f"{name}: {len(rounds)} rounds, resolved_frac {resolved}")
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
