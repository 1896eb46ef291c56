"""Time one fresh-process set-up of a workload.

Set-up is importing rainbowhc, building the workload's inputs and running
one warm-up instance; interpreter start-up before this file runs is not
counted.  Prints the set-up seconds and, after it, the median time of the
calibration kernel (see calibrate.py).  `run.py` starts this script several
times per run and reports the median.

    python3 bench/setup_probe.py sweep_loose12
"""

import time

START = time.perf_counter()

import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workload = workloads.WORKLOADS[sys.argv[1]]
    program = workloads.load_program(Path(__file__).resolve().parent.parent)
    if workload.name not in workloads.load_reference():
        raise SystemExit(f"no reference verdicts for {workload.name}")
    workload.warm_up(program)
    setup = time.perf_counter() - START
    kernel = statistics.median(calibrate.seconds() for _ in range(5))
    print(setup, kernel)
    return 0


if __name__ == "__main__":
    sys.exit(main())
