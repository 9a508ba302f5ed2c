"""Record reference.json: one pass of every workload on each input of the
reference seed.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are trusted; every later benchmark
run on the reference seed is compared against the file it writes.
"""

import json
import shutil
import sys

import run
from workloads import INPUTS_PER_RUN, WORKLOADS, input_name

REFERENCE_SEED = 0


def main():
    pc = run.import_program()
    ref = {"seed": REFERENCE_SEED}
    work = run.BENCH / "_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for workload in WORKLOADS:
            run.set_up(workload, REFERENCE_SEED, work)
            data = [str(work / input_name(workload, k))
                    for k in range(INPUTS_PER_RUN)]
            run_pass = run.make_pass(pc.cli, workload, data,
                                     str(work / "sim"), None, 0)
            ref[workload] = []
            for k in range(INPUTS_PER_RUN):
                calls = run_pass(k)
                bad = {label: c["err"] for label, c in calls.items()
                       if c["rc"] != 0}
                if bad:
                    raise SystemExit(f"{workload} input {k}: failed {bad}")
                ref[workload].append(run.summarise_calls(workload, calls))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.BENCH / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
