"""Generate one run's inputs of a workload from its seed; write them.

    python3 bench/make_inputs.py WORKLOAD SEED OUT_DIR

Run as a fresh process by ``run.py``, so its wall time is the set-up a CLI
user pays: interpreter start, importing panelcause, generating the panels
(or DGP configs) and writing them. Needs the repository's ``src`` directory
on ``PYTHONPATH``.
"""

import os
import sys

from workloads import (INPUTS_PER_RUN, WORKLOADS, input_name, input_seed,
                       is_simulation)


def main(argv):
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    from panelcause.simharness import DgpConfig, simulate_panel

    for k in range(INPUTS_PER_RUN):
        config = DgpConfig(seed=input_seed(seed, k),
                           **WORKLOADS[workload]["dgp"])
        path = os.path.join(out_dir, input_name(workload, k))
        if is_simulation(workload):
            config.validate()
            with open(path, "w") as fh:
                fh.write(config.to_json() + "\n")
        else:
            panel, _ = simulate_panel(config, 0)
            panel.write_csv(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
