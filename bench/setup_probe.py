"""Set-up of one workload in a fresh interpreter, for the setup_s metric.

    python3 bench/setup_probe.py WORKLOAD SEED SRC WORKDIR

Imports gcelab, generates the workload's inputs from the seed into WORKDIR,
then prints time.monotonic(). On Linux that clock is shared by all processes,
so the parent subtracts the moment it spawned this one.
"""

import sys
import time

if __name__ == "__main__":
    workload, seed, src, work = sys.argv[1:5]
    sys.path.insert(0, src)
    import workloads

    workloads.prepare(workload, int(seed), work, src)
    print(time.monotonic(), flush=True)
