"""Print the set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>

Set-up counts every import (numpy and carnotdim included) and the building
of the workload's fixed inputs, as in perfbench/run.py.
"""

from time import perf_counter

_T0 = perf_counter()

import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    try:
        workloads.WORKLOADS[name].setup(seed, "full", workdir)
        print(perf_counter() - _T0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
