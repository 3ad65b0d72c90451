"""Benchmark launcher for the chapgas CLI.

Run from the repository root:

    python3 perfbench/run.py --workload sample_dense --seed 1 --seconds 30 --trace 0

Workloads: sample_dense, verify_battery, oracle_fv, solve_limit. The BLAS and
OpenMP pools are pinned to one thread before NumPy is imported, so the
``np.polyfit`` in ``limits`` runs on the single client thread.
"""

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import bench

    sys.exit(bench.main())
