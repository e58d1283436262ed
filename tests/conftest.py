"""Pin BLAS to one thread for the whole test suite.

OpenBLAS reads its thread count once, when numpy first loads, so this runs
before any test module imports numpy. The Monte Carlo studies in the suite
make thousands of small Grams; on a small machine, multi-threaded BLAS
spends more time scheduling threads than multiplying.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
