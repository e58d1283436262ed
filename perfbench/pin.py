"""Environment pinning shared by the benchmark's entry scripts.

Call ``pin_environment()`` before numpy is first imported: OpenBLAS reads
its thread count once, when it loads. On a small machine the library's
study thread pool and multi-threaded BLAS oversubscribe the cores, and
the benchmark then measures the scheduler instead of the program.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LIBRARY_ENV_PREFIX = "MFD_GLHT_"


def pin_environment() -> list[str]:
    """Pin BLAS to one thread and drop the library's own settings.

    Dropping every ``MFD_GLHT_*`` variable leaves each library knob at its
    default. Returns the names of the variables dropped. Child processes
    inherit the result.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    dropped = sorted(var for var in os.environ if var.startswith(LIBRARY_ENV_PREFIX))
    for var in dropped:
        del os.environ[var]
    return dropped
