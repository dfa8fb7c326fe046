"""Self-supervised gradient features: extraction, fusion, and evaluation."""

import os

# One BLAS thread unless the caller set a count, before any submodule imports
# numpy: OpenBLAS's default of a thread per vCPU contends with the task-level
# threads of `extract --jobs` and `probe` (on 2 vCPUs, `extract --jobs 2` took
# twice as long).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
