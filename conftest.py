"""Pin BLAS to one thread before numpy loads, so that test times do not swing
with the load other processes put on the machine.  It sits at the root
because ``perfbench/test_checks.py`` imports numpy while it is collected."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
