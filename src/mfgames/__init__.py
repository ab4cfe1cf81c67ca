"""Mean-field games solved by backpropagating through a neural SDE solver.

numpy's BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` is already
set. The matrix products here are too small to gain from a thread pool
(layers 8 to 32 wide, batches of at most 20,000 rows), and starting the pool
when numpy loads, then waking it for each small product, costs every CLI run
CPU time. The variable only takes effect before numpy loads, so it is set
before this package's first numpy import. Outputs are the same bytes at any
thread count: OpenBLAS splits a product's output among threads, never an
inner sum.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import autodiff, mfg, nets, sde  # the package's first numpy import

__all__ = ["autodiff", "nets", "sde", "mfg"]
