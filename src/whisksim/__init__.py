"""whisksim: spring-whisker vibration simulation and terrain classification.

Each name is imported from the module that defines it, for example
``from whisksim.beam import spring_to_beam``.
"""

import os

# One BLAS thread per process, set before numpy is first imported: the
# experiment drivers run one training per CPU in forked workers, and the
# networks are too small for a BLAS thread pool to pay. A value the user set
# wins; if numpy was imported before whisksim, BLAS keeps its own threading.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
