"""Settings for the whole test suite.

numpy's OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy is first
imported, and pytest imports this file before any test module.  The suite
therefore runs OpenBLAS on one thread unless the environment sets it:
unpinned, OpenBLAS's helper thread spins on the second core that the
pullback's worker thread needs, as the benchmark's runner also avoids.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
