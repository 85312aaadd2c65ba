"""Settings for the whole test suite.

numpy's OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy is first
imported.  `import torusrenorm` sets it to 1 before it loads numpy, unless
the environment sets it, but a test module may import numpy before the
package, and pytest imports this file before any test module.  So the
suite runs OpenBLAS on one thread unless the environment sets it:
unpinned, OpenBLAS's helper thread spins on the second core that the
pullback's worker thread needs.  The benchmark's runner (perfbench/run.py)
sets the variable itself.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
