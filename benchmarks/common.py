"""Process settings and constants shared by the benchmark scripts.

Importing this module pins BLAS and ``LOGNET_THREADS`` to one thread each.
It must be imported before numpy, because BLAS reads its thread count when
it loads.  One worker thread, not one per CPU: on a machine whose CPUs are
shared with other tenants, a second thread makes timings bimodal (it runs
in parallel only while the second CPU happens to be free).  It also puts the
checkout's ``src/`` on the import path, and exits with code 2 when the
checkout has no ``src/lognet`` to measure.
"""

from __future__ import annotations

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("common must be imported before numpy")

BLAS_THREADS = 1
LOGNET_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["LOGNET_THREADS"] = str(LOGNET_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
TESTS_DIR = os.path.join(ROOT, "tests")

if not os.path.isfile(os.path.join(SRC_DIR, "lognet", "__init__.py")):
    print(f"error: no lognet package under {SRC_DIR}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC_DIR)

# the classification task every dataset is drawn from: the class templates
# are fixed, the workload seed only changes which samples are drawn
TEMPLATE_SEED = 100
CLASSES = 10
SIZE = 12
