"""Process set-up shared by the benchmark's entry scripts.

It must run before numpy is imported: BLAS reads its thread count once, when
the library loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

# One BLAS thread (never more than nproc).  On a 2-core machine shared with
# other work, single-threaded OpenBLAS was both faster and steadier than the
# default thread count on the stream2d workload.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and make the checkout's own sources importable.

    Exits with a message and a non-zero code when the checkout has no
    package sources, so a stray installed copy is never measured.
    """
    if not (SOURCE / "wigsolve" / "__init__.py").is_file():
        sys.exit(f"benchmark: no wigsolve package under {SOURCE}")
    for var in THREAD_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SOURCE))
