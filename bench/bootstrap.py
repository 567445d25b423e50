"""Checkout discovery and process settings shared by the benchmark entry points.

``prepare()`` must run before numpy is imported: it pins the BLAS thread
count through the environment, which OpenBLAS reads once at load time.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "demos" / "scenarios"
OUT = ROOT / "bench" / "out"

# Held fixed so that a parent commit and a change are measured alike; one
# thread also keeps a shared two-core machine from oversubscribing.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

REQUIRED = (SRC / "ydde" / "__init__.py", SCENARIOS / "sin_fbm.json")


class CheckoutError(RuntimeError):
    """The directory holding the benchmark is not a ydde checkout."""


def prepare():
    """Pin BLAS threads and put the checkout's ``src`` first on the path."""
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        raise CheckoutError(f"not a ydde checkout: missing {', '.join(missing)}")
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def import_ydde():
    """Import ydde (with its CLI) and refuse any copy but the checkout's own."""
    import ydde
    import ydde.cli  # noqa: F401  (not imported by the package itself)
    origin = Path(ydde.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise CheckoutError(f"imported ydde from {origin}, not from {SRC}")
    return ydde
