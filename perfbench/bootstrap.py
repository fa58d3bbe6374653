"""Process set-up shared by the benchmark's scripts.

BLAS is pinned to one thread before numpy is first imported, and dgnet_lab is
imported from the checkout's own `src/`, never from an installed copy, so a
checkout without the sources fails instead of measuring something else.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"      # scratch (work/) and span output (traces/)


def pin_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_dgnet_lab() -> None:
    """Import every dgnet_lab module from SRC; raise ImportError otherwise."""
    if not (SRC / "dgnet_lab" / "__init__.py").is_file():
        raise ImportError(f"no dgnet_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dgnet_lab
    from dgnet_lab import (cli, data_io, metrics, model, rng,  # noqa: F401
                           speckle, tensor, trainer)
    if SRC not in Path(dgnet_lab.__file__).resolve().parents:
        raise ImportError(f"dgnet_lab was imported from {dgnet_lab.__file__}, not {SRC}")
