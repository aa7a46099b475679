"""Process environment shared by every benchmark module.

Import this before numpy: it pins OpenBLAS to one thread (threadpoolctl is not
available, so the variable must be set before the library loads) and puts the
checkout's ``src`` directory first on ``sys.path`` so that ``lielog`` is the
copy being benchmarked, never an installed one.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def source_present():
    """True when the checkout holds the lielog sources the benchmark measures."""
    return (SRC / "lielog" / "__init__.py").is_file()


def child_env():
    """Environment for fresh interpreters that must import this checkout's lielog."""
    return dict(os.environ, PYTHONPATH=str(SRC))
