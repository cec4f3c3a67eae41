"""Make the benchmark's modules and the gietlab sources importable.

Run from the root of a checkout with ``python3 -m pytest -q perfbench/tests``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
