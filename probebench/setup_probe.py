"""Time one in-process set-up in a fresh interpreter.

Usage: ``python3 probebench/setup_probe.py <workload>``; prints the
seconds from just before ``import repro`` to the end of the warm-up
operations.  ``run.py`` starts it several times and reports the median,
because the import only happens once per process.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from probebench import estimate  # noqa: E402 - needs the path above

if __name__ == "__main__":
    begin = time.perf_counter()
    estimate.setup(sys.argv[1])
    print(time.perf_counter() - begin)
