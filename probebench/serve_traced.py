"""Run ``repro-probe serve`` with the benchmark's layer spans installed.

Usage: ``python3 probebench/serve_traced.py SPANS.json serve --data-dir ...``.
The wrappers go in before the CLI runs, in the same process layout as an
untraced server; the spans are written to ``SPANS.json`` once the server
has drained and returned.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from probebench.tracing import Tracer, install_service_wrappers  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    install_service_wrappers(tracer)
    from repro import cli

    try:
        status = cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(status)
