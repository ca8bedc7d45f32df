"""``repro serve`` with every layer's public calls wrapped in spans.

Usage: ``python perfbench/traced_server.py SPANS_OUT serve --model ...``.  The
server runs exactly as ``python -m repro serve ...`` does; on shutdown (SIGINT)
the spans recorded in its process are written to ``SPANS_OUT``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, instrument  # noqa: E402


def main() -> int:
    from repro.cli import main as cli_main

    tracer = Tracer()
    with instrument(tracer):
        code = cli_main(sys.argv[2:])
    tracer.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
