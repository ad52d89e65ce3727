"""Run the hk-lab CLI in this process with every layer traced.

Usage: python3 perfbench/traced_cli.py SPANS_JSON CLI_ARG...

Exits with the CLI's exit code after writing the spans and counters of the run
to SPANS_JSON.  hklab must be importable (the benchmark sets PYTHONPATH=src).
"""

import json
import sys
from pathlib import Path

from trace_layers import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from hklab import cli

    try:
        return cli.main(argv)
    finally:
        spans_path.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
