"""``python -m stacknash.cli`` with spans recorded, for traced cli-cold runs.

Usage: python perfbench/tracechild.py SPANS.json CLI-ARGUMENTS...
The spans are written to SPANS.json when the command returns.
"""

import json
import sys
from pathlib import Path

import stacknash.cli

import tracing


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.instrument(recorder)
    try:
        return stacknash.cli.main(argv)
    finally:
        out.write_text(json.dumps(recorder.dump()))


if __name__ == "__main__":
    sys.exit(main())
