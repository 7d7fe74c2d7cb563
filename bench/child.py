"""Run one doxastic CLI command under the span tracer.

Usage: ``python3 bench/child.py SPANS.json <doxastic arguments>``, with the
package's ``src`` directory on PYTHONPATH.  The command's output and exit
code are the CLI's own; the span totals go to SPANS.json.
"""

import json
import sys

import doxastic.cli

import spans


def main() -> int:
    out_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return doxastic.cli.main(argv)
    finally:
        tracer.enabled = False
        with open(out_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.totals(), handle)


if __name__ == "__main__":
    sys.exit(main())
