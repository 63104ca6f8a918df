"""Run the curvemates CLI with layer tracing installed, then save the spans.

Usage: python3 perfbench/cli_child.py SPANS_JSON CLI_ARGS...

Behaves like ``python3 -m curvemates.cli CLI_ARGS...`` (same exit code),
and writes the spans recorded around cli.main and the wrapped layer calls
to SPANS_JSON as one JSON list.
"""
import json
import sys
from dataclasses import asdict

from tracing import Tracer

import curvemates.cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.item_scope(0), tracer.span("cli.main", "cli"):
        code = curvemates.cli.main(argv)
    with open(spans_path, "w") as handle:
        json.dump([asdict(s) for s in tracer.spans], handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
