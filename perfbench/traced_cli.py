"""Run one ``besselsix`` command line under the span tracer.

Usage: python3 perfbench/traced_cli.py SPANS_FILE ARG...

The arguments after SPANS_FILE are passed to the CLI as ``python -m
besselsix`` would; the spans of the whole command are written to
SPANS_FILE before exiting with the command's status.
"""

import sys

import besselsix.cli

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.install()
    status = tracer.run_op(0, lambda: besselsix.cli.main(sys.argv[2:]))
    tracer.uninstall()
    tracer.dump(sys.argv[1])
    sys.exit(status)
