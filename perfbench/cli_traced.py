"""Runs one ``nbstates`` command with the layer wrappers installed.

    python perfbench/cli_traced.py SPANS_PATH OP_ID COMMAND [ARGS...]

The same as ``python -m nbstates.cli COMMAND [ARGS...]``, except that the
spans of the run are written to SPANS_PATH when it ends.
"""
from __future__ import annotations

import sys

import tracing


def main(argv) -> int:
    spans_path, op_id, args = argv[0], argv[1], argv[2:]
    import nbstates.cli
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(op_id):
            code = nbstates.cli.main(args)
    finally:
        tracer.uninstall()
        tracing.write_spans(spans_path, tracer.finished)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
