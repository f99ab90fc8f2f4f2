"""Runs one in-process workload (``sweep`` or ``fock``) in a fresh interpreter.

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE SPANS_PATH

``run.py`` starts it with ``PYTHONPATH`` set to the checkout's ``src/``.  It
writes one JSON line per op to stdout as the op finishes, so a run that has
to be killed still reports the ops it completed, and a final ``summary``
line.  Each op runs under a SIGALRM timeout; a timeout or any exception the
program raises counts as a failed op.  Right after each op the calibration
kernel of ``calibrate.py`` runs once, and the record carries its time.

With TRACE=0 the ops run untraced, pass after pass, until SECONDS of op
time have passed.  With TRACE=1 passes run untraced and traced in turn, and
the summary holds the per-layer metrics of the fastest traced pass, each
metric on its own, and the tracing overhead; the spans of the first traced
pass are written to SPANS_PATH.
"""
from __future__ import annotations

import json
import signal
import sys
from time import perf_counter

import calibrate
import tracing
import workloads

OP_TIMEOUT_S = 20.0
# Ops that fail at once add almost no op time; stop on wall time and on the
# number of passes as well.
WALL_FACTOR = 3.0
PASSES_MAX = 400


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S:g} s")


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def run_op(op: workloads.Op, index: int, op_id: str, tracer=None) -> float:
    """Time one op, check it outside the timed region, emit its record."""
    error = None
    out = None
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.op(op_id):
                out = op.run()
    except Exception as exc:  # a failure of the program under test, recorded per op
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    kernel_s = calibrate.kernel_s()
    items = 0
    if error is None:
        try:
            items, error = op.check(out)
        except Exception as exc:  # output the check could not read is wrong output
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    _emit({"op": op_id, "id": index, "label": op.label, "s": elapsed, "items": items,
           "error": error, "kernel_s": kernel_s})
    return elapsed


def main(argv) -> int:
    name, seed, seconds, trace, spans_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    signal.signal(signal.SIGALRM, _alarm)
    workload = {"sweep": workloads.SweepWorkload,
                "fock": workloads.FockWorkload}[name](seed)
    passes = workloads.passes(workload.ops, workload.rng)
    summary = {}
    wall_end = perf_counter() + WALL_FACTOR * seconds
    if not trace:
        spent, k = 0.0, 0
        while spent < seconds and perf_counter() < wall_end and k < PASSES_MAX:
            for i, op in next(passes):
                spent += run_op(op, i, f"{k}.{i}")
            k += 1
    else:
        tracer = tracing.Tracer()

        def plain_pass(k):
            return [(i, run_op(op, i, f"u{k}.{i}")) for i, op in next(passes)]

        def traced_pass(k):
            tracer.install()
            try:
                times = [(i, run_op(op, i, f"t{k}.{i}", tracer)) for i, op in next(passes)]
            finally:
                tracer.uninstall()
            spans, tracer.finished = tracer.finished, []
            return times, spans

        summary["layers"], kept = tracing.alternate(
            plain_pass, traced_pass, seconds, lambda: perf_counter() < wall_end)
        tracing.write_spans(spans_path, kept)
    _emit({"summary": summary})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
