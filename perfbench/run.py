"""Benchmark of nbstates: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {sweep,fock,cli} --seed N --seconds S --trace {0,1}

Run it from anywhere; it benchmarks the ``src/`` tree of the checkout it sits
in, without installing it.  Every child process gets ``PYTHONPATH=<checkout>/src``,
one BLAS thread, a memory limit and a timeout, and children run one at a
time.  The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``
with the metrics BENCHMARK.json lists for the trace mode (end-to-end with
``--trace 0``, per-layer with ``--trace 1``); the line before it records the
code and library versions, the core count and the seed.  A readable table
goes to stderr.  Spans of a traced run are written to
``.bench_build/perfbench/`` in the checkout.

The exit code is 2, with no result line, when the checkout has no
``src/nbstates`` or the package cannot be imported.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import calibrate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

# set-up probes before the workload and as many again after it
SETUP_PROBES_EACH_SIDE = 5
IMPORTTIME_PROBES = 3
CLI_TIMEOUT_S = 30.0
MEMORY_LIMIT_BYTES = 1 << 30
# The whole run, every child included, ends within this many seconds.
RUN_DEADLINE_S = 165.0

PROBE = ("import time\nimport nbstates\nt = time.monotonic()\n"
         "import numpy, scipy\nprint(t, numpy.__version__, scipy.__version__)\n")


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


_START = time.monotonic()


# Seconds kept back from the workload for the probes that run after it; set
# from the probes before it.
_reserve = 5.0


def remaining() -> float:
    return RUN_DEADLINE_S - (time.monotonic() - _START)


def budget() -> float:
    """Seconds the workload may still use: what is left after the reserve."""
    return remaining() - _reserve


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def _env() -> Dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: List[str], timeout: float) -> Tuple[Optional[int], str, str]:
    """Run one child to completion; (None, out, err) if it was killed at the timeout."""
    proc = subprocess.Popen(args, cwd=ROOT, env=_env(), preexec_fn=_limit_memory,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.1))
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err


def _tail(err: str) -> str:
    lines = err.strip().splitlines()
    return lines[-1][:300] if lines else ""


# ---------------------------------------------------------------------------
# set-up and import breakdown
# ---------------------------------------------------------------------------

def setup_probe() -> Tuple[float, float, str, str]:
    """Seconds from starting a fresh interpreter to `import nbstates` done,
    and the seconds the calibration kernel takes right after.

    The child reads the system-wide monotonic clock right after the import.
    """
    start = time.monotonic()
    code, out, err = run_child([sys.executable, "-c", PROBE], min(60.0, remaining()))
    if code != 0:
        raise BenchError(f"import nbstates failed: {_tail(err)}")
    kernel_s = calibrate.kernel_s()
    t, numpy_version, scipy_version = out.split()
    return float(t) - start, kernel_s, numpy_version, scipy_version


def import_breakdown() -> Dict[str, float]:
    probes = []
    for _ in range(IMPORTTIME_PROBES):
        code, _, err = run_child([sys.executable, "-X", "importtime", "-c", "import nbstates.cli"],
                                 min(60.0, remaining()))
        if code != 0:
            raise BenchError(f"import nbstates.cli failed: {_tail(err)}")
        probes.append(tracing.import_breakdown(err))
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_worker(workload: str, seed: int, seconds: float, trace: int,
               spans_path: str) -> Tuple[List[dict], dict]:
    """Run sweep or fock in a worker process; its op records and summary."""
    code, out, err = run_child(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
         str(seconds), str(trace), spans_path],
        budget())
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            pass  # the last line of a killed worker may be cut short
    ops = [r for r in records if "op" in r]
    summary = next((r["summary"] for r in records if "summary" in r), None)
    if summary is None:
        reason = "killed at the run deadline" if code is None else f"exit {code}"
        ops.append({"op": "worker", "id": -1, "label": "op in flight", "s": 0.0, "items": 0,
                    "error": f"worker {reason}: {_tail(err)}"})
        summary = {}
    return ops, summary


def run_cli_op(op: workloads.CliOp, index: int, op_id: str,
               spans_path: Optional[str] = None) -> dict:
    """One `python -m nbstates.cli` process (or its traced twin), timed and checked."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "nbstates.cli", *op.argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), spans_path, op_id, *op.argv]
    start = perf_counter()
    code, out, err = run_child(cmd, min(CLI_TIMEOUT_S, budget()))
    elapsed = perf_counter() - start
    kernel_s = calibrate.kernel_s()
    items = 0
    if code is None:
        error = f"timed out after {elapsed:.1f} s"
    elif code != 0:
        error = f"exit {code}: {_tail(err)}"
    else:
        try:
            items, error = op.check(out)
        except Exception as exc:  # output the check could not read is wrong output
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    return {"op": op_id, "id": index, "label": op.label, "s": elapsed,
            "items": items, "error": error, "kernel_s": kernel_s}


def run_cli(seed: int, seconds: float, trace: int, spans_path: str) -> Tuple[List[dict], dict]:
    """The cli workload, run from here: each op is its own process."""
    workload = workloads.CliWorkload(seed)
    passes = workloads.passes(workload.ops, workload.rng)
    ops: List[dict] = []
    if not trace:
        spent, k = 0.0, 0
        while spent < seconds and budget() > 5.0:
            for i, op in next(passes):
                ops.append(run_cli_op(op, i, f"{k}.{i}"))
                spent += ops[-1]["s"]
            k += 1
        return ops, {}
    op_path = os.path.join(OUT_DIR, f"cli-op-{os.getpid()}.jsonl")

    def plain_pass(k):
        times = []
        for i, op in next(passes):
            ops.append(run_cli_op(op, i, f"u{k}.{i}"))
            times.append((i, ops[-1]["s"]))
        return times

    def traced_pass(k):
        times, spans = [], []
        for i, op in next(passes):
            ops.append(run_cli_op(op, i, f"t{k}.{i}", op_path))
            times.append((i, ops[-1]["s"]))
            if os.path.exists(op_path):
                spans += tracing.read_spans(op_path)
                os.remove(op_path)
        return times, spans

    layers, kept = tracing.alternate(plain_pass, traced_pass, seconds,
                                     lambda: budget() >= 30.0)
    tracing.write_spans(spans_path, kept)
    return ops, {"layers": layers}


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------

def _cost(samples: List[Tuple[float, float]], scaled: bool) -> float:
    """One figure from the (seconds, kernel seconds) samples of one op.

    Scaled: the median of the op's time in units of the calibration kernel
    run right after it, at the kernel's reference speed (see calibrate.py).
    Unscaled: the fastest repeat, as measured.
    """
    if scaled:
        return calibrate.REFERENCE_S * statistics.median(s / k for s, k in samples)
    return min(s for s, _ in samples)


def end_to_end(ops: List[dict], probes: List[Tuple[float, float]],
               scaled: bool = True) -> Tuple[Dict[str, float], int]:
    """The end-to-end metrics and the number of ops the percentiles are over.

    Each op, and set-up over its probes, is reported by ``_cost``.  Other
    processes on a shared machine add tens of percent to an op for seconds
    at a time and slow it by a third for minutes at a time; the kernel run
    beside each op takes the same slowdown, and the median over the repeats
    drops the bursts that hit only one of the two.
    """
    samples: Dict[int, List[Tuple[float, float]]] = {}
    items: Dict[int, int] = {}
    for r in ops:
        if r["id"] < 0:
            continue  # the op a killed worker was running: failed, never timed
        samples.setdefault(r["id"], []).append((r["s"], r["kernel_s"]))
        items[r["id"]] = min(items.get(r["id"], r["items"]), r["items"])
    if not samples:
        raise BenchError("no op completed")
    times = sorted(_cost(v, scaled) for v in samples.values())
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    failed = sum(1 for r in ops if r["error"])
    return {
        "setup_s": _cost(probes, scaled),
        "items_per_s": sum(items.values()) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * p90,
        "ok_frac": 1.0 - failed / len(ops),
        # largest resident set of any child: the worker, or the biggest CLI run
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }, len(times)


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        return None
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
        return out[1]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "nbstates")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    global _reserve
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "fock", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "nbstates", "__init__.py")):
            raise BenchError(f"no nbstates package under {SRC}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        os.makedirs(OUT_DIR, exist_ok=True)
        setup_probe()  # writes the bytecode cache, as any first run does
        # probes before the workload and after it, so that set-up is taken
        # across the run instead of at the machine's state at its start
        probes = [setup_probe() for _ in range(SETUP_PROBES_EACH_SIDE)]
        slowest = max(p[0] for p in probes)
        # time for the probes after the workload, even if it runs to its budget
        _reserve = 5.0 + 3.0 * slowest * (SETUP_PROBES_EACH_SIDE + IMPORTTIME_PROBES * args.trace)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        if args.workload == "cli":
            ops, summary = run_cli(args.seed, args.seconds, args.trace, spans_path)
        else:
            ops, summary = run_worker(args.workload, args.seed, args.seconds,
                                      args.trace, spans_path)
        probes += [setup_probe() for _ in range(SETUP_PROBES_EACH_SIDE)]
        op_samples, measured = None, None
        if args.trace:
            values = dict(summary.get("layers", {}), **import_breakdown())
            wanted = spec["per_layer"]
        else:
            timings = [p[:2] for p in probes]
            values, op_samples = end_to_end(ops, timings)
            measured, _ = end_to_end(ops, timings, scaled=False)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = [r for r in ops if r["error"]]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": src_digest(),
        "python": sys.version.split()[0], "numpy": probes[0][2], "scipy": probes[0][3],
        "nproc": os.cpu_count(), "op_runs": len(ops), "op_samples": op_samples,
        # unscaled: the fastest repeat of each op and the fastest probe
        "measured": measured,
        "fail_frac": len(failed) / len(ops),
        "failures": sorted({f"{r['label']}: {r['error']}" for r in failed})[:10],
    }
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
