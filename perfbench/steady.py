"""Steadiness self-check: is every end-to-end metric steadier than its bound?

    python3 perfbench/steady.py --workload sweep fock cli --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` for ``run_seconds`` of BENCHMARK.json once per
seed, one run at a time, and then the whole set a second time.  For each
workload and end-to-end metric it prints the median and the spread
(interquartile range over the median, from ``statistics.quantiles(values,
n=4)``) of each set, and how far the second set's median moved in the worse
direction from the first set's.  A metric whose spread or drift exceeds its
BENCHMARK.json bound is reported as unresolved, one above a third of its
bound as thin; ``setup_s`` is judged on its drift alone.  Repeating one seed
(``--seeds 7 7 7 7 7``) measures the noise of the machine alone.  The exit
code is 1 if any metric is unresolved.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=240)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # the second set starts after the first has run on every workload, so
    # that the two are as far apart in time as the workloads allow
    sets = {workload: [] for workload in args.workload}
    for _ in range(2):
        for workload in args.workload:
            runs = []
            for seed in args.seeds:
                runs.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                    file=sys.stderr, flush=True)
            sets[workload].append(runs)
    unresolved = []
    report = {}
    for workload in args.workload:
        report[workload] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            rows = []
            for runs in sets[workload]:
                values = [r["metrics"][name]["value"] for r in runs]
                rows.append((statistics.median(values), spread(values)))
            drift = sign * (rows[1][0] - rows[0][0]) / rows[0][0]
            # set-up time is judged on its drift alone; its spread is printed
            worst = max(drift, *(s for _, s in rows)) if name != "setup_s" else drift
            verdict = ("unresolved" if worst > bound
                       else "thin" if worst > bound / 3.0 else "ok")
            if verdict == "unresolved":
                unresolved.append(f"{workload}.{name}")
            report[workload][name] = {"medians": [r[0] for r in rows],
                                      "spreads": [r[1] for r in rows],
                                      "drift": drift, "bound": bound, "verdict": verdict}
            print(f"{workload:6s} {name:12s} median {rows[0][0]:<12.6g} spread "
                  + " ".join(f"{s:.4f}" for _, s in rows)
                  + f"  drift {drift:+.4f}  bound {bound:g}  {verdict}")
    print(json.dumps({"unresolved": unresolved, "report": report}))
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
