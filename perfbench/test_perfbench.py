"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""
from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nbstates import nbs_states, statistics, sweeps  # noqa: E402


def test_self_time_subtracts_direct_children():
    spans = [
        ("op", 0.0, 10.0, None, None),
        ("sweeps.pn_table", 1.0, 5.0, 0, None),
        ("nbs_states.superposition", 2.0, 3.0, 1, 7),
        ("statistics.pn_closed", 3.0, 3.5, 1, None),
    ]
    m = tracing.layer_metrics([("0", spans)])
    assert m["op.self_s"] == pytest.approx(6.0)
    assert m["sweeps.pn_table.self_s"] == pytest.approx(2.5)
    assert m["nbs_states.superposition.self_s"] == pytest.approx(1.0)
    assert m["nbs_states.superposition.components"] == 7
    assert m["statistics.self_s"] == pytest.approx(0.5)
    assert m["statistics.pn_closed.calls"] == 1


def test_tracer_sees_calls_through_import_aliases_and_restores_them():
    original = sweeps.required_dimension
    params = nbs_states.NBSParams(M=3, eta=0.4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sweeps.pn_table(0.0, params)  # outside an op: not recorded
        with tracer.op("x"):
            rows = sweeps.pn_table(0.0, params)
    finally:
        tracer.uninstall()
    assert sweeps.required_dimension is original
    (op_id, spans), = tracer.finished
    names = [s[0] for s in spans]
    assert names.count("sweeps.pn_table") == 1
    assert names.count("nbs_states.required_dimension") == 1
    assert names.count("statistics.pn_closed") == len(rows)
    m = tracing.layer_metrics(tracer.finished)
    assert m["nbs_states.required_dimension.n_max_sum"] == len(rows) - 1


def test_alternate_runs_pairs_until_the_op_time_is_spent():
    calls = []

    def plain(k):
        calls.append(f"u{k}")
        return [(0, 1.0), (1, 2.0)]

    def traced(k):
        calls.append(f"t{k}")
        return [(0, 1.5), (1, 2.0)], [(f"t{k}", [("op", 0.0, 3.5, None, None)])]

    layers, kept = tracing.alternate(plain, traced, 10.0, lambda: True)
    assert calls == ["u0", "t0", "u1", "t1"]  # 6.5 s after one pair, 13 s after two
    assert [op_id for op_id, _ in kept] == ["t0"]
    assert layers["op.calls"] == 1
    assert layers["trace.overhead_frac"] == pytest.approx(3.5 / 3.0 - 1.0)
    calls.clear()
    tracing.alternate(plain, traced, 10.0, lambda: False)
    assert calls == ["u0", "t0"]


def test_scaled_cost_is_the_median_time_in_kernel_units():
    samples = [(2.0, 1.0), (9.0, 3.0), (0.5, 0.5)]  # 2, 3 and 1 kernel times
    assert run._cost(samples, scaled=True) == pytest.approx(2.0 * calibrate.REFERENCE_S)
    assert run._cost(samples, scaled=False) == 0.5
    assert calibrate.kernel_s() > 0.0


def test_import_breakdown_counts_outermost_entries_of_each_group():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       150 |        200 |     scipy.special",
        "import time:       400 |        900 |   nbstates.nbs_states",
        "import time:      1000 |       2000 | nbstates",
        "import time:        10 |         10 | json",
    ])
    b = tracing.import_breakdown(stderr)
    assert b == {"cli.import_s": 2000e-6, "cli.import.numpy_s": 300e-6,
                 "cli.import.scipy_s": 200e-6}


@pytest.mark.parametrize("phi", workloads.FIGURE_PHIS)
def test_oracle_matches_closed_forms(phi):
    params = nbs_states.NBSParams(M=5, eta=0.6, theta=0.7)
    (ref,) = oracle.figure_values(5, 0.6, 0.7, [phi])
    assert ref["mandel_q"] == pytest.approx(statistics.q_closed(phi, params), rel=1e-10, abs=1e-10)
    assert ref["var_x2"] == pytest.approx(
        statistics.quadrature_variances(phi, params)[1], rel=1e-10, abs=1e-10)


def test_figure_reference_counts_wrong_rows():
    cfg = sweeps.fig1_config(M=5, phis=(0.0, math.pi))
    text = sweeps.render_sweep_csv(sweeps.fig1_records(cfg))
    ref = workloads.FigureReference("mandel_q", 5, 0.0, workloads.ETA_START, (0.0, math.pi))
    assert ref.problem(text) is None
    lines = text.split("\n")
    fields = lines[3].split(",")
    fields[4] = repr(float(fields[4]) * (1.0 + 1e-6))
    lines[3] = ",".join(fields)
    assert ref.problem("\n".join(lines)).startswith("1/")


def test_pn_problem_checks_sum_and_rows():
    rows = sweeps.pn_table(math.pi / 2.0, nbs_states.NBSParams(M=2, eta=0.5))
    text = sweeps.render_pn_csv(rows)
    assert workloads.pn_problem(text) is None
    assert workloads.pn_problem(text.replace("\n1,", "\n2,", 1)) is not None
    assert workloads.pn_problem(sweeps.render_pn_csv(rows[:3])) is not None


def test_strict_json_rejects_non_finite_numbers():
    assert workloads.strict_json('{"a": 1.5}') == {"a": 1.5}
    for bad in ('{"a": NaN}', '{"a": Infinity}', '[-Infinity]'):
        with pytest.raises(ValueError):
            workloads.strict_json(bad)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fock",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no nbstates package" in proc.stderr
