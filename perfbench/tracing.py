"""Span tracing of the nbstates layers, installed from outside the package.

``Tracer.install`` replaces each traced function by a wrapper, both as an
attribute of the module that defines it and under every name another
``nbstates`` module imported it as (``from .x import f`` makes a second
reference that patching ``x.f`` alone would miss).  Spans are recorded only
inside ``Tracer.op``, so the benchmark's own correctness checks, which also
call into the package, stay out of the trace.

A span is ``(name, start, end, parent, value)``: ``parent`` is the index of
the enclosing span within the same op, and ``value`` is the amount of work
the call handled (vector length, CSV bytes) for the functions in ``VALUES``.
Spans stay in memory until the benchmark writes them out at the end.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# module -> traced function names; None traces every public function the
# module defines, for layers measured as a whole.
TRACED = {
    "nbstates.statistics": ("a_pow_expectation", "q_closed", "pn_closed"),
    "nbstates.nbs_states": ("required_dimension", "superposition"),
    "nbstates.fock_core": ("oracle_stats",),
    "nbstates.sweeps": ("fig1_records", "fig2_records", "render_sweep_csv",
                        "pn_table", "render_pn_csv"),
    "nbstates.verification": ("run_suite",),
    "nbstates.cli": ("main",),
    "nbstates.algebra": None,
    "nbstates.generation": None,
}

# span name -> (metric the values add up to, value of one call)
VALUES = {
    "nbs_states.required_dimension":
        ("nbs_states.required_dimension.n_max_sum", lambda args, result: result),
    "nbs_states.superposition":
        ("nbs_states.superposition.components", lambda args, result: len(result)),
    "fock_core.oracle_stats":
        ("fock_core.oracle_stats.components", lambda args, result: len(args[0])),
    "sweeps.render_sweep_csv": ("sweeps.render.bytes", lambda args, result: len(result)),
    "sweeps.render_pn_csv": ("sweeps.render.bytes", lambda args, result: len(result)),
}

Span = Tuple[str, float, float, Optional[int], Optional[float]]

# A traced run alternates untraced and traced passes, at most this many pairs.
TRACE_PAIRS_MAX = 5


class Tracer:
    """Wraps the traced functions and collects the spans of each op."""

    def __init__(self):
        self.finished: List[Tuple[str, List[Span]]] = []
        self._spans: Optional[List] = None
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        value_of = VALUES.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = self._stack[-1]
            self._stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                value = value_of(args, result) if value_of and result is not None else None
                spans[index] = (name, start, end, parent, value)

        return traced

    def install(self) -> None:
        wrappers: Dict[int, Tuple[object, object]] = {}
        for modname, names in TRACED.items():
            module = importlib.import_module(modname)
            if names is None:
                names = [n for n, f in vars(module).items()
                         if inspect.isfunction(f) and f.__module__ == modname
                         and not n.startswith("_")]
            short = modname.split(".", 1)[1]
            for n in names:
                fn = getattr(module, n)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{n}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "nbstates" and not modname.startswith("nbstates."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @contextmanager
    def op(self, op_id: str):
        """Record the spans of one op under a root span named ``op``."""
        spans: List = [None]
        self._spans, self._stack = spans, [0]
        start = perf_counter()
        try:
            yield
        finally:
            spans[0] = ("op", start, perf_counter(), None, None)
            self._spans, self._stack = None, []
            self.finished.append((op_id, spans))


def layer_metrics(ops: Iterable[Tuple[str, List[Span]]]) -> Dict[str, float]:
    """Calls, self time and work values per span name, plus self time per module.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it.
    """
    out: Dict[str, float] = defaultdict(float)
    for _, spans in ops:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        for (name, start, end, parent, value), inner in zip(spans, child):
            own = end - start - inner
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            if "." in name:
                out[f"{name.split('.', 1)[0]}.self_s"] += own
            if value is not None:
                out[VALUES[name][0]] += value
    return dict(out)


def _fastest_total(times: List[Tuple[int, float]]) -> float:
    best: Dict[int, float] = {}
    for i, t in times:
        best[i] = min(best.get(i, t), t)
    return sum(best.values())


def summarize(per_pass: List[Dict[str, float]], plain: List[Tuple[int, float]],
              traced: List[Tuple[int, float]]) -> Dict[str, float]:
    """Each layer metric from its fastest traced pass, and the tracing overhead.

    ``plain`` and ``traced`` hold (op index, seconds) for every untraced and
    traced op run; the overhead compares the ops' fastest repeats.
    """
    names = set().union(*per_pass)
    layers = {n: min(p.get(n, 0.0) for p in per_pass) for n in sorted(names)}
    layers["trace.overhead_frac"] = _fastest_total(traced) / _fastest_total(plain) - 1.0
    return layers


def alternate(plain_pass: Callable[[int], List[Tuple[int, float]]],
              traced_pass: Callable[[int], Tuple[List[Tuple[int, float]], List]],
              seconds: float, more: Callable[[], bool]) -> Tuple[Dict[str, float], List]:
    """Run untraced and traced passes in turn; the layer summary and the kept spans.

    ``plain_pass(k)`` runs untraced pass ``k`` and returns (op index, seconds)
    for each op; ``traced_pass(k)`` runs traced pass ``k`` and returns the same
    and the spans of its ops.  Pairs run until ``seconds`` of op time are
    spent, ``more()`` turns false, or TRACE_PAIRS_MAX pairs have run; the
    spans kept are those of the first traced pass.
    """
    plain: List[Tuple[int, float]] = []
    traced: List[Tuple[int, float]] = []
    per_pass, kept = [], None
    for k in range(TRACE_PAIRS_MAX):
        if k and (sum(t for _, t in plain + traced) >= seconds or not more()):
            break
        plain += plain_pass(k)
        times, spans = traced_pass(k)
        traced += times
        per_pass.append(layer_metrics(spans))
        kept = kept or spans
    return summarize(per_pass, plain, traced), kept


def write_spans(path: str, ops: Iterable[Tuple[str, List[Span]]]) -> None:
    """One JSON line per op: its id and its spans."""
    with open(path, "w", encoding="utf-8") as fh:
        for op_id, spans in ops:
            fh.write(json.dumps({"op": op_id, "spans": spans}) + "\n")


def read_spans(path: str) -> List[Tuple[str, List[Span]]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [(rec["op"], [tuple(s) for s in rec["spans"]])
                for rec in map(json.loads, fh)]


def import_breakdown(stderr: str) -> Dict[str, float]:
    """Seconds spent importing nbstates, numpy and scipy, from ``-X importtime``.

    Each line is ``import time: self | cumulative | name`` with the name
    indented two spaces per nesting level; a package's children are printed
    before it.  A group's time is the cumulative time of its outermost
    entries, those with no ancestor in the same group.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(fields[1])))

    def group(name: str) -> Optional[str]:
        for g in ("nbstates", "numpy", "scipy"):
            if name == g or name.startswith(g + "."):
                return g
        return None

    totals = {"nbstates": 0, "numpy": 0, "scipy": 0}
    ancestors: List[Tuple[int, Optional[str]]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        g = group(name)
        if g is not None and all(a[1] != g for a in ancestors):
            totals[g] += cumulative
        ancestors.append((depth, g))
    return {
        "cli.import_s": totals["nbstates"] / 1e6,
        "cli.import.numpy_s": totals["numpy"] / 1e6,
        "cli.import.scipy_s": totals["scipy"] / 1e6,
    }
