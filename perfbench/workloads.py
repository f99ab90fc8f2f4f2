"""The three benchmark workloads: what one op does and how its output is checked.

Every workload draws its inputs from ``random.Random(seed)`` within fixed
ranges, so the mix of ops, and with it each latency percentile, is the same
for every seed.  Checks run outside the timed region.

* ``sweep``: one op is ``fig1_records`` or ``fig2_records`` plus
  ``render_sweep_csv`` for one config.  A pass is the six figure M values
  for ``fig1``, the five below M = 1000 for ``fig2``, and the default
  ``nbstates fig1`` and ``nbstates fig2`` sweeps (the second is the sweep
  ROADMAP item 3 sets its target on).  Thirteen ops a pass put the median
  and the 90th percentile inside one config's samples instead of between
  two configs.
* ``fock``: one op sizes, builds and tabulates one state: ``required_dimension``,
  ``superposition``, ``oracle_stats``, ``pn_table`` and ``render_pn_csv``.  A
  pass is 96 states, two in each cell of a 6 x 8 grid over log M and eta,
  one at phi 0 or pi (half the P(n) vanish) and one at an arbitrary phi.
  The seed moves each state within its cell, so the spread of vector sizes,
  which sets every percentile, is the same for every seed.
* ``cli``: one op is one ``python -m nbstates.cli`` process.  A pass is two
  ``pn`` runs, one of each ``generate`` protocol, ``fig1``, ``fig2`` and
  ``verify --json``; the odd count keeps the median inside the cluster of
  commands whose time is mostly the import.

Each op runs once per pass, in a seeded order, and the passes repeat the
same ops, so ``run.py`` can time every op by its fastest repeat.
"""
from __future__ import annotations

import json
import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import oracle

TWO_PI = 2.0 * math.pi
FIGURE_PHIS = (0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi)
SWEEP_MS = (1, 5, 30, 50, 300, 1000)
# fig2 stops below M = 1000: there the <a^2> series of nbstates returns wrong
# rows (ROADMAP item 1), and a workload must be one on which no op fails.
# On the eta grid (eta <= 0.95) the series is right up to M = 320.
FIG2_MS = SWEEP_MS[:-1]
ETA_START, ETA_STOP, ETA_STEP = 0.02, 0.95, 0.01

# Same bound as the closed-stats-vs-oracle-grid check of `nbstates verify`:
# |reference - value| / max(1, |value|).
REL_BOUND = 1e-9
# Bound on |sum P(n) - 1| for a P(n) table, the bound of the pn-table-sums-
# to-one check of `nbstates verify`.  The table may drop 1e-12 of tail mass
# (TruncationPolicy's default), and at M ~ 1000 each P(n) also carries about
# 1e-12 relative rounding from log-gamma values near 1e5, so the sum alone
# can miss 1 by more than 1e-12.
PN_SUM_BOUND = 1e-10
# Generation fidelities are checked against 1 to the verify suite's bound.
FIDELITY_BOUND = 1e-10
# Fock draws keep the mean photon number <= FOCK_MEAN_BOUND, which keeps the
# truncation near 10000 components at most, well under the 20000-component
# hard cap.
FOCK_MEAN_BOUND = 8000.0


def _relative(ref: float, value: float) -> float:
    return abs(ref - value) / max(1.0, abs(value))


def grid(eta_start: float) -> List[float]:
    """The sweep grid start + i*step up to the stop, as nbstates builds it."""
    out = []
    i = 0
    while eta_start + i * ETA_STEP <= ETA_STOP + 0.5e-6 * ETA_STEP:
        out.append(eta_start + i * ETA_STEP)
        i += 1
    return out


class FigureReference:
    """Oracle values of one figure config, checked against a rendered CSV."""

    def __init__(self, quantity: str, M: int, theta: float, eta_start: float,
                 phis: Sequence[float] = FIGURE_PHIS):
        self.quantity, self.M, self.phis = quantity, M, tuple(phis)
        self.etas = grid(eta_start)
        per_eta = [oracle.figure_values(M, eta, theta, self.phis) for eta in self.etas]
        self.values = [[per_eta[i][j][quantity] for i in range(len(self.etas))]
                       for j in range(len(self.phis))]

    def problem(self, text: str) -> Optional[str]:
        """None if every row is within REL_BOUND of the oracle, else what is wrong."""
        lines = text.split("\n")
        if lines[0] != "eta,phi,M,quantity,value" or lines[-1] != "":
            return "CSV header or final newline missing"
        rows = lines[1:-1]
        expected = len(self.phis) * len(self.etas)
        if len(rows) != expected:
            return f"{len(rows)} rows, expected {expected}"
        bad, worst, where = 0, 0.0, ""
        for k, row in enumerate(rows):
            j, i = divmod(k, len(self.etas))
            fields = row.split(",")
            try:
                eta, phi, value = float(fields[0]), float(fields[1]), float(fields[4])
                ok_row = (len(fields) == 5 and int(fields[2]) == self.M
                          and fields[3] == self.quantity)
            except (ValueError, IndexError):
                return f"unparsable row {row!r}"
            if not ok_row or phi != self.phis[j] or abs(eta - self.etas[i]) > 1e-12:
                return f"row {k + 1} is {row!r}, expected eta={self.etas[i]!r} phi={self.phis[j]!r}"
            rel = _relative(self.values[j][i], value) if math.isfinite(value) else math.inf
            if not rel <= REL_BOUND:
                bad += 1
                if not rel <= worst:
                    worst, where = rel, f"eta={eta:.4f} phi={phi:.4f}"
        if bad:
            return (f"{bad}/{expected} {self.quantity} rows outside {REL_BOUND:g} "
                    f"of the Fock oracle (worst {worst:.3g} at {where})")
        return None


def pn_problem(text: str) -> Optional[str]:
    """None if the P(n) CSV lists n = 0..n_max with finite P(n) >= 0 summing to 1."""
    lines = text.split("\n")
    if lines[0] != "n,pn" or lines[-1] != "" or len(lines) < 3:
        return "P(n) CSV header, rows or final newline missing"
    probs = []
    for n, row in enumerate(lines[1:-1]):
        fields = row.split(",")
        try:
            if len(fields) != 2 or int(fields[0]) != n:
                return f"row {n + 1} is {row!r}"
            p = float(fields[1])
        except ValueError:
            return f"unparsable row {row!r}"
        if not (math.isfinite(p) and p >= 0.0):
            return f"P({n}) = {p}"
        probs.append(p)
    err = abs(math.fsum(probs) - 1.0)
    if not err <= PN_SUM_BOUND:
        return f"P(n) sums to 1 -+ {err:.3g}, beyond {PN_SUM_BOUND:g}"
    return None


class Op:
    """One timed call: ``run`` is timed, ``check`` returns (items, problem) untimed."""

    def __init__(self, label: str, run: Callable, check: Callable):
        self.label, self.run, self.check = label, run, check


class CliOp:
    """One CLI process: its arguments and the check of its stdout."""

    def __init__(self, argv: List[str], check: Callable):
        self.label, self.argv = " ".join(argv), argv
        self._check = check

    def check(self, text: str) -> Tuple[int, Optional[str]]:
        problem = self._check(text)
        return (0 if problem else 1), problem


def passes(ops: Sequence, rng: random.Random):
    """The ops with their indices, in a fresh seeded order each pass."""
    while True:
        order = list(enumerate(ops))
        rng.shuffle(order)
        yield order


def _repeatable(problem_of: Callable[[str], Optional[str]]):
    """A check that validates the first output and requires later ones to be identical."""
    first: Dict[str, Optional[str]] = {}

    def check(text: str) -> Optional[str]:
        if not first:
            first["text"], first["problem"] = text, problem_of(text)
        elif text != first["text"]:
            return "output differs from the first run of the same op"
        return first["problem"]
    return check


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class SweepWorkload:
    def __init__(self, seed: int):
        from nbstates import sweeps
        self.sweeps = sweeps
        self.rng = random.Random(seed)
        configs = []
        for quantity, ms in (("mandel_q", SWEEP_MS), ("var_x2", FIG2_MS)):
            for M in ms:
                theta = 0.0 if self.rng.random() < 0.5 else self.rng.random() * TWO_PI
                configs.append((quantity, M, theta, ETA_START + self.rng.random() * ETA_STEP))
        # the defaults of `nbstates fig1` and `nbstates fig2`
        configs += [("mandel_q", 30, 0.0, ETA_START), ("var_x2", 50, 0.0, ETA_START)]
        self.ops = [self._op(*c) for c in configs]

    def _op(self, quantity: str, M: int, theta: float, eta_start: float) -> Op:
        sweeps = self.sweeps
        if quantity == "mandel_q":
            cfg = sweeps.fig1_config(M=M, theta=theta, eta_start=eta_start)
            records = lambda: sweeps.fig1_records(cfg)
        else:
            cfg = sweeps.fig2_config(M=M, theta=theta, eta_start=eta_start)
            records = lambda: sweeps.fig2_records(cfg)
        problem_of = _repeatable(FigureReference(quantity, M, theta, eta_start).problem)

        def run():
            return sweeps.render_sweep_csv(records())

        def check(text):
            problem = problem_of(text)
            return (0 if problem else text.count("\n") - 1), problem

        label = f"{'fig1' if quantity == 'mandel_q' else 'fig2'} M={M}"
        return Op(label, run, check)


# ---------------------------------------------------------------------------
# fock
# ---------------------------------------------------------------------------

FOCK_M_CELLS = 6
FOCK_ETA_CELLS = 8
# how far, as a share of a cell, the seed moves a state from its cell centre
FOCK_JITTER = 0.1
# eta cells: the first quarter of the cell range covers eta in (0.05, 0.9)
# linearly, the rest covers (0.9, 0.995) evenly in log(1 / (1 - eta^2)),
# which is the log of the state's size.
_S_LO, _S_HI = -math.log1p(-0.9 ** 2), -math.log1p(-0.995 ** 2)


def _fock_eta(u: float, M: int) -> float:
    if u < 0.25:
        x = (0.05 + (u / 0.25) * 0.85) ** 2
    else:
        x = -math.expm1(-(_S_LO + (u - 0.25) / 0.75 * (_S_HI - _S_LO)))
    # mean photon number M x / (1 - x) <= FOCK_MEAN_BOUND
    return math.sqrt(min(x, FOCK_MEAN_BOUND / (M + FOCK_MEAN_BOUND)))


class FockWorkload:
    def __init__(self, seed: int):
        from nbstates import fock_core, nbs_states, statistics, sweeps
        self.modules = (fock_core, nbs_states, statistics, sweeps)
        self.rng = rng = random.Random(seed)
        self.ops = []
        for j in range(FOCK_M_CELLS):
            for i in range(FOCK_ETA_CELLS):
                jitter = lambda: rng.uniform(-FOCK_JITTER, FOCK_JITTER)
                M = max(1, round(10.0 ** (3.0 * (j + 0.5 + jitter()) / FOCK_M_CELLS)))
                eta = _fock_eta((i + 0.5 + jitter()) / FOCK_ETA_CELLS, M)
                for phi in (rng.choice((0.0, math.pi)), rng.random() * TWO_PI):
                    theta = 0.0 if rng.random() < 0.5 else rng.random() * TWO_PI
                    self.ops.append(self._op(M, eta, phi, theta))

    def _op(self, M: int, eta: float, phi: float, theta: float) -> Op:
        fock_core, nbs_states, statistics, sweeps = self.modules
        params = nbs_states.NBSParams(M=M, eta=eta, theta=theta)

        def run():
            n_max = nbs_states.required_dimension(params, phi)
            v = nbs_states.superposition(phi, params)
            stats = fock_core.oracle_stats(v)
            text = sweeps.render_pn_csv(sweeps.pn_table(phi, params))
            return n_max, len(v), stats, text

        def check(out):
            n_max, components, stats, text = out
            if components != n_max + 1:
                return 0, f"superposition has {components} components, n_max is {n_max}"
            closed = statistics.closed_stats(phi, params)
            for name in ("mean", "second_moment", "mandel_q"):
                rel = _relative(getattr(closed, name), getattr(stats, name))
                if not rel <= REL_BOUND:
                    return 0, f"oracle_stats {name} is {rel:.3g} from closed_stats"
            problem = pn_problem(text)
            return (0 if problem else components), problem

        return Op(f"state M={M} eta={eta!r} phi={phi!r} theta={theta!r}", run, check)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON number {name}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    return json.loads(text, parse_constant=_reject_constant)


def _generate_problem(text: str) -> Optional[str]:
    report = strict_json(text)
    keys = [k for k in ("fidelity", "fidelity_g", "fidelity_e") if k in report]
    if not keys:
        return "no fidelity in the report"
    for k in keys:
        if not abs(report[k] - 1.0) <= FIDELITY_BOUND:
            return f"{k} = {report[k]!r}"
    return None


def _verify_problem(text: str) -> Optional[str]:
    results = strict_json(text)
    failed = [r["name"] for r in results if r["passed"] is not True]
    if not results or failed:
        return f"verify failed: {failed or 'no checks'}"
    return None


class CliWorkload:
    def __init__(self, seed: int):
        self.rng = rng = random.Random(seed)

        def state() -> List[str]:
            return ["--M", str(rng.randint(1, 6)), "--eta", repr(rng.uniform(0.1, 0.6))]

        fig1 = FigureReference("mandel_q", 30, 0.0, ETA_START)
        fig2 = FigureReference("var_x2", 50, 0.0, ETA_START)
        self.ops = [
            CliOp(["pn", *state(), "--phi", repr(rng.choice(FIGURE_PHIS))], _repeatable(pn_problem)),
            CliOp(["pn", *state(), "--phi", repr(rng.choice(FIGURE_PHIS))], _repeatable(pn_problem)),
            CliOp(["generate", "--protocol", "kerr", *state()], _repeatable(_generate_problem)),
            CliOp(["generate", "--protocol", "dispersive", *state()], _repeatable(_generate_problem)),
            CliOp(["fig1"], _repeatable(fig1.problem)),
            CliOp(["fig2"], _repeatable(fig2.problem)),
            CliOp(["verify", "--json"], _verify_problem),
        ]
