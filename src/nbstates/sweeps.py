"""Parameter sweeps and their serialized forms.

The sweep outputs are plain CSV with header ``eta,phi,M,quantity,value`` and
every float printed with 17 significant digits, so a value survives a
round-trip through text exactly and two runs with the same config produce
byte-identical files.  Grid points are generated as start + i*step (never a
running sum), which keeps the grid deterministic and free of accumulated
drift.

A figure sweep is evaluated column by column: what does not depend on phi
(the parameters for ``fig1``, the <a^k> series sums for ``fig2``) once for
the whole eta grid, each phase factor once per phi, and each distinct eta
and phi formatted once when the CSV is rendered.  The values are bit for
bit those of one ``q_closed`` or ``quadrature_variances`` call per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .errors import DomainError, check_finite
from .fock_core import TruncationPolicy
from .nbs_states import NBSParams, _check_phi, phase_factor, required_dimension
from .statistics import _mandel_q, _series_sums, pn_closed_upto

T = TypeVar("T")

FIG1_PHIS = (0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi)
DEFAULT_ETA_START = 0.02
DEFAULT_ETA_STOP = 0.95
DEFAULT_GRID_STEP = 0.01
# largest eta grid a sweep may ask for
MAX_GRID_POINTS = 10 ** 5


def format_value(x: Optional[float]) -> str:
    """17-significant-digit rendering; None becomes the literal 'undefined'."""
    if x is None:
        return "undefined"
    return f"{x:.17g}"


@dataclass(frozen=True)
class SweepRecord:
    eta: float
    phi: float
    M: int
    quantity: str
    value: Optional[float]


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for the figure sweeps."""

    M: int
    theta: float = 0.0
    phis: Tuple[float, ...] = FIG1_PHIS
    eta_start: float = DEFAULT_ETA_START
    eta_stop: float = DEFAULT_ETA_STOP
    grid_step: float = DEFAULT_GRID_STEP

    def __post_init__(self):
        check_finite(eta_start=self.eta_start, eta_stop=self.eta_stop, grid_step=self.grid_step)
        if self.grid_step <= 0.0:
            raise DomainError(f"grid_step must be > 0, got {self.grid_step}")
        if not (0.0 < self.eta_start <= self.eta_stop < 1.0):
            raise DomainError(
                f"need 0 < eta_start <= eta_stop < 1, got [{self.eta_start}, {self.eta_stop}]")
        if (self.eta_stop - self.eta_start) / self.grid_step >= MAX_GRID_POINTS:
            raise DomainError(
                f"grid_step {self.grid_step} gives more than {MAX_GRID_POINTS} eta points")
        if len(self.phis) == 0:
            raise DomainError("at least one phi value is required")
        for phi in self.phis:
            _check_phi(phi)


def grid_etas(cfg: SweepConfig) -> List[float]:
    out = []
    i = 0
    # a slack of 5e-7 of a step, so that 0.02 + 93*0.01 = 0.9500000000000001
    # still counts as 0.95
    while True:
        eta = cfg.eta_start + i * cfg.grid_step
        if eta > cfg.eta_stop + 0.5 * cfg.grid_step * 1e-6:
            break
        out.append(eta)
        i += 1
    return out


def fig1_config(**overrides) -> SweepConfig:
    return SweepConfig(**{"M": 30, **overrides})


def fig2_config(**overrides) -> SweepConfig:
    return SweepConfig(**{"M": 50, **overrides})


def _figure_records(cfg: SweepConfig, quantity: str, prepare: Callable[[List[float]], Sequence[T]],
                    value: Callable[[float, float, T], Optional[float]]) -> List[SweepRecord]:
    """value(c, s, state) over the eta grid, one block of rows per phi, c + i s = e^{i phi}.

    ``prepare`` runs once per grid and returns one state per eta, and the
    phase factor is computed once per phi.
    """
    etas = grid_etas(cfg)
    states = prepare(etas)
    records = []
    for phi in cfg.phis:
        unit = phase_factor(phi)
        c, s = unit.real, unit.imag
        records.extend(SweepRecord(eta=eta, phi=phi, M=cfg.M, quantity=quantity,
                                   value=value(c, s, state))
                       for eta, state in zip(etas, states))
    return records


def fig1_records(cfg: SweepConfig) -> List[SweepRecord]:
    """Mandel Q against eta, one block of rows per phi."""
    return _figure_records(
        cfg, "mandel_q",
        lambda etas: [NBSParams(M=cfg.M, eta=eta, theta=cfg.theta) for eta in etas],
        lambda c, s, params: _mandel_q(c, params.M, params.eta * params.eta))


def fig2_records(cfg: SweepConfig) -> List[SweepRecord]:
    """Variance of X2 against eta, one block of rows per phi; one series pass per grid."""
    return _figure_records(cfg, "var_x2", lambda etas: _series_sums(cfg.M, etas, cfg.theta),
                           lambda c, s, sums: sums.quadratures_at(c, s)[1])


def render_sweep_csv(records: Sequence[SweepRecord]) -> str:
    # each distinct eta and phi is formatted once; 0.0 and -0.0 are equal
    # keys that print differently, so zeros are not kept
    text: Dict[float, str] = {}

    def once(x: float) -> str:
        out = text.get(x)
        if out is None:
            out = format_value(x)
            if x:
                text[x] = out
        return out

    lines = ["eta,phi,M,quantity,value"]
    lines.extend(f"{once(r.eta)},{once(r.phi)},{r.M},{r.quantity},{format_value(r.value)}"
                 for r in records)
    return "\n".join(lines) + "\n"


def pn_table(phi: float, params: NBSParams,
             policy: Optional[TruncationPolicy] = None) -> List[Tuple[int, float]]:
    """(n, P(n)) rows out to the policy-selected truncation for this state."""
    n_max = required_dimension(params, phi, policy)
    return list(enumerate(pn_closed_upto(n_max, phi, params).tolist()))


def render_pn_csv(rows: Sequence[Tuple[int, float]]) -> str:
    lines = ["n,pn"]
    lines.extend(f"{n},{p:.17g}" for n, p in rows)
    return "\n".join(lines) + "\n"
