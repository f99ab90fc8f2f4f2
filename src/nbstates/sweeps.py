"""Parameter sweeps and their serialized forms.

The sweep outputs are plain CSV with header ``eta,phi,M,quantity,value`` and
every float printed with 17 significant digits, so a value survives a
round-trip through text exactly and two runs with the same config produce
byte-identical files.  Grid points are generated as start + i*step (never a
running sum), which keeps the grid deterministic and free of accumulated
drift.

A figure sweep is a ``SweepTable``: the eta grid, the phis, and a
(phis x etas) float64 array of values.  What does not depend on phi (the
transcendentals of Q for ``fig1``, the <a^k> series sums for ``fig2``) is
computed once for the whole eta grid, and the array is one call of an
arithmetic kernel from ``statistics``, with the phase factors of the phis as
a column that broadcasts against the grid.  The CSV is rendered one block
of rows per phi, each eta formatted once per grid, and each block one
printf-style ``%`` operation on a row template repeated once per eta.  The
values are bit for bit those of one ``q_closed`` or ``quadrature_variances``
call per row, and the text that of one ``.17g`` format per field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DomainError, check_integer, check_real
from .nbs_states import NBSParams, _check_phi, _phase_column, required_dimension
from .statistics import _overlap_columns, _q_kernel, _series_sums, pn_closed_upto

FIG1_PHIS = (0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi)
DEFAULT_ETA_START = 0.02
DEFAULT_ETA_STOP = 0.95
DEFAULT_GRID_STEP = 0.01
# largest eta grid a sweep may ask for
MAX_GRID_POINTS = 10 ** 5


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
        object.__setattr__(self, "M", check_integer("M", self.M, 1))
        for name in ("theta", "eta_start", "eta_stop", "grid_step"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        try:
            phis = tuple(self.phis)
        except TypeError:
            raise DomainError(f"phis must be a sequence, not {type(self.phis).__name__}") from None
        object.__setattr__(self, "phis", tuple(_check_phi(phi) for phi in phis))
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


def grid_etas(cfg: SweepConfig) -> List[float]:
    out = []
    i = 0
    # a slack of 5e-7 of a step, so that 0.02 + 93*0.01 = 0.9500000000000001
    # still counts as 0.95; it must not carry a point onto eta = 1
    while True:
        eta = cfg.eta_start + i * cfg.grid_step
        if eta > cfg.eta_stop + 0.5 * cfg.grid_step * 1e-6 or eta >= 1.0:
            break
        out.append(eta)
        i += 1
    return out


def fig1_config(**overrides) -> SweepConfig:
    return SweepConfig(**{"M": 30, **overrides})


def fig2_config(**overrides) -> SweepConfig:
    return SweepConfig(**{"M": 50, **overrides})


@dataclass(frozen=True)
class SweepTable:
    """A figure sweep: ``values[j][i]`` is the quantity at ``etas[i]`` and ``phis[j]``.

    The sweeps build ``values`` as one (len(phis), len(etas)) float64 array;
    a sequence of float64 arrays, one of len(etas) values per phi, renders
    the same.
    """

    etas: List[float]
    phis: Tuple[float, ...]
    values: np.ndarray
    M: int
    quantity: str


def _checked_grid(cfg: SweepConfig) -> List[float]:
    # the eta grid, rising from eta_start and below 1; each NBSParams check
    # holds for all of it once it holds at the first point
    etas = grid_etas(cfg)
    NBSParams(M=cfg.M, eta=etas[0], theta=cfg.theta)
    return etas


def fig1_records(cfg: SweepConfig) -> SweepTable:
    """Mandel Q against eta at every phi, one kernel call per grid."""
    etas = _checked_grid(cfg)
    terms = _overlap_columns(cfg.M, etas)
    return SweepTable(etas, cfg.phis, _q_kernel(_phase_column(cfg.phis).real, cfg.M, *terms),
                      cfg.M, "mandel_q")


def fig2_records(cfg: SweepConfig) -> SweepTable:
    """Variance of X2 against eta at every phi; one series pass and one kernel call per grid."""
    etas = _checked_grid(cfg)
    sums = _series_sums(cfg.M, etas, cfg.theta)
    unit = _phase_column(cfg.phis)
    return SweepTable(etas, cfg.phis, sums.quadratures(unit.real, unit.imag)[1],
                      cfg.M, "var_x2")


def render_sweep_csv(table: SweepTable) -> str:
    """The table as CSV rows, one block of rows per phi in grid order."""
    n = len(table.etas)
    # (eta, value, eta, value, ...) for one block: the etas formatted once,
    # each block's values written into the odd slots
    fields = [None] * (2 * n)
    fields[::2] = [f"{eta:.17g}" for eta in table.etas]
    parts = ["eta,phi,M,quantity,value\n"]
    for phi, column in zip(table.phis, table.values):
        # the row's literal part, with a caller's "%" escaped for the template
        middle = f",{phi:.17g},{table.M},{table.quantity},".replace("%", "%%")
        fields[1::2] = column.tolist()
        parts.append(f"%s{middle}%.17g\n" * n % tuple(fields))
    return "".join(parts)


def pn_table(phi: float, params: NBSParams) -> np.ndarray:
    """P(n) for n = 0..n_max, indexed by n, with n_max = ``required_dimension(params, phi)``."""
    return pn_closed_upto(required_dimension(params, phi), phi, params)


def render_pn_csv(pn: np.ndarray) -> str:
    """The table as CSV rows ``n,P(n)``, one per index."""
    lines = ["n,pn"]
    lines.extend(f"{n},{p:.17g}" for n, p in enumerate(pn.tolist()))
    return "\n".join(lines) + "\n"
