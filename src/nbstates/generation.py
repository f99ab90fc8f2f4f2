"""Two ways to generate NBS parity superpositions dynamically.

Kerr route: a bare NBS evolved under H = g1 (a^dag a)^2 for a quarter period
t = pi/(2 g1) picks up phases (-i)^(n^2), which split by parity and turn the
state into the phi = pi/2 superposition up to the global phase exp(-i pi/4).

Dispersive route: an atom prepared in (|g> + e^{i phi} |e>)/sqrt(2) shifts
the field label only in the excited branch (c_n -> c_n e^{-i g2 t n}); after
a resonant pi-pulse (|g> -> (|g>-|e>)/sqrt2, |e> -> (|g>+|e>)/sqrt2) and a
projective measurement of the atom, the field collapses onto a superposition
of the original and rotated NBS.  At g2 t = pi the measured-g branch is
exactly the phi superposition and the measured-e branch its phi + pi
partner.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DomainError, ZeroNormError, check_finite, check_integer, check_real
from .fock_core import FockVector, TruncationPolicy, inner
from .nbs_states import (NBSParams, _check_phi, _label_phases, nbs, partner_phase,
                         phase_factor, required_dimension)


@dataclass(frozen=True)
class KerrParams:
    """Kerr strength g1 > 0 and evolution time t >= 0, both finite."""

    g1: float
    t: float

    def __post_init__(self):
        for name in ("g1", "t"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        check_finite(g1=self.g1, t=self.t)
        if not (self.g1 > 0.0):
            raise DomainError(f"g1 must be > 0, got {self.g1}")
        if self.t < 0.0:
            raise DomainError(f"t must be >= 0, got {self.t}")


@dataclass(frozen=True)
class DispersiveParams:
    """Atom phase phi, coupling g2 > 0, and interaction time t >= 0, all finite."""

    phi: float
    g2: float
    t: float

    def __post_init__(self):
        for name in ("phi", "g2", "t"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        check_finite(g2=self.g2, t=self.t)
        _check_phi(self.phi)
        if not (self.g2 > 0.0):
            raise DomainError(f"g2 must be > 0, got {self.g2}")
        if self.t < 0.0:
            raise DomainError(f"t must be >= 0, got {self.t}")


@dataclass(frozen=True)
class DispersiveOutcome:
    """Both conditional field states after the pulse and measurement, and their probabilities."""

    projected_g: FockVector
    projected_e: FockVector
    prob_g: float
    prob_e: float


def fidelity(u: FockVector, v: FockVector) -> float:
    """|<u|v>| for normalized vectors; global phase is deliberately ignored."""
    return min(abs(inner(u, v)), 1.0)


def _check_phase(name: str, phase: float) -> None:
    # DomainError unless the largest phase a protocol applies is a finite float
    if not math.isfinite(phase):
        raise DomainError(f"the largest phase {name} = {phase} is not a finite float")


def kerr_evolve(v: FockVector, kerr: KerrParams) -> FockVector:
    """Apply exp(-i g1 t N^2) componentwise; DomainError unless g1 t n_max^2 is finite."""
    n_max = len(v) - 1
    _check_phase("g1 t n_max^2", kerr.g1 * kerr.t * n_max * n_max)
    n = np.arange(len(v), dtype=np.float64)
    return FockVector(v.amplitudes * np.exp(-1j * kerr.g1 * kerr.t * n * n))


def kerr_generate(params: NBSParams, g1: float = 1.0,
                  policy: Optional[TruncationPolicy] = None,
                  n_max: Optional[int] = None) -> FockVector:
    """Evolve a bare NBS for the quarter period t = pi/(2 g1).

    In exact arithmetic the result is exp(-i pi/4) * superposition(pi/2,
    params).  In floats the phase g1 t n^2 is rounded before its exp, so the
    overlap with that target drifts as n_max grows: 3e-14 at n_max = 27, and
    1.1e-9 at M = 1000, eta = 0.9, theta = 0.3 (n_max = 5414).
    """
    # validate g1 before the quarter period divides by it
    kerr = KerrParams(g1=g1, t=0.0)
    if n_max is None:
        # size for the superposition the protocol lands on, not the bare NBS
        n_max = required_dimension(params, math.pi / 2.0, policy)
    start = nbs(params, n_max=n_max)
    return kerr_evolve(start, replace(kerr, t=math.pi / (2.0 * kerr.g1)))


def dispersive_protocol(params: NBSParams, disp: DispersiveParams,
                        policy: Optional[TruncationPolicy] = None,
                        n_max: Optional[int] = None) -> DispersiveOutcome:
    """Run the dispersive interaction, pi-pulse, and atom measurement.

    Raises ZeroNormError if either measurement branch has numerically zero
    probability (e.g. phi = 0 at t = 0, where the e-branch interferes away),
    and DomainError unless the phase g2 t n_max is a finite float.
    """
    if n_max is None:
        # the conditional states are parity superpositions; size for the
        # widest of the two so either projection is representable
        d_g = required_dimension(params, disp.phi, policy)
        n_max = max(d_g, required_dimension(params, partner_phase(disp.phi), policy))
    n_max = check_integer("n_max", n_max, 0)
    _check_phase("g2 t n_max", disp.g2 * disp.t * n_max)
    # the truncated NBS keeps norm^2 = 1 - tail; renormalize so that
    # prob_g + prob_e = 1 whatever the tail tolerance or forced n_max
    start = nbs(params, n_max=n_max)
    base = start.amplitudes / start.norm()
    rotated = base * _label_phases(-disp.g2 * disp.t, np.arange(n_max + 1))

    f_g = base / math.sqrt(2.0)
    f_e = phase_factor(disp.phi) * rotated / math.sqrt(2.0)
    # pi-pulse: |g> -> (|g> - |e>)/sqrt2, |e> -> (|g> + |e>)/sqrt2
    g_row = (f_g + f_e) / math.sqrt(2.0)
    e_row = (f_e - f_g) / math.sqrt(2.0)

    prob_g = float(np.sum(np.abs(g_row) ** 2))
    prob_e = float(np.sum(np.abs(e_row) ** 2))
    floor = 1e-14
    if prob_g < floor or prob_e < floor:
        raise ZeroNormError(
            f"measurement branch has vanishing probability (p_g={prob_g}, p_e={prob_e})")
    return DispersiveOutcome(
        projected_g=FockVector(g_row / math.sqrt(prob_g)),
        projected_e=FockVector(e_row / math.sqrt(prob_e)),
        prob_g=prob_g,
        prob_e=prob_e,
    )
