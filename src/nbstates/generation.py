"""Two ways to generate NBS parity superpositions dynamically.

In both the field picks up phases that depend on the coupling g and the time
t only through their product, so each protocol is set by that one phase.

Kerr route: a bare NBS evolved under H = g1 (a^dag a)^2 up to the quarter
period g1t = pi/2 picks up phases (-i)^(n^2), which split by parity and
turn the state into the phi = pi/2 superposition up to the global phase
exp(-i pi/4).

Dispersive route: an atom prepared in (|g> + e^{i phi} |e>)/sqrt(2) shifts
the field label only in the excited branch (c_n -> c_n e^{-i g2 t n}); after
a resonant pi-pulse (|g> -> (|g>-|e>)/sqrt2, |e> -> (|g>+|e>)/sqrt2) and a
projective measurement of the atom, the field collapses onto a superposition
of the original and rotated NBS.  At g2t = pi the measured-g branch is
exactly the phi superposition and the measured-e branch its phi + pi
partner.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ._frozen import Frozen
from .errors import DomainError, ZeroNormError, check_integer, check_real
from .fock_core import FockVector, inner
from .nbs_states import (NBSParams, _check_phi, _label_phases, _nbs_base, _nbs_dimension,
                         _partner_phase, _phase_factor, _truncated)


class DispersiveOutcome(Frozen):
    """Both conditional field states after the pulse and measurement, and their probabilities.

    It holds vectors, so instances compare by identity.
    """

    __slots__ = _fields = ("projected_g", "projected_e", "prob_g", "prob_e")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, projected_g: FockVector, projected_e: FockVector, prob_g: float,
                 prob_e: float):
        self._store(projected_g=projected_g, projected_e=projected_e, prob_g=prob_g,
                    prob_e=prob_e)


def fidelity(u: FockVector, v: FockVector) -> float:
    """|<u|v>| for normalized vectors; global phase is deliberately ignored."""
    return min(abs(inner(u, v)), 1.0)


def _check_phase(name: str, phase, multiple: int, multiple_name: str) -> float:
    # phase as a float; DomainError unless it is >= 0 and phase * multiple is finite
    phase = check_real(name, phase)
    if phase < 0.0:
        raise DomainError(f"{name} must be >= 0, got {phase}")
    largest = phase * multiple
    if not math.isfinite(largest):
        raise DomainError(f"the largest phase {name} {multiple_name} = {largest} "
                          "is not a finite float")
    return phase


def kerr_evolve(v: FockVector, g1t: float) -> FockVector:
    """Apply exp(-i g1t N^2) componentwise; DomainError unless g1t n_max^2 is finite."""
    return _kerr_evolve(v, _check_phase("g1t", g1t, v.n_max * v.n_max, "n_max^2"))


def _kerr_evolve(v: FockVector, g1t: float) -> FockVector:
    # kerr_evolve at a checked g1t
    n = np.arange(len(v), dtype=np.float64)
    return FockVector(v.amplitudes * np.exp(-1j * g1t * n * n))


def kerr_generate(params: NBSParams, n_max: Optional[int] = None) -> FockVector:
    """Evolve a bare NBS for the quarter period g1t = pi/2; n_max=None sizes the pi/2 target.

    In exact arithmetic the result is exp(-i pi/4) * superposition(pi/2,
    params).  In floats the phase g1t n^2 is rounded before its exp, so the
    overlap with that target drifts as n_max grows: 3e-14 at n_max = 27, and
    1.1e-9 at M = 1000, eta = 0.9, theta = 0.3 (n_max = 5414).
    """
    n_max = _nbs_dimension(params, math.pi / 2.0, None) if n_max is None else \
        check_integer("n_max", n_max, 0)
    return _kerr_evolve(_truncated(_nbs_base(params, n_max)), math.pi / 2.0)


def dispersive_protocol(params: NBSParams, phi: float, g2t: float = math.pi,
                        n_max: Optional[int] = None) -> DispersiveOutcome:
    """Prepare the atom with phase phi, apply the dispersive phase g2t, pulse and measure.

    Raises ZeroNormError if either measurement branch has numerically zero
    probability (e.g. phi = 0 at g2t = 0, where the e-branch interferes away),
    and DomainError unless the phase g2t n_max is a finite float.
    """
    phi = _check_phi(phi)
    # the conditional states are parity superpositions; size for the
    # widest of the two so either projection is representable
    n_max = check_integer("n_max", n_max, 0) if n_max is not None else max(
        _nbs_dimension(params, phi, None), _nbs_dimension(params, _partner_phase(phi), None))
    g2t = _check_phase("g2t", g2t, n_max, "n_max")
    # the truncated NBS keeps norm^2 = 1 - tail; renormalize so that
    # prob_g + prob_e = 1 whatever the tail tolerance or forced n_max
    start = _truncated(_nbs_base(params, n_max))
    base = start.amplitudes / start.norm()
    rotated = base * _label_phases(-g2t, np.arange(n_max + 1))

    f_g = base / math.sqrt(2.0)
    f_e = _phase_factor(phi) * rotated / math.sqrt(2.0)
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
