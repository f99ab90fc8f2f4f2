"""Deformed-oscillator structure carried by fixed-parity superpositions.

A state supported on one parity class, |psi> = sum_m C(m) |p0 + 2m> with
p0 in {0, 1}, has the structure function f defined by the componentwise
identity

    even:  N |psi> = f(N) a^dag^2 |psi>,    f(N) = sqrt(N/(N-1)) C(N/2)/C(N/2-1)
    odd:   (N-1)|psi> = f(N) a^dag^2 |psi>, f(N) = sqrt((N-1)/N) C((N-1)/2)/C((N-3)/2)

so the pair operators A+ = f(N) a^dag^2 and A- = (A+)^dag close a deformed
algebra with structure function S(N) = f(N)^2 N (N-1).  The identity and the
algebra hold by construction for any coefficients; what a state adds is its
S(N), which for the parity NBS has a closed form.  The coefficients C(m) are
not built here: a ParitySequence is the slice amplitudes[p0::2] of a vector
made by a constructor in ``nbs_states`` (``even_nbs``, ``odd_nbs``,
``even_coherent``, ...), so the truncation of that vector fixes how many
ladder sites f and S cover.  The pair-eigenvalue residual takes that vector
itself and the NBS parameters whose eigenvalue it tests.

Conventions that matter:

* For a complex state label f and S are complex.
* a^2 corrupts the top two components of a truncated vector, so the
  pair-eigenvalue residual excludes them.
"""
from __future__ import annotations

import functools
import sys

import numpy as np

from ._frozen import Frozen
from .errors import DomainError, PoleError, check_integer
from .fock_core import FockVector, apply_annihilate
from .nbs_states import NBSParams

_PARITIES = ("even", "odd")


class ParitySequence(Frozen):
    """Coefficients C(m) of a state supported on photon numbers p0 + 2m.

    Build it with ``ParitySequence.of(vector)``: ``coeffs`` is the read-only
    view ``vector.amplitudes[p0::2]``, and its length fixes how many ladder
    sites f and S cover.  It holds an array, so instances compare by identity.
    """

    # the __dict__ holds the cached f_values
    __slots__ = ("offset", "coeffs", "__dict__")
    _fields = ("offset", "coeffs")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, offset: int, coeffs: np.ndarray):
        self._store(offset=offset, coeffs=coeffs)

    @classmethod
    def of(cls, v: FockVector) -> "ParitySequence":
        """The parity is the class whose amplitudes are not all exactly zero.

        Raises DomainError unless exactly one class carries amplitude.
        """
        amps = v.amplitudes
        carried = [p0 for p0 in (0, 1) if np.any(amps[p0::2])]
        if len(carried) != 1:
            raise DomainError("vector must be supported on exactly one parity class, "
                              f"found support on {[_PARITIES[p] for p in carried]}")
        p0 = carried[0]
        return cls(offset=p0, coeffs=amps[p0::2])

    @property
    def parity(self) -> str:
        return _PARITIES[self.offset]

    @property
    def photon_numbers(self) -> np.ndarray:
        """p0 + 2m for every pair index m held."""
        return self.offset + 2 * np.arange(self.coeffs.size)

    @functools.cached_property
    def f_values(self) -> np.ndarray:
        """Read-only f(p0 + 2m) at ``[m - 1]`` for the pair indices m = 1, 2, ...

        It is NaN where C(m - 1) vanishes (a pole).
        """
        n = self.photon_numbers[1:].astype(np.float64)
        scale = np.sqrt(n / (n - 1.0)) if self.parity == "even" else np.sqrt((n - 1.0) / n)
        below = self.coeffs[:-1]
        values = np.full(n.size, np.nan, dtype=np.complex128)
        normal = np.abs(below) >= sys.float_info.min
        np.divide(scale * self.coeffs[1:], below, out=values, where=normal)
        # numpy's complex division overflows on a subnormal divisor, so those
        # entries divide with both sides scaled by 2**600, which is exact
        tiny = np.flatnonzero(~normal & (below != 0))
        big = 2.0 ** 600
        values[tiny] = scale[tiny] * (self.coeffs[tiny + 1] * big) / (below[tiny] * big)
        values.setflags(write=False)
        return values

    def f(self, n: int) -> complex:
        """f(n) for a photon number n of this parity; PoleError where C(n//2 - 1) vanishes."""
        n = check_integer("photon number", n, 0)
        if self.parity == "even" and (n % 2 != 0 or n < 2):
            raise DomainError(f"even-parity structure function needs even n >= 2, got {n}")
        if self.parity == "odd" and (n % 2 != 1 or n < 3):
            raise DomainError(f"odd-parity structure function needs odd n >= 3, got {n}")
        m = n // 2
        if m > self.f_values.size:
            raise DomainError(f"f({n}) lies past the last photon number of its sequence")
        fv = self.f_values[m - 1]
        if np.isnan(fv):
            raise PoleError(f"coefficient at pair index {m - 1} vanishes; f({n}) undefined")
        return complex(fv)

    def s(self, n: int) -> complex:
        """S(n) = f(n)^2 n (n - 1)."""
        fv = self.f(n)
        return fv * fv * n * (n - 1)


# ---------------------------------------------------------------------------
# pair-eigenvalue residual
# ---------------------------------------------------------------------------

def eigen_residual(v: FockVector, params: NBSParams) -> float:
    """Residual of a^2 |psi> = sqrt((M+N)(M+N+1)) eta_c^2 |psi>, top two rows excluded.

    The bare NBS of ``params`` and both its parity states satisfy it.  With
    F(N) = ((M+N)(M+N+1))^{-1/2} it reads F(N) a^2 |psi> = eta_c^2 |psi>, the
    sense in which the parity NBS are nonlinear coherent states of the
    pair-lowering operator; that form's residual is this one weighted by
    F < 1, so it is never the larger.
    """
    if len(v) < 3:
        raise DomainError(f"n_max={v.n_max} leaves no row below the top two to check")
    lowered = apply_annihilate(apply_annihilate(v)).amplitudes[:-2]
    amps = v.amplitudes[:-2]
    n = np.arange(amps.size, dtype=np.float64)
    root = np.sqrt((params.M + n) * (params.M + n + 1.0))
    return float(np.max(np.abs(lowered - root * params.eta_c ** 2 * amps)))
