"""Deformed-oscillator structure carried by fixed-parity superpositions.

A state supported on one parity class, |psi> = sum_m C(m) |p0 + 2m> with
p0 in {0, 1}, satisfies an exact componentwise identity

    even:  N |psi> = f(N) a^dag^2 |psi>,    f(N) = sqrt(N/(N-1)) C(N/2)/C(N/2-1)
    odd:   (N-1)|psi> = f(N) a^dag^2 |psi>, f(N) = sqrt((N-1)/N) C((N-1)/2)/C((N-3)/2)

so the pair operators A+ = f(N) a^dag^2 and A- = (A+)^dag close a deformed
algebra with structure function S(N) = f(N)^2 N (N-1).  The coefficients
C(m) are not built here: a ParitySequence is the slice amplitudes[p0::2] of
a vector made by a constructor in ``nbs_states`` (``even_nbs``, ``odd_nbs``,
``even_coherent``, ...), so the truncation of that vector fixes how many
ladder sites every check below covers.  The sequence carries its own f and
S, read off its coefficient ratios, so every check takes the sequence alone;
the pair-eigenvalue checks also take the NBS parameters whose eigenvalue
they test.  The checks realize A+/-, the ladder-site number operator and S
on those sites and measure how well the product and commutator relations
hold.

Conventions that matter:

* The ladder-site operator counts pairs (j = 0, 1, 2, ...), not photons; the
  relations [N, A+-] = +-A+- only hold in that labeling.
* For a complex state label f and S are complex.  An operator product
  A+ A- is positive semidefinite, so its diagonal is compared against |S|,
  while the literal (possibly complex) S stays available as
  ``ParitySequence.s`` for formula-level checks.
* a^2 corrupts the top two components of a truncated vector, so every
  residual that involves lowering excludes them; the raising identity above
  is truncation-clean and is checked on all components.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, PoleError, check_integer
from .fock_core import FockVector
from .nbs_states import NBSParams

_PARITIES = ("even", "odd")


@dataclass(frozen=True)
class ParitySequence:
    """Coefficients C(m) of a state supported on photon numbers p0 + 2m.

    Build it with ``ParitySequence.of(vector)``: ``coeffs`` is the read-only
    view ``vector.amplitudes[p0::2]``, and its length fixes n_max.
    """

    offset: int
    coeffs: np.ndarray

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

    @property
    def n_max(self) -> int:
        return self.offset + 2 * (self.coeffs.size - 1)

    def realize(self) -> FockVector:
        amps = np.zeros(self.n_max + 1, dtype=np.complex128)
        amps[self.offset::2] = self.coeffs
        return FockVector(amps)

    @functools.cached_property
    def f_values(self) -> np.ndarray:
        """Read-only f(p0 + 2m) at ``[m - 1]`` for the pair indices m = 1, 2, ...

        It is NaN where C(m - 1) vanishes (a pole).
        """
        n = self.photon_numbers[1:].astype(np.float64)
        scale = np.sqrt(n / (n - 1.0)) if self.parity == "even" else np.sqrt((n - 1.0) / n)
        below = self.coeffs[:-1]
        values = np.full(n.size, np.nan, dtype=np.complex128)
        np.divide(scale * self.coeffs[1:], below, out=values, where=below != 0)
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


def _check_poles(pole: np.ndarray) -> None:
    # pole[m] marks a vanishing coefficient at pair index m
    if pole.any():
        raise PoleError(f"coefficient at pair index {int(np.argmax(pole))} vanishes")


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GdoResiduals:
    """Max-abs deviations of the realized pair operators from the algebra relations."""

    commutator_raise: float
    commutator_lower: float
    product_raise: float
    product_lower: float

    @property
    def max_residual(self) -> float:
        return max(self.commutator_raise, self.commutator_lower,
                   self.product_raise, self.product_lower)


def gdo_relations_check(seq: ParitySequence) -> GdoResiduals:
    """Realize A+ = f(N) a^dag^2, A- = (A+)^dag on the parity sites and test the algebra.

    With N counting ladder sites, the relations are [N, A+] = A+,
    [N, A-] = -A-, (A- A+) diag = |S| one site up, (A+ A-) diag = |S| at the
    site.  A+ has one nonzero diagonal, a_j = A+[j+1, j], so each relation is
    compared entry by entry on it; every other matrix entry is exactly zero
    on both sides.  Residuals are max-abs over the sites below the top two,
    where truncation bends the products.  A pole anywhere raises PoleError.
    """
    sites = seq.coeffs.size
    if sites < 4:
        raise DomainError(f"n_max={seq.n_max} leaves too few ladder sites ({sites}) to check")
    f = seq.f_values
    _check_poles(np.isnan(f))

    n = seq.photon_numbers[1:].astype(np.float64)
    a_plus = f * np.sqrt((n - 1.0) * n)
    a_minus = a_plus.conj()
    j = np.arange(a_plus.size, dtype=np.float64)
    # entries (j+1, j) of N A+ - A+ N - A+ and (j, j+1) of N A- - A- N + A-
    comm_raise = (j + 1.0) * a_plus - a_plus * j - a_plus
    comm_lower = j * a_minus - a_minus * (j + 1.0) + a_minus
    # (A- A+)[j, j] = (A+ A-)[j+1, j+1] = |a_j|^2, against |S| at site j + 1
    prod = a_plus.real ** 2 + a_plus.imag ** 2 - np.abs(f * f * n * (n - 1.0))
    return GdoResiduals(
        commutator_raise=float(np.max(np.abs(comm_raise[:sites - 3]))),
        commutator_lower=float(np.max(np.abs(comm_lower[:sites - 3]))),
        product_raise=float(np.max(np.abs(prod[:sites - 2]))),
        product_lower=float(np.max(np.abs(prod[:sites - 3]))),
    )


def creation_identity_residual(seq: ParitySequence) -> float:
    """Max-abs residual of N|psi> = f(N) a^dag^2 |psi> (even) or (N-1)|psi> = ... (odd).

    a^dag^2 only pushes amplitude upward, so this identity is clean on every
    retained component; no rows are excluded.  Sites whose lower neighbour
    vanishes get no raised amplitude, so the pole of f there is never read.
    """
    c = seq.coeffs
    below = c[:-1]
    n = seq.photon_numbers.astype(np.float64)
    lhs = (n - seq.offset) * c
    rhs = np.zeros_like(c)
    rhs[1:] = np.where(below != 0, seq.f_values * np.sqrt((n[1:] - 1.0) * n[1:]) * below, 0.0)
    return float(np.max(np.abs(lhs - rhs)))


def _a2(amps: np.ndarray) -> np.ndarray:
    out = np.zeros_like(amps)
    n = np.arange(2, amps.size, dtype=np.float64)
    out[:-2] = np.sqrt(n * (n - 1.0)) * amps[2:]
    return out


def _pair_lowering_residual(seq: ParitySequence,
                            params: NBSParams) -> Tuple[np.ndarray, np.ndarray]:
    """a^2 psi - lambda_N psi on the realized sequence, and F(N) = ((M+N)(M+N+1))^{-1/2}.

    lambda_N = eta_c^2 / F(N) is the pair eigenvalue; the top two rows are dropped.
    """
    v = seq.realize().amplitudes
    if v.size < 3:
        raise DomainError(f"n_max={v.size - 1} leaves no row below the top two to check")
    n = np.arange(v.size - 2, dtype=np.float64)
    root = np.sqrt((params.M + n) * (params.M + n + 1.0))
    return _a2(v)[:-2] - root * params.eta_c ** 2 * v[:-2], 1.0 / root


def eigen_residual(seq: ParitySequence, params: NBSParams) -> float:
    """Residual of a^2 |psi> = sqrt((M+N)(M+N+1)) eta_c^2 |psi>, top two rows excluded.

    Both parity NBS of ``params`` satisfy it.
    """
    resid, _ = _pair_lowering_residual(seq, params)
    return float(np.max(np.abs(resid)))


def nonlinear_coherent_residual(seq: ParitySequence, params: NBSParams) -> float:
    """Residual of F(N) a^2 |psi> = eta_c^2 |psi> with F(N) = ((M+N)(M+N+1))^{-1/2}.

    This is the sense in which the parity NBS pair behaves as nonlinear
    coherent states of the pair-lowering operator.  F(N) (a^2 - lambda_N) psi
    equals F(N) a^2 psi - eta_c^2 psi, so this is the eigen residual
    weighted by F.
    """
    resid, f_of_n = _pair_lowering_residual(seq, params)
    return float(np.max(np.abs(f_of_n * resid)))
