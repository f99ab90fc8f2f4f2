"""Truncated Fock-space primitives.

A state is a finite complex amplitude vector ``c[0..n_max]`` over number
states.  Everything in this module is deliberately free of closed forms: the
ladder operators act index by index and the moment routine sums the photon
distribution directly, so results obtained here can serve as an independent
reference for the analytic expressions elsewhere in the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, DomainError, check_integer, check_real

# Default truncation contract: discarded probability mass below 1e-12,
# refuse to grow vectors past 20000 components.
TAIL_TOLERANCE_DEFAULT = 1e-12
HARD_CAP_DEFAULT = 20000


@dataclass(frozen=True)
class TruncationPolicy:
    """How large a truncated vector is allowed to grow and how much mass may be dropped."""

    tail_tolerance: float = TAIL_TOLERANCE_DEFAULT
    hard_cap: int = HARD_CAP_DEFAULT

    def __post_init__(self):
        tolerance = check_real("tail_tolerance", self.tail_tolerance)
        object.__setattr__(self, "tail_tolerance", tolerance)
        if not (0.0 < self.tail_tolerance < 1.0):
            raise DomainError(f"tail_tolerance must lie in (0, 1), got {self.tail_tolerance}")
        object.__setattr__(self, "hard_cap", check_integer("hard_cap", self.hard_cap, 2))


@dataclass(frozen=True)
class FockVector:
    """Immutable amplitude vector over |0>, |1>, ..., |n_max>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        try:
            arr = np.asarray(self.amplitudes, dtype=np.complex128)
        except (TypeError, ValueError, OverflowError):
            raise DomainError("amplitudes must be numbers in the float range") from None
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("amplitudes must be a non-empty 1-D array")
        if not np.isfinite(arr).all():
            raise DomainError("amplitudes must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1

    def __len__(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class PhotonStats:
    """First two number moments of a state; mandel_q is None exactly for the vacuum."""

    mean: float
    second_moment: float
    variance: float
    mandel_q: Optional[float]


def number_state(n: int, n_max: int) -> FockVector:
    n_max = check_integer("n_max", n_max, 0)
    n = check_integer("number state index", n, 0)
    if n > n_max:
        raise DomainError(f"number state index {n} outside [0, {n_max}]")
    c = np.zeros(n_max + 1, dtype=np.complex128)
    c[n] = 1.0
    return FockVector(c)


def inner(u: FockVector, v: FockVector) -> complex:
    """<u|v>, conjugate-linear in the first argument."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"length mismatch: {len(u)} vs {len(v)}")
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def apply_annihilate(v: FockVector) -> FockVector:
    """a|v>: component n becomes sqrt(n+1) c_{n+1}; the top component is 0."""
    c = v.amplitudes
    out = np.zeros_like(c)
    n = np.arange(1, c.size, dtype=np.float64)
    out[:-1] = np.sqrt(n) * c[1:]
    return FockVector(out)


def apply_create(v: FockVector) -> FockVector:
    """a^dag|v> with the amplitude pushed past n_max discarded.

    Truncation makes a a^dag - a^dag a differ from the identity in the top
    row only, so consumers that check commutators must exclude it.
    """
    c = v.amplitudes
    out = np.zeros_like(c)
    n = np.arange(1, c.size, dtype=np.float64)
    out[1:] = np.sqrt(n) * c[:-1]
    return FockVector(out)


def apply_number(v: FockVector) -> FockVector:
    c = v.amplitudes
    return FockVector(np.arange(c.size, dtype=np.float64) * c)


def oracle_stats(v: FockVector) -> PhotonStats:
    """Moments by direct summation of |c_n|^2, normalizing by the vector norm.

    No closed form enters: this is the reference the analytic routines are
    validated against.
    """
    p = np.abs(v.amplitudes) ** 2
    total = float(p.sum())
    if total <= 0.0:
        raise DomainError("cannot take statistics of the zero vector")
    n = np.arange(p.size, dtype=np.float64)
    mean = float((n * p).sum() / total)
    second = float((n * n * p).sum() / total)
    var = second - mean * mean
    q = None if mean == 0.0 else (var - mean) / mean
    return PhotonStats(mean=mean, second_moment=second, variance=var, mandel_q=q)
