"""Constructors for negative binomial states and their parity superpositions.

A negative binomial state (NBS) with complex label eta_c = eta*exp(i*theta),
0 < eta < 1, and index M >= 1 has amplitudes

    c_n = (1 - eta^2)^(M/2) * C(M+n-1, n)^(1/2) * eta_c^n

which interpolate between a coherent state (eta -> 0 with eta*sqrt(M) fixed)
and thermal-like statistics.  The two-component superposition

    |phi; eta_c, M>  proportional to  |eta_c, M> + exp(i*phi) |-eta_c, M>

keeps only even photon numbers at phi = 0 and only odd ones at phi = pi.
Its norm divides by 1 + cos(phi) r, where r = ((1 - eta^2)/(1 + eta^2))^M is
the overlap of the two components.  ``NBSParams`` is the one place that
forms x, atanh x, r_j and r_j - 1 (j = 0, 1) and the logs at a point, and
``statistics._overlap_columns`` the one place that forms x and the r_j over
a grid; ``_one_plus_c_r`` turns (r, r - 1) into 1 + c r without cancellation.

All amplitudes are assembled in log space from one row of log C(M+n-1, n),
``_log_binomial``, which P(n) and the <a^k> series in ``statistics`` use too.
It is Stirling's formula with Loader's error term, in which no two large
lgamma values cancel, so the log is right to 5e-16 of max(1, |log C|) for
M >= 50 and to 2.2e-15 of it below, up to M = 2**53.  Truncation dimensions
are chosen from a geometric tail bound on the same Stirling-form weight,
evaluated one n at a time with scalar math functions, rather than from a
floating cumulative sum, which stalls at large M; the bound is monotone past
the mode, so Newton steps from the weights' mean plus a few sd bracket the
dimension in about 3 evaluations (``_grown_n_max``).
"""
from __future__ import annotations

import cmath
import math
import sys
from typing import Callable, Optional, Tuple

import numpy as np

from ._frozen import Frozen
from .errors import (DomainError, TruncationError, ZeroNormError, check_complex, check_integer,
                     check_real)
from .fock_core import FockVector, TruncationPolicy

TWO_PI = 2.0 * math.pi
# smallest eta whose square is still a normal float
ETA_MIN = math.sqrt(sys.float_info.min)
_DEFAULT_POLICY = TruncationPolicy()


class NBSParams(Frozen):
    """Magnitude eta in (0,1), phase theta in [0, 2*pi), integer index 1 <= M <= 2**53.

    Above 2**53, M + 1 rounds to M as a float, so such an M raises
    DomainError.  eta**2 must be a normal float (eta >= ~1.5e-154): below
    that it loses precision and then underflows to 0, where log(eta**2) and
    the parity normalization are undefined, so such an eta raises
    DomainError too.

    Past its checks it forms, once, each function of eta a point consumer
    reads: ``_terms`` = (x, r0, r0 - 1, r1, r1 - 1), with r_j = exp(-2 (M + j) u)
    the overlap of |eta_c, M + j> with |-eta_c, M + j>; ``_u`` = u = atanh x;
    ``_logs`` = (log eta, log x, log(1 - x)).  Equality, hash and repr read
    M, eta and theta alone.
    """

    __slots__ = ("M", "eta", "theta", "_terms", "_u", "_logs")
    _fields = ("M", "eta", "theta")

    def __init__(self, M: int, eta: float, theta: float = 0.0):
        M = check_integer("M", M, 1)
        eta = check_real("eta", eta)
        theta = check_real("theta", theta)
        if not (0.0 < eta < 1.0):
            raise DomainError(f"eta must lie strictly inside (0, 1), got {eta}")
        x = eta * eta
        if x < sys.float_info.min:
            raise DomainError(f"eta**2 underflows for eta = {eta}; need eta >= {ETA_MIN!r}")
        if not (0.0 <= theta < TWO_PI):
            raise DomainError(f"theta must lie in [0, 2*pi), got {theta}")
        u = math.atanh(x)
        s0, s1 = 2.0 * M * u, 2.0 * (M + 1) * u
        # one call per slot, without _store's keyword dict: every point call builds one
        store = object.__setattr__
        store(self, "M", M)
        store(self, "eta", eta)
        store(self, "theta", theta)
        store(self, "_terms", (x, math.exp(-s0), math.expm1(-s0), math.exp(-s1), math.expm1(-s1)))
        store(self, "_u", u)
        store(self, "_logs", (math.log(eta), math.log(x), math.log1p(-x)))

    @property
    def eta_c(self) -> complex:
        return self.eta * _phase_factor(self.theta)


def phase_factor(angle: float) -> complex:
    """exp(i*angle) with the axis cases snapped exactly onto the axes.

    cos(angle) == +-1 forces sin to 0 (and vice versa) so that parity
    cancellations at phi in {0, pi} and the pi/2 normalization come out exact
    instead of carrying ~1e-16 dust from sin(pi).
    """
    return _phase_factor(check_real("angle", angle))


def _phase_factor(angle: float) -> complex:
    # phase_factor of a checked angle
    c = math.cos(angle)
    s = math.sin(angle)
    if abs(c) == 1.0:
        s = 0.0
    elif abs(s) == 1.0:
        c = 0.0
    return complex(c, s)


def _phase_column(phis: Tuple[float, ...]) -> np.ndarray:
    # _phase_factor of each checked phi as a (len(phis), 1) column, which
    # broadcasts against an eta grid; its .real and .imag are float64 columns
    return np.array([_phase_factor(phi) for phi in phis])[:, None]


def _check_phi(phi: float) -> float:
    """phi as a Python float, or DomainError unless it lies in [0, 2*pi]."""
    phi = check_real("phi", phi)
    if not (0.0 <= phi <= TWO_PI):
        raise DomainError(f"phi must lie in [0, 2*pi], got {phi}")
    return phi


def _cos_phi(phi: float) -> float:
    # c = cos(phi) of a phi it checks, exactly +-1 or 0 on the axes
    return _phase_factor(_check_phi(phi)).real


def partner_phase(phi: float) -> float:
    """phi + pi wrapped back into [0, 2*pi]: the phase of the opposite-parity partner."""
    return _partner_phase(_check_phi(phi))


def _partner_phase(phi: float) -> float:
    # partner_phase of a checked phi
    return phi + math.pi if phi <= math.pi else phi - math.pi


def _overlap(s: float) -> Tuple[float, float]:
    # (r, r - 1) = (e^{-s}, expm1(-s)) for an overlap exponent s >= 0
    return math.exp(-s), math.expm1(-s)


def _one_plus_c_r(c, r, r_minus_1):
    # 1 + c r for an overlap r = e^{-s} given with r - 1 = expm1(-s), written to
    # survive c near -1 with a small exponent: 1 + c r = (1 + c) + c (r - 1),
    # both addends free of cancellation.  r may be a float or an array; c a
    # float, or an array (a column of phis in a sweep) whose elements each
    # take the branch a float c would, with its bits.
    if isinstance(c, np.ndarray):
        return np.where(c < 0.0, (1.0 + c) + c * r_minus_1, 1.0 + c * r)
    if c < 0.0:
        return (1.0 + c) + c * r_minus_1
    return 1.0 + c * r


def nbs_parity_overlap(params: NBSParams) -> float:
    """Overlap <-eta_c, M | eta_c, M> = ((1-eta^2)/(1+eta^2))^M, always real in (0, 1)."""
    return params._terms[1]


def _parity_norm(phi: float, r: float, r_minus_1: float) -> float:
    # (2 (1 + cos(phi) r))^{-1/2} for two components with overlap r, at a checked phi
    denom = 2.0 * _one_plus_c_r(_phase_factor(phi).real, r, r_minus_1)
    if denom <= 0.0:
        raise ZeroNormError(f"superposition norm vanished at phi={phi}, component overlap {r!r}")
    # sqrt of the reciprocal is correctly rounded where 1/sqrt is an ulp off
    # (phi = pi/2 must give exactly 2**-0.5)
    return math.sqrt(1.0 / denom)


def _truncated(amps: np.ndarray) -> FockVector:
    """The vector of ``amps``; TruncationError if no amplitude survived the cut."""
    if not np.count_nonzero(amps):
        raise TruncationError(f"n_max={amps.size - 1} keeps no nonzero amplitude: every "
                              "retained component underflows or is parity-forbidden")
    return FockVector(amps)


def _parity_superposition(base: np.ndarray, phi: float, r: float, r_minus_1: float) -> FockVector:
    """Normalized amplitudes of |b> + e^{i phi} |b'>, where b'_n = (-1)^n b_n and <b'|b> = r."""
    unit = _phase_factor(phi)
    # 1 + e^{i phi} (-1)^n, each entry with the bits of that complex sum
    factor = np.full(base.size, 1.0 + unit)
    factor[1::2] = 1.0 - unit
    amps = _parity_norm(phi, r, r_minus_1) * base
    amps *= factor
    return _truncated(amps)


def normalization_constant(phi: float, params: NBSParams) -> float:
    """N with |phi;eta_c,M> = N (|eta_c,M> + e^{i phi} |-eta_c,M>); N = (2(1+cos(phi) r))^{-1/2}."""
    return _parity_norm(_check_phi(phi), *params._terms[1:3])


# ---------------------------------------------------------------------------
# truncation sizing
# ---------------------------------------------------------------------------

def _nb_log_weight(M: int, log_x: float, log_1mx: float) -> Callable[[int], float]:
    # n -> log of the negative binomial pmf C(M+n-1, n) x^n (1-x)^M from
    # log x and log(1 - x), with log C in the Stirling form of _log_binomial
    # on math's scalar functions: the lgamma difference loses about
    # M ln M * 1e-16, +-40 at M = 2**53
    log_q, stirlerr_m = M * log_1mx, _scalar_stirlerr(M)

    def weight_log(n: int) -> float:
        log_c = 0.0 if n == 0 else (
            0.5 * math.log(M / (TWO_PI * n * (M + n))) + M * math.log1p(n / M)
            + n * math.log1p(M / n)
            + _scalar_stirlerr(M + n) - _scalar_stirlerr(n) - stirlerr_m)
        return log_c + n * log_x + log_q
    return weight_log


# how many sd past the weights' mean the sizing search makes its first probe
_START_SDS = 10.0


def _grown_n_max(weight_log, ratio, boost: float, policy: Optional[TruncationPolicy]) -> int:
    """Smallest index with a provable tail bound below tolerance, plus 2 padding.

    ``ratio(n)`` must give w(n+1)/w(n) and be non-increasing, so once it drops
    below 1 (at the mode) the tail is dominated by a geometric series:
    sum_{k>n} w(k) <= w(n) * rho / (1 - rho).  Past the mode both w(n) and
    rho shrink, so this bound is monotone too.  "Past the mode and the bound
    below tolerance" is then False up to one index and True from it on, and
    a search brackets that index in about 3 evaluations of ``ratio`` and
    ``weight_log``:

    * the first probe lies ``_START_SDS`` sd past the mean a/(1-b), sd
      sqrt(a)/(1-b), of weights with ratio (a + b n)/(n + 1), the form of the
      negative binomial (a = M x, b = x) and the Poisson (a = |alpha|^2, b = 0);
    * two Newton steps follow on log(w(n) rho/(1 - rho)/tol), with slope
      log rho(n) = log w(n+1) - log w(n); log w is concave past the mode, so a
      step lands at or just past the index;
    * from the last probe it gallops (steps 1, 2, 4, ...) until the index is
      bracketed, and bisects the bracket.

    Every decision reads the predicate itself, so for any non-increasing
    ``ratio`` this is the index bisect_left finds, wherever the predicate is
    monotone in floats: below about 1e10.  Past that, the rounding of log w,
    about (M + n) * 1e-16, outgrows its step, the predicate flickers over a
    few 1e-9 of n, and any search stops inside that window.  ``policy`` None
    is ``TruncationPolicy()``.
    """
    policy = policy or _DEFAULT_POLICY
    tol = policy.tail_tolerance / boost
    log_tol = math.log(tol) if tol > 0.0 else -math.inf

    def probe(n: int) -> Tuple[bool, float]:
        # (the predicate at n, the Newton step from n, or nan before the mode)
        rho = ratio(n)
        if not rho < 1.0:
            return False, math.nan
        lw = weight_log(n)
        done = math.exp(lw) * rho / (1.0 - rho) < tol
        if rho == 0.0:
            return done, math.nan
        return done, (lw + math.log(rho / (1.0 - rho)) - log_tol) / -math.log(rho)

    # done(lo) is False and done(hi) True, as bisect_left reads the ends
    lo, hi = -1, policy.hard_cap + 1
    a = ratio(0)
    b = 2.0 * ratio(1) - a
    n = int(min((a + _START_SDS * math.sqrt(a)) / (1.0 - b) + 1.0, hi - 1)) if b < 1.0 else 0
    for newton in range(3):
        ok, step = probe(n)
        if ok:
            hi = n
        else:
            lo = n
        if hi - lo == 1 or newton == 2 or not math.isfinite(step):
            break
        n = min(max(math.ceil(n + step), lo + 1), hi - 1)
    gallop, width = True, 1
    while hi - lo > 1:
        if gallop:
            n = max(hi - width, lo + 1) if ok else min(lo + width, hi - 1)
            width *= 2
        else:
            n = (lo + hi) // 2
        done = probe(n)[0]
        gallop = gallop and done == ok
        if done:
            hi = n
        else:
            lo = n
    if hi > policy.hard_cap:
        raise TruncationError(
            f"needed more than hard_cap={policy.hard_cap} components to reach tail {policy.tail_tolerance}"
        )
    return min(hi + 2, policy.hard_cap)


def required_dimension(params: NBSParams, phi: Optional[float] = None,
                       policy: Optional[TruncationPolicy] = None) -> int:
    """n_max for an NBS (phi=None) or a parity superposition; policy=None is TruncationPolicy()."""
    return _nbs_dimension(params, None if phi is None else _check_phi(phi), policy)


def _nbs_dimension(params: NBSParams, phi: Optional[float],
                   policy: Optional[TruncationPolicy]) -> int:
    # required_dimension at a checked phi
    M, (x, r0, d0) = params.M, params._terms[:3]
    # |parity factor|^2 <= 4 and the norm divides by 2(1+c r)
    boost = 1.0 if phi is None else 2.0 / _one_plus_c_r(_phase_factor(phi).real, r0, d0)
    return _grown_n_max(_nb_log_weight(M, *params._logs[1:]), lambda n: (M + n) * x / (n + 1),
                        boost, policy)


def _check_label(alpha) -> Tuple[complex, float]:
    """(alpha, |alpha|^2) of a coherent label; DomainError unless both are finite."""
    alpha = check_complex("alpha", alpha)
    try:
        return alpha, abs(alpha) ** 2
    except OverflowError:
        raise DomainError(f"|alpha|^2 overflows a float for alpha = {alpha}") from None


def required_dimension_cat(alpha: complex, phi: Optional[float] = None,
                           policy: Optional[TruncationPolicy] = None) -> int:
    """n_max for a coherent state (phi=None) or a two-component cat, as ``required_dimension``."""
    aa = _check_label(alpha)[1]
    return _cat_dimension(aa, None if phi is None else _check_phi(phi), policy)


def _cat_dimension(aa: float, phi: Optional[float], policy: Optional[TruncationPolicy]) -> int:
    # required_dimension_cat of a label with |alpha|^2 = aa, at a checked phi
    if aa == 0.0:
        return 2
    boost = 1.0 if phi is None else 2.0 / _one_plus_c_r(_phase_factor(phi).real, *_overlap(2.0 * aa))
    log_poisson = lambda n: n * math.log(aa) - aa - math.lgamma(n + 1)
    return _grown_n_max(log_poisson, lambda n: aa / (n + 1), boost, policy)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _stirling_series(z):
    # stirlerr(z) for z > 15 from the first five terms of Stirling's series,
    # 1/(12 z) - 1/(360 z^3) + ...; the next term is below 1.1e-16 there
    zz = z * z
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / zz) / zz) / zz) / zz) / z


def _small_stirlerr() -> np.ndarray:
    # stirlerr(k) for k = 0..15 (entry 0 is never read), down from the series
    # at 16 by stirlerr(k) = stirlerr(k + 1) + (k + 1/2) log1p(1/k) - 1: within
    # 4e-16 of the true values, where lgamma(k + 1) minus the Stirling terms
    # cancels to 7e-15
    table = [0.0] * 17
    table[16] = _stirling_series(16.0)
    for k in range(15, 0, -1):
        table[k] = table[k + 1] + (k + 0.5) * math.log1p(1.0 / k) - 1.0
    return np.array(table[:16])


_SMALL_STIRLERR = _small_stirlerr()


def _stirlerr(z):
    """log z! - log(sqrt(2 pi z) (z/e)^z) for integer-valued floats z >= 1 (Loader's stirlerr)."""
    # the series is finite for any z >= 1; the table replaces it up to 15
    out = _stirling_series(z)
    small = z <= 15.0
    out[small] = _SMALL_STIRLERR[z[small].astype(np.intp)]
    return out


def _scalar_stirlerr(k: int) -> float:
    # _stirlerr of one integer k >= 1 as a Python float, with the same
    # + - * / on the same values, so the same bits without numpy's dispatch
    return float(_SMALL_STIRLERR[k]) if k <= 15 else _stirling_series(float(k))


def _log_binomial(M: int, n: np.ndarray) -> np.ndarray:
    """log C(M+n-1, n) for each integer n >= 0 of an array; exactly 0 at n = 0.

    With N = M + n, Stirling's formula for the three factorials of
    C(M+n-1, n) = M/N * N! / (n! M!) gives

        1/2 log(M / (2 pi n N)) + M log1p(n/M) + n log1p(M/n)
            + stirlerr(N) - stirlerr(n) - stirlerr(M),

    a sum of terms no larger than the result, apart from O(log N) ones.
    lgamma(M + n) - lgamma(n + 1) - lgamma(M) instead subtracts values near
    M ln M and loses about M ln M * 1e-16 of the log.  Against 60-digit
    mpmath this is within 5e-16 * max(1, |log C|) for M >= 50 and within
    2.2e-15 * max(1, |log C|) below, worst at M = 1, where log C = 0 (C.
    Loader, "Fast and Accurate Computation of Binomial Probabilities",
    2000).
    """
    k = np.maximum(n, 1.0)
    m = float(M)
    # stirlerr of N = M + k and of k in one call
    big_n_and_k = np.concatenate((m + k, k))
    err = _stirlerr(big_n_and_k)
    big_n, size = big_n_and_k[:k.size], k.size
    log_c = (0.5 * np.log(m / (TWO_PI * k * big_n)) + m * np.log1p(k / m) + k * np.log1p(m / k)
             + err[:size] - err[size:] - _scalar_stirlerr(M))
    log_c[n == 0] = 0.0
    return log_c


_AXIS_UNITS = (1, 1j, -1, -1j)


def _label_phases(theta: float, n: np.ndarray) -> np.ndarray:
    """exp(i theta n) for integer n and a checked theta, each of modulus 1 to within an ulp.

    Labels that ``phase_factor`` snaps onto an axis get exact powers of
    +-1 and +-i, so parity cancellations stay exact; any other label takes
    cos and sin of theta * n, which, unlike a complex power, does not let the
    modulus drift from 1 as n grows.
    """
    unit = _phase_factor(theta)
    if unit in _AXIS_UNITS:
        return np.array(_AXIS_UNITS, dtype=np.complex128)[(_AXIS_UNITS.index(unit) * n) % 4]
    angle = theta * n
    return np.cos(angle) + 1j * np.sin(angle)


def _nbs_base(params: NBSParams, n_max: int) -> np.ndarray:
    """Amplitudes (1-x)^{M/2} C(M+n-1,n)^{1/2} eta_c^n for n = 0..n_max."""
    M, (log_eta, _, log_1mx) = params.M, params._logs
    n = np.arange(n_max + 1)
    # 0.5 log C + n log(eta) + M/2 log(1 - x), in place
    logmag = _log_binomial(M, n)
    logmag *= 0.5
    logmag += n * log_eta
    logmag += 0.5 * M * log_1mx
    amps = np.exp(logmag, out=logmag).astype(np.complex128)
    if params.theta != 0.0:
        amps *= _label_phases(params.theta, n)
    return amps


def nbs(params: NBSParams, n_max: Optional[int] = None) -> FockVector:
    """Negative binomial state on 0..n_max; n_max=None sizes it by ``required_dimension``."""
    n_max = _nbs_dimension(params, None, None) if n_max is None else \
        check_integer("n_max", n_max, 0)
    return _truncated(_nbs_base(params, n_max))


def superposition(phi: float, params: NBSParams, n_max: Optional[int] = None) -> FockVector:
    """Normalized N(|eta_c,M> + e^{i phi}|-eta_c,M>).

    phi = 0 keeps only even n (amplitudes at odd n are exactly zero); phi = pi
    keeps only odd n; phi = pi/2 reproduces the bare NBS photon distribution.
    """
    phi = _check_phi(phi)
    n_max = _nbs_dimension(params, phi, None) if n_max is None else \
        check_integer("n_max", n_max, 0)
    return _parity_superposition(_nbs_base(params, n_max), phi, *params._terms[1:3])


def even_nbs(params: NBSParams, n_max: Optional[int] = None) -> FockVector:
    """Even-photon-number NBS; identical to superposition(0, ...)."""
    return superposition(0.0, params, n_max)


def odd_nbs(params: NBSParams, n_max: Optional[int] = None) -> FockVector:
    """Odd-photon-number NBS; identical to superposition(pi, ...)."""
    return superposition(math.pi, params, n_max)


def _coherent_base(alpha: complex, aa: float, n_max: int) -> np.ndarray:
    # amplitudes of |alpha> for n = 0..n_max, given |alpha|^2 = aa
    n = np.arange(n_max + 1)
    if alpha == 0:
        amps = np.zeros(n_max + 1, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    log_factorial = np.fromiter(map(math.lgamma, range(1, n_max + 2)), np.float64, n_max + 1)
    logmag = n * math.log(abs(alpha)) - 0.5 * aa - 0.5 * log_factorial
    return np.exp(logmag) * _label_phases(math.atan2(alpha.imag, alpha.real), n)


def coherent(alpha: complex, n_max: Optional[int] = None) -> FockVector:
    alpha, aa = _check_label(alpha)
    n_max = _cat_dimension(aa, None, None) if n_max is None else check_integer("n_max", n_max, 0)
    return _truncated(_coherent_base(alpha, aa, n_max))


def cat_state(alpha: complex, phi: float, n_max: Optional[int] = None) -> FockVector:
    """Normalized N0 (|alpha> + e^{i phi} |-alpha>)."""
    phi = _check_phi(phi)
    alpha, aa = _check_label(alpha)
    if alpha == 0:
        raise DomainError("cat state requires alpha != 0")
    n_max = _cat_dimension(aa, phi, None) if n_max is None else check_integer("n_max", n_max, 0)
    return _parity_superposition(_coherent_base(alpha, aa, n_max), phi, *_overlap(2.0 * aa))


def even_coherent(alpha: complex, n_max: Optional[int] = None) -> FockVector:
    return cat_state(alpha, 0.0, n_max)


def odd_coherent(alpha: complex, n_max: Optional[int] = None) -> FockVector:
    return cat_state(alpha, math.pi, n_max)


def photon_distribution(v: FockVector) -> np.ndarray:
    """P(n) = |c_n|^2 as a float array; no renormalization is applied."""
    return np.abs(v.amplitudes) ** 2


def nbs_inner_closed(alpha: complex, beta: complex, M: int) -> complex:
    """<alpha_c, M | beta_c, M> = (1-|a|^2)^{M/2} (1-|b|^2)^{M/2} (1 - conj(a) b)^{-M}.

    Evaluated in log space; both labels must satisfy |.| < 1, and 1 <= M <= 2**53.
    The modulus is (1 - d)^{M/2} with d = |a - b|^2 / |1 - conj(a) b|^2, so
    equal labels give exactly 1 at every M.  For d >= 1/2, where 1 - d would
    cancel, its log is log1p(-|a|^2) + log1p(-|b|^2) - log1p(|a b|^2 - 2 Re(conj(a) b)),
    with no plain log of a number near 1.  The phase is -M arg(1 - conj(a) b).
    """
    M = check_integer("M", M, 1)
    alpha, beta = check_complex("alpha", alpha), check_complex("beta", beta)
    if abs(alpha) >= 1.0 or abs(beta) >= 1.0:
        raise DomainError("NBS labels must have modulus < 1")
    overlap = alpha.conjugate() * beta
    q = 1.0 - overlap
    d = abs(alpha - beta) ** 2 / abs(q) ** 2
    if d < 0.5:
        log_mod = math.log1p(-d)
    else:
        log_mod = math.log1p(-abs(alpha) ** 2) + math.log1p(-abs(beta) ** 2) \
            - math.log1p(abs(overlap) ** 2 - 2.0 * overlap.real)
    return cmath.exp(complex(0.5 * M * log_mod, -M * math.atan2(q.imag, q.real)))
