"""Closed-form photon statistics for NBS parity superpositions.

Every quantity here has an independent brute-force counterpart obtained by
building the state explicitly and summing (``fock_core.oracle_stats``); the
test suite holds the two within 1e-9 relative error over a parameter grid.

Notation used throughout: x = eta^2, c = cos(phi), u = atanh(x), and
r = exp(-2 M u) is the overlap between the two superposed components.  The
factors (1 +- c r), (1 -+ c r rho) with rho = (1-x)/(1+x) all have the shape
1 + c' exp(-a) with a > 0, so they are evaluated with expm1 instead of raw
subtraction; this keeps phi = pi accurate at small eta, where 1 - r is
O(M x).

The Mandel parameter comes from the recursion <N>(pi - phi, M + 1) - <N>(phi, M),
rearranged so that the two means of size M x / (1 - x) never cancel.

Each closed form is split in two: the transcendentals, which depend on eta
but not on phi (``_overlap_terms``), and an arithmetic kernel that takes
them as floats or as float64 arrays over an eta grid (``_q_kernel``,
``_mean_kernel``).  numpy rounds + - * / elementwise as Python does, so a
kernel gives a whole column of a sweep the bits each eta gets alone.

<a> and <a^2> are ratios of sums over one weight series, and those sums do
not depend on phi or theta.  One pass over an eta grid at fixed (M, theta)
serves both powers, each summed to its own stop index, and every phi; it
evaluates the series a block of etas at a time as 2-D arrays, with the same
elementwise operations as for a single eta.  A power's parity sums are one
reduction per parity for the whole block, each row masked by ``where=`` to
the prefix that ends at its own stop index.  numpy sums a row's unmasked run
in one inner-loop call, the pairwise sum of the row's 1-D slice, so each
value has the same bits as when its eta is evaluated alone.  A single
(M, eta) is the one-row grid, and ``_SeriesSums`` turns the sums into <a^k>
and the quadrature variances with the same kind of kernel, one phi for the
whole grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError, NumericsError, check_finite, check_integer
from .fock_core import PhotonStats, TruncationPolicy
from .nbs_states import (
    NBSParams,
    _check_phi,
    _log_binomial,
    _log_parity_overlap_exponent,
    _one_plus_c_exp,
    _one_plus_c_r,
    _parity_denominator,
    phase_factor,
)


def q_limit(phi: float) -> float:
    """Limit of the Mandel parameter as eta -> 0: +1, -1, or 0 by parity of the superposition."""
    _check_phi(phi)
    c = phase_factor(phi).real
    return c if abs(c) == 1.0 else 0.0


def _pn_kernel(n: np.ndarray, phi: float, params: NBSParams) -> np.ndarray:
    # P(n) at each integer-valued float of n; exactly +0.0 where the parity forbids n
    c, denom = _parity_denominator(phi, _log_parity_overlap_exponent(params))
    M = params.M
    x = params.eta * params.eta
    weight = np.exp(_log_binomial(M, n) + n * math.log(x) + M * math.log1p(-x))
    return weight * np.where(n % 2 == 0, 1.0 + c, 1.0 - c) / denom


def pn_closed(n: int, phi: float, params: NBSParams) -> float:
    """P(n) for the superposition; exactly 0 on the parity-forbidden indices."""
    n = check_integer("photon number", n, 0)
    return float(_pn_kernel(np.array([n], dtype=np.float64), phi, params)[0])


def pn_closed_upto(n_max: int, phi: float, params: NBSParams) -> np.ndarray:
    """P(0), ..., P(n_max) in one pass, each bit for bit equal to ``pn_closed``.

    Both run one elementwise numpy kernel, here on 0..n_max and there on
    [n], with the weight from ``nbs_states._log_binomial``.  Parity-forbidden
    entries are exactly 0.
    """
    size = check_integer("n_max", n_max, 0) + 1
    return _pn_kernel(np.arange(size, dtype=np.float64), phi, params)


def generating_function(lam: float, phi: float, params: NBSParams) -> float:
    """G(lambda) = sum_n lambda^n P(n), defined for |lambda| * eta^2 < 1."""
    c, denom = _parity_denominator(phi, _log_parity_overlap_exponent(params))
    check_finite(lam=lam)
    x = params.eta * params.eta
    if abs(lam) * x >= 1.0:
        raise DomainError(f"generating function diverges: |lambda|*eta^2 = {abs(lam) * x} >= 1")
    M = params.M
    log_shared = M * math.log1p(-x)
    try:
        g = (math.exp(log_shared - M * math.log1p(-lam * x))
             + c * math.exp(log_shared - M * math.log1p(lam * x))) / denom
    except OverflowError:
        g = math.inf
    if not math.isfinite(g):
        raise NumericsError(f"G({lam}) exceeds the float range at eta={params.eta}, M={M}")
    return g


def _overlap_terms(M: int, x: float) -> Tuple[float, float, float, float, float]:
    # (x, r0, r0 - 1, r1, r1 - 1) for the overlaps r0 = exp(-2Mu) and
    # r1 = exp(-2(M+1)u): every transcendental of <N> and Q at one eta, each
    # overlap with its expm1 for _one_plus_c_r; 2.0 * M * u is
    # _log_parity_overlap_exponent bit for bit
    u = math.atanh(x)
    s0 = 2.0 * M * u
    s1 = 2.0 * (M + 1) * u
    return x, math.exp(-s0), math.expm1(-s0), math.exp(-s1), math.expm1(-s1)


def _overlap_columns(M: int, xs: Sequence[float]) -> np.ndarray:
    # _overlap_terms of each x as five float64 rows, for the column kernels
    return np.array([_overlap_terms(M, x) for x in xs]).T


def _mean_kernel(c: float, M: int, x, r0, d0, r1, d1):
    # <N> at cos(phi) = c from _overlap_terms, floats or arrays of them
    return M * x * _one_plus_c_r(-c, r1, d1) / ((1.0 - x) * _one_plus_c_r(c, r0, d0))


def _mean(c: float, M: int, x: float) -> float:
    # <N> at cos(phi) = c
    return _mean_kernel(c, M, *_overlap_terms(M, x))


def mean_closed(phi: float, params: NBSParams) -> float:
    """<N> = M x (1 - c exp(-2(M+1)u)) / ((1-x)(1 + c exp(-2Mu)))."""
    _check_phi(phi)
    return _mean(phase_factor(phi).real, params.M, params.eta * params.eta)


def second_moment_closed(phi: float, params: NBSParams) -> float:
    """<N^2> = <N> + M(M+1) x^2 (1 + c exp(-2(M+2)u)) / ((1-x)^2 (1 + c exp(-2Mu)))."""
    c, den = _parity_denominator(phi, _log_parity_overlap_exponent(params))
    x = params.eta * params.eta
    M = params.M
    num = _one_plus_c_exp(c, 2.0 * (M + 2) * math.atanh(x))
    extra = M * (M + 1) * x * x * num / ((1.0 - x) ** 2 * den)
    return _mean(c, M, x) + extra


def _q_kernel(c: float, M: int, x, r0, d0, r1, d1):
    # Q at cos(phi) = c from _overlap_terms, floats or arrays of them: the
    # arithmetic of q_closed, one phi for a whole eta grid in a sweep
    pair = (M + 1) * r1 / _one_plus_c_r(-c, r1, d1) + M * r0 / _one_plus_c_r(c, r0, d0)
    return x / (1.0 - x) * (1.0 + 2.0 * c / (1.0 + x) * pair)


def q_closed(phi: float, params: NBSParams) -> float:
    """Mandel Q = <N^2>/<N> - <N> - 1, the recursion <N>(pi - phi, M + 1) - <N>(phi, M).

    Both means are M x / (1 - x) to leading order, so their difference is
    rearranged to leave no subtraction of large terms:

        Q = x/(1-x) (1 + 2c/(1+x) ((M+1) r1 / (1 - c r1) + M r0 / (1 + c r0)))

    with r0 = exp(-2Mu), r1 = exp(-2(M+1)u), and the two denominators from
    ``_one_plus_c_r``.  This holds Q to a few ulps for every M up to 2**53;
    no eta needs a special case.
    """
    _check_phi(phi)
    M = params.M
    return _q_kernel(phase_factor(phi).real, M, *_overlap_terms(M, params.eta * params.eta))


def closed_stats(phi: float, params: NBSParams) -> PhotonStats:
    """Mean, second moment, variance, and Mandel Q from the closed forms only."""
    mean = mean_closed(phi, params)
    second = second_moment_closed(phi, params)
    q = q_closed(phi, params)
    return PhotonStats(mean=mean, second_moment=second,
                       variance=mean * (q + 1.0), mandel_q=q)


def q_recursion_residual(phi: float, params: NBSParams) -> float:
    """|Q from the recursion - (<N^2>/<N> - <N> - 1)|, the moments from their closed forms.

    ``q_closed`` is the rearranged recursion <N>(pi - phi, M + 1) - <N>(phi, M);
    the reference divides ``second_moment_closed`` by ``mean_closed`` instead.
    The two routes share no formula, so a fault in either shows up here.
    """
    mean = mean_closed(phi, params)
    return abs(q_closed(phi, params) - (second_moment_closed(phi, params) / mean - mean - 1.0))


# ---------------------------------------------------------------------------
# annihilation-operator moments and quadratures
# ---------------------------------------------------------------------------

# a series term counts as negligible once it is this small against the partial sum
_SERIES_RTOL = 1e-16
# most terms (rows x padded length) one block of an eta grid holds, so that
# the 2-D arrays of a block stay small however large the grid
_BLOCK_TERMS = 1 << 14


def _series_n_hi(M: int, x: float) -> int:
    # first guess at the last index the sum needs: the terms behave like a
    # negative binomial pmf (mean M x/(1-x), sd sqrt(M x)/(1-x)) whose far
    # tail falls by a factor x a step
    mean = M * x / (1.0 - x)
    sd = math.sqrt(M * x) / (1.0 - x)
    return int(mean + 9.0 * sd - math.log(_SERIES_RTOL) / -math.log(x)) + 4


def _series_stops(t: np.ndarray, index: np.ndarray) -> np.ndarray:
    # for each row of t, the first n past the row's peak with
    # t_n <= 1e-16 (t_0 + ... + t_n), or -1; index is 0, 1, ... along a row
    done = t <= _SERIES_RTOL * t.cumsum(axis=1)
    done &= index > t.argmax(axis=1, keepdims=True)
    return np.where(done.any(axis=1), done.argmax(axis=1), -1)


def _blocks(n_his: Sequence[int]) -> Iterator[Tuple[int, int]]:
    # [start, stop) runs of consecutive rows whose largest n_hi is at most
    # twice the smallest, so padding at most doubles the work, and whose
    # padded block holds at most _BLOCK_TERMS terms (always at least one row)
    start = 0
    while start < len(n_his):
        lo = hi = n_his[start]
        stop = start + 1
        while stop < len(n_his):
            new_lo, new_hi = min(lo, n_his[stop]), max(hi, n_his[stop])
            if new_hi > 2 * new_lo or (stop + 1 - start) * (new_hi + 1) > _BLOCK_TERMS:
                break
            lo, hi, stop = new_lo, new_hi, stop + 1
        yield start, stop
        start = stop


@dataclass(frozen=True)
class _SeriesSums:
    """The phi-free parts of <a^k> and the quadratures over an eta grid at fixed (M, theta).

    ``by_power[k]`` is (E[w], O[w], E[t], O[t]) for t = w F of power k, each
    summed up to that power's own stop index; ``terms`` is
    ``_overlap_terms`` (x first) for ``_mean_kernel``; ``rotation[k]`` is
    e^{ik theta}.  A grid holds one float64 entry per eta in each of these,
    and ``sums[i]`` holds the i-th eta's entries as floats.  The methods are
    kernels that do only + - * / and squares on them, elementwise, so a grid
    and each of its one-eta rows give the same bits at every phi.
    """

    M: int
    terms: Sequence
    by_power: Dict[int, Sequence]
    rotation: Dict[int, complex]

    def __getitem__(self, i: int) -> "_SeriesSums":
        return _SeriesSums(self.M, tuple(self.terms[:, i].tolist()),
                           {k: tuple(sums[:, i].tolist()) for k, sums in self.by_power.items()},
                           self.rotation)

    def _a_pow(self, k: int, c: float, s: float):
        # (Re, Im) of <a^k> at the phase factor c + i s = e^{i phi}: the ratio
        # times e^{ik theta}, a complex product written out in CPython's order
        w_even, w_odd, t_even, t_odd = self.by_power[k]
        denom = (1.0 + c) * w_even + (1.0 - c) * w_odd
        if k % 2 == 0:
            re, im = ((1.0 + c) * t_even + (1.0 - c) * t_odd) / denom, 0.0
        else:
            re, im = 0.0, -s * (t_even - t_odd) / denom
        rot = self.rotation[k]
        return re * rot.real - im * rot.imag, re * rot.imag + im * rot.real

    def a_pow(self, k: int, phi: float) -> complex:
        """<a^k> at phi from the sums of power k of one eta."""
        unit = phase_factor(phi)
        return complex(*self._a_pow(k, unit.real, unit.imag))

    def quadratures(self, phi: float):
        """(Var X1, Var X2) at phi from the sums of powers 1 and 2, one entry per eta."""
        unit = phase_factor(phi)
        c, s = unit.real, unit.imag
        mean = _mean_kernel(c, self.M, *self.terms)
        a_re, a_im = self._a_pow(1, c, s)
        a2_re = self._a_pow(2, c, s)[0]
        var_x1 = 0.25 + 0.5 * (mean + a2_re - 2.0 * (a_re * a_re))
        var_x2 = 0.25 + 0.5 * (mean - a2_re - 2.0 * (a_im * a_im))
        return var_x1, var_x2


def _series_sums(M: int, etas: Sequence[float], theta: float = 0.0,
                 powers: Tuple[int, ...] = (1, 2),
                 policy: Optional[TruncationPolicy] = None) -> _SeriesSums:
    """The sums of every power in ``powers`` at each eta of a grid at fixed (M, theta).

    The caller has checked that (M, eta, theta) are valid ``NBSParams`` for
    every eta.  w_n = C(M+n-1, n) x^n comes from one ``_log_binomial`` row
    per pass, shared by every eta, and is scaled by each eta's largest
    term; t = w sqrt(x m), then t sqrt(x (m+1)), ... (m = M + n) gives the
    terms of powers 1, 2, ... in turn.  The etas are taken in grid order,
    in blocks (``_blocks``) evaluated as 2-D arrays padded to the block's
    longest n_hi.  Each power of each eta stops at its own index
    (``_series_stops``).  The parity sums of one power are two reductions
    of the whole block, one per parity, along the rows of the strided
    (w, t) view and masked with ``where=`` to each row's prefix up to its
    stop.  numpy passes each row's unmasked run to one inner-loop call,
    the same pairwise sum it makes of the 1-D slice of that prefix, so a
    row gets the bits of its own slice however long the block's other rows
    are.  So an eta gets the same bits in any block, and a single eta is
    the one-row case.  The sums go straight into the 4 x n arrays of
    ``_SeriesSums.by_power``.  While some power of an eta has not stopped,
    the eta runs again at doubled length, up to policy.hard_cap, and the
    powers that stopped keep their first sums; past that, ConvergenceError
    names the first such eta in grid order and its lowest such power.
    """
    policy = policy or TruncationPolicy()
    xs = [eta * eta for eta in etas]
    # sums[i]: the [(w, t), parity, eta] sums of power powers[i], and
    # stopped[i]: whether that power of each eta has stopped, so that the
    # first stop of a row wins
    sums = np.zeros((len(powers), 2, 2, len(xs)))
    stopped = np.zeros((len(powers), len(xs)), dtype=bool)
    n_hi = [min(_series_n_hi(M, x), policy.hard_cap) for x in xs]
    pending = list(range(len(xs)))
    while pending:
        size = max(n_hi[i] for i in pending) + 1
        n = np.arange(size, dtype=np.float64)
        log_binomial = _log_binomial(M, n)
        retry = []
        for start, stop in _blocks([n_hi[i] for i in pending]):
            block = pending[start:stop]
            length = max(n_hi[i] for i in block) + 1
            x = np.array([xs[i] for i in block])[:, None]
            log_x = np.array([math.log(xs[i]) for i in block])[:, None]
            log_w = log_binomial[:length] + n[:length] * log_x
            # w and t share one buffer, so that the (w, t) rows of a block
            # are one strided view
            wt = np.empty((2, len(block), length))
            w, t = wt
            # padding moves no accepted sum: a row's largest weight lies
            # before any stop index, and a row's cumsum runs in order
            np.exp(log_w - log_w.max(axis=1, keepdims=True), out=w)
            # t_n = w_n F_n, one factor eta sqrt(M+n+j) at a time so that no
            # partial product overflows before the result would
            m = n[:length] + M
            np.multiply(w, np.sqrt(x * m), out=t)
            index = np.arange(length)
            # the block's columns of the sums and stop flags: views for a run
            # of consecutive etas (pending is in grid order), as every block
            # of the first pass is, and copies, written back below, otherwise
            rows = (slice(block[0], block[-1] + 1) if block[-1] - block[0] == len(block) - 1
                    else np.array(block))
            block_sums, block_stopped = sums[..., rows], stopped[:, rows]
            for k in range(1, max(powers) + 1):
                if k > 1:
                    t *= np.sqrt(x * (m + (k - 1)))
                if k not in powers:
                    continue
                slot = powers.index(k)
                # rows that stopped in an earlier pass sum nothing
                at = np.where(block_stopped[slot], -1, _series_stops(t, index))
                new = at >= 0
                block_stopped[slot] |= new
                keep = index <= at[:, None]
                for p in (0, 1):
                    np.copyto(block_sums[slot, :, p], np.add.reduce(
                        wt[:, :, p::2], axis=2, where=keep[:, p::2]), where=new)
            sums[..., rows], stopped[:, rows] = block_sums, block_stopped
            if length <= policy.hard_cap:
                unfinished = [i for i, done in zip(block, block_stopped.all(axis=0).tolist())
                              if not done]
                for i in unfinished:
                    n_hi[i] = min(2 * (length - 1), policy.hard_cap)
                retry.extend(unfinished)
        pending = retry
    if not stopped.all():
        i = int(stopped.all(axis=0).argmin())
        missing = min(k for k, s in zip(powers, stopped[:, i]) if not s)
        raise ConvergenceError(
            f"<a^{missing}> series needed more than {policy.hard_cap} terms "
            f"at eta={etas[i]}, M={M}"
        )
    by_power = {k: sums[slot].reshape(4, len(xs)) for slot, k in enumerate(powers)}
    return _SeriesSums(M, _overlap_columns(M, xs), by_power,
                       {k: phase_factor(theta) ** k for k in powers})


def a_pow_expectation(k: int, phi: float, params: NBSParams,
                      policy: Optional[TruncationPolicy] = None) -> complex:
    """<a^k> on the superposition as a ratio of two sums over one weight series.

    With w_n = C(M+n-1, n) x^n (the negative binomial weights, up to a
    constant), F_n = prod_{j<k} eta sqrt(M+n+j), and sums E, O over even and
    odd n,

        <a^k> = e^{ik theta} ((1+c) E[wF] + (1-c) O[wF]) / D    for even k,
        <a^k> = e^{ik theta} (-i s) (E[wF] - O[wF]) / D         for odd k,

    where D = (1+c) E[w] + (1-c) O[w] = 1 + c r up to the same constant and
    c + i s = e^{i phi}. Dividing by D summed from the same terms cancels the
    constant, its rounding and the truncation.

    The sums do not depend on phi or theta, and one weight pass
    (``_series_sums``) yields them for any set of powers.  All terms up to
    n_hi are evaluated at once from one ``_log_binomial`` row, with w
    scaled by its largest term: no term exceeds 1, and the terms near the
    peak cannot underflow at large M, however small the early ones get.
    Each power's sums stop at its own index, the first n past the peak of
    t_n = w_n F_n where t_n <= 1e-16 (t_0 + ... + t_n).  If n_hi holds no
    such n, it is doubled up to policy.hard_cap, and then ConvergenceError
    is raised (the ratio test guarantees convergence for any eta < 1, but
    the term budget is finite).
    """
    k = check_integer("power k", k, 1)
    _check_phi(phi)
    return _series_sums(params.M, (params.eta,), params.theta, (k,), policy)[0].a_pow(k, phi)


def quadrature_variances(phi: float, params: NBSParams,
                         policy: Optional[TruncationPolicy] = None) -> Tuple[float, float]:
    """Variances of X1 = (a + a^dag)/2 and X2 = (a - a^dag)/(2i); vacuum level is 1/4.

    <a> and <a^2> come from one weight pass, each power summed to its own
    stop index, bit for bit what two ``a_pow_expectation`` calls give.
    """
    _check_phi(phi)
    sums = _series_sums(params.M, (params.eta,), params.theta, (1, 2), policy)[0]
    return tuple(map(float, sums.quadratures(phi)))
