"""Closed-form photon statistics for NBS parity superpositions.

Every quantity here has an independent brute-force counterpart obtained by
building the state explicitly and summing (``fock_core.oracle_stats``); the
test suite holds the two within 1e-9 relative error over a parameter grid.

Notation used throughout: x = eta^2, c = cos(phi), u = atanh(x), and
r = exp(-2 M u) is the overlap between the two superposed components.  Every
closed form divides by 1 + c r, and <N> and Q also read r1 = exp(-2(M+1)u);
both come with their expm1, so phi = pi stays accurate at small eta, where
1 - r is O(M x).  ``NBSParams`` forms these once per point, and
``_overlap_columns`` once per eta grid.  <N^2> reads u from ``NBSParams``
for its one other overlap, exp(-2(M+2)u), through ``nbs_states._overlap``.

The Mandel parameter comes from the recursion <N>(pi - phi, M + 1) - <N>(phi, M),
rearranged so that the two means of size M x / (1 - x) never cancel.

Each closed form is split in two: the transcendentals, which depend on eta
but not on phi (``NBSParams._terms``, or ``_overlap_columns`` over a grid),
and an arithmetic kernel that takes them as floats or as float64 arrays
(``_q_kernel``, ``_mean_kernel``).  The kernels take c = cos(phi) as a
float, or as a (phis, 1) column that broadcasts against the eta grid, so
one call fills a whole (phi, eta) sweep.  numpy rounds + - * / elementwise
as Python does, so each entry gets the bits its (phi, eta) pair gets alone.

<a> and <a^2> are ratios of sums over one weight series, and those sums do
not depend on phi or theta.  ``_series_sums`` sums them once per eta grid at
fixed (M, theta), for both powers and every phi: each (power, eta) pair up
to the bound ``_series_n_hi`` proves, each block of etas as ``_block_sums``
says.  ``_SeriesSums`` turns the sums into <a^k> and the quadrature
variances with the same kind of kernel as above.
"""
from __future__ import annotations

import math
import sys
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from ._frozen import Frozen
from .errors import ConvergenceError, DomainError, NumericsError, check_integer, check_real
from .fock_core import HARD_CAP_DEFAULT, PhotonStats
from .nbs_states import (NBSParams, _check_phi, _cos_phi, _log_binomial, _one_plus_c_r,
                         _overlap, _phase_factor)


def q_limit(phi: float) -> float:
    """Limit of the Mandel parameter as eta -> 0: +1, -1, or 0 by parity of the superposition."""
    c = _cos_phi(phi)
    return c if abs(c) == 1.0 else 0.0


def _pn_kernel(first: int, size: int, c: float, params: NBSParams) -> np.ndarray:
    # P(n) for n = first, ..., first + size - 1 at cos(phi) = c; +0.0 where
    # parity forbids n
    M, (_, log_x, log_1mx) = params.M, params._logs
    n = np.arange(first, first + size, dtype=np.float64)
    weight = np.exp(_log_binomial(M, n) + n * log_x + M * log_1mx)
    # 1 + c at even n, 1 - c at odd n
    parity = np.full(size, 1.0 + c)
    parity[1 - first % 2::2] = 1.0 - c
    return weight * parity / _one_plus_c_r(c, *params._terms[1:3])


def pn_closed(n: int, phi: float, params: NBSParams) -> float:
    """P(n) for the superposition; exactly 0 on the parity-forbidden indices.

    n is at most 2**53, where the float64 n the kernel reads is still exact.
    """
    n = check_integer("photon number", n, 0)
    return _pn_kernel(n, 1, _cos_phi(phi), params).item()


def pn_closed_upto(n_max: int, phi: float, params: NBSParams) -> np.ndarray:
    """P(0), ..., P(n_max) in one pass, each bit for bit equal to ``pn_closed``.

    Both run one elementwise numpy kernel, here on 0..n_max and there on
    [n], with the weight from ``nbs_states._log_binomial``.  Parity-forbidden
    entries are exactly 0.
    """
    return _pn_kernel(0, check_integer("n_max", n_max, 0) + 1, _cos_phi(phi), params)


def generating_function(lam: float, phi: float, params: NBSParams) -> float:
    """G(lambda) = sum_n lambda^n P(n), defined for |lambda| * eta^2 < 1."""
    c = _cos_phi(phi)
    lam = check_real("lam", lam)
    M, (x, r0, d0) = params.M, params._terms[:3]
    if abs(lam) * x >= 1.0:
        raise DomainError(f"generating function diverges: |lambda|*eta^2 = {abs(lam) * x} >= 1")
    log_shared = M * params._logs[2]
    try:
        g = (math.exp(log_shared - M * math.log1p(-lam * x))
             + c * math.exp(log_shared - M * math.log1p(lam * x))) / _one_plus_c_r(c, r0, d0)
    except OverflowError:
        g = math.inf
    if not math.isfinite(g):
        raise NumericsError(f"G({lam}) exceeds the float range at eta={params.eta}, M={M}")
    return g


def _overlap_columns(M: int, etas: Sequence[float]) -> np.ndarray:
    # NBSParams._terms of each eta as five float64 rows, for the column
    # kernels: the same libm calls and exponents, one map per transcendental
    xs = [eta * eta for eta in etas]
    us = list(map(math.atanh, xs))
    s0 = [-(2.0 * M * u) for u in us]
    s1 = [-(2.0 * (M + 1) * u) for u in us]
    return np.array([xs, list(map(math.exp, s0)), list(map(math.expm1, s0)),
                     list(map(math.exp, s1)), list(map(math.expm1, s1))])


def _mean_kernel(c, M: int, x, r0, d0, r1, d1):
    # <N> at cos(phi) = c from NBSParams._terms, floats or arrays of them
    return M * x * _one_plus_c_r(-c, r1, d1) / ((1.0 - x) * _one_plus_c_r(c, r0, d0))


def mean_closed(phi: float, params: NBSParams) -> float:
    """<N> = M x (1 - c exp(-2(M+1)u)) / ((1-x)(1 + c exp(-2Mu)))."""
    return _mean_kernel(_cos_phi(phi), params.M, *params._terms)


def _second_moment_kernel(c: float, params: NBSParams) -> float:
    # <N^2> at cos(phi) = c, as floats
    M, (x, r0, d0) = params.M, params._terms[:3]
    num = _one_plus_c_r(c, *_overlap(2.0 * (M + 2) * params._u))
    extra = M * (M + 1) * x * x * num / ((1.0 - x) ** 2 * _one_plus_c_r(c, r0, d0))
    return _mean_kernel(c, M, *params._terms) + extra


def second_moment_closed(phi: float, params: NBSParams) -> float:
    """<N^2> = <N> + M(M+1) x^2 (1 + c exp(-2(M+2)u)) / ((1-x)^2 (1 + c exp(-2Mu)))."""
    return _second_moment_kernel(_cos_phi(phi), params)


def _q_kernel(c, M: int, x, r0, d0, r1, d1):
    # Q at cos(phi) = c from NBSParams._terms, floats or arrays of them: the
    # arithmetic of q_closed, every phi of a sweep (c a column) over its eta
    # grid in one call
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
    return _q_kernel(_cos_phi(phi), params.M, *params._terms)


def closed_stats(phi: float, params: NBSParams) -> PhotonStats:
    """Mean, second moment, variance, and Mandel Q from the closed forms only."""
    c, M, terms = _cos_phi(phi), params.M, params._terms
    mean = _mean_kernel(c, M, *terms)
    second = _second_moment_kernel(c, params)
    q = _q_kernel(c, M, *terms)
    return PhotonStats(mean=mean, second_moment=second,
                       variance=mean * (q + 1.0), mandel_q=q)


def q_recursion_residual(phi: float, params: NBSParams) -> float:
    """|Q from the recursion - (<N^2>/<N> - <N> - 1)|, the moments from their closed forms.

    ``q_closed`` is the rearranged recursion <N>(pi - phi, M + 1) - <N>(phi, M);
    the reference divides ``second_moment_closed`` by ``mean_closed`` instead.
    The two routes share no formula, so a fault in either shows up here.
    A <N> below the normal floats (phi near 0 at tiny eta) raises NumericsError.
    """
    c, M, terms = _cos_phi(phi), params.M, params._terms
    mean = _mean_kernel(c, M, *terms)
    if mean < sys.float_info.min:
        raise NumericsError(f"<N> = {mean!r} underflows at eta={params.eta}, M={M}")
    return abs(_q_kernel(c, M, *terms) - (_second_moment_kernel(c, params) / mean - mean - 1.0))


# ---------------------------------------------------------------------------
# annihilation-operator moments and quadratures
# ---------------------------------------------------------------------------

# the last term and the tail past it of a (power, eta) pair stay within this
# fraction of its sum
_SERIES_RTOL = 1e-16
# most terms one (power, eta) pair sums, and the largest power k
_SERIES_TERMS = HARD_CAP_DEFAULT
# most terms (rows x padded length) one block of an eta grid holds, so that
# the 2-D arrays of a block stay small however large the grid: 64 KiB per
# float64 array.  On a 2-vCPU VM under a 1 GiB address-space limit, 1 << 14
# ran fig2 at M = 30..300 about 20% slower
_BLOCK_TERMS = 1 << 13


def _series_n_hi(M: int, x: np.ndarray, powers: Tuple[int, ...]) -> np.ndarray:
    # a proved [power, eta] bound on the last index each sum needs, at most
    # _SERIES_TERMS.  With m = M + n, the terms t_n = w_n F_n of power k step by
    # t_{n+1}/t_n = x m/(n+1) sqrt(1 + k/m) <= rho(n) = x (m + k/2)/(n+1),
    # which does not grow with n.  The weights w are a negative binomial pmf
    # p_n up to a constant, with mean M x/(1-x) and sd sqrt(M x)/(1-x); from
    # n1 = floor(mean + max(9 sd, k x/(2(1-x)))) + 1, rho(n1) < 1, so past n1
    # the terms fall at least geometrically.  F grows with n, so the sum S
    # is at least F_0 sum w, and t_{n1}/S <= p_{n1} F_{n1}/F_0, where p_{n1}
    # is at most the Chernoff bound ((1-x)(M+n1)/M)^M (x(M+n1)/n1)^n1 and
    # F_{n1}/F_0 at most ((M+n1)/M)^(k/2); a factor e more covers rounding.
    # n_hi is n1 plus the steps at rate rho(n1) that bring both t_{n_hi} and
    # the geometric tail past it, t_{n_hi} rho/(1-rho), to at most 1e-16 S.
    half_k = np.array(powers, dtype=np.float64)[:, None] / 2.0
    mx = M * x
    n1 = np.floor((mx + np.maximum(9.0 * np.sqrt(mx), half_k * x)) / (1.0 - x)) + 1.0
    m1 = M + n1
    rho = x * (m1 + half_k) / (n1 + 1.0)
    log_t1 = (M * np.log1p(-x) + (M + half_k) * np.log1p(n1 / M)
              + n1 * np.log(x * m1 / n1) + 1.0)
    # NaN where rho(n1) rounds to 1 or more, and those pairs get the cap;
    # capped as a float, since near eta = 1 the bound passes the range of intp
    with np.errstate(divide="ignore", invalid="ignore"):
        log_tail = np.maximum(np.log(rho / (1.0 - rho)), 0.0)
        steps = (math.log(_SERIES_RTOL) - log_t1 - log_tail) / np.log(rho)
    n_hi = np.where(rho < 1.0, n1 + np.ceil(np.maximum(steps, 0.0)), _SERIES_TERMS)
    return np.minimum(n_hi, _SERIES_TERMS).astype(np.intp)


def _blocks(n_his: Sequence[int]) -> Iterator[Tuple[int, int]]:
    # [start, stop) runs of consecutive rows whose block, padded to its
    # largest n_hi, holds at most _BLOCK_TERMS terms (always at least one row)
    start = 0
    while start < len(n_his):
        hi = n_his[start]
        stop = start + 1
        while stop < len(n_his):
            new_hi = max(hi, n_his[stop])
            if (stop + 1 - start) * (new_hi + 1) > _BLOCK_TERMS:
                break
            hi, stop = new_hi, stop + 1
        yield start, stop
        start = stop


class _SeriesSums(Frozen):
    """The phi-free parts of <a^k> and the quadratures over an eta grid at fixed (M, theta).

    ``by_power[k]`` is (E[w], O[w], E[t], O[t]) for t = w F of power k, each
    summed over 0..n_hi of that power; ``terms`` is the ``_overlap_columns``
    rows (x first) for ``_mean_kernel``; ``rotation`` is e^{i theta}.  A grid holds
    one float64 entry per eta in each of ``terms`` and the sums, so instances
    compare by identity.

    The one way in is the two kernels, ``a_pow(k, c, s)`` and
    ``quadratures(c, s)``, at a phase factor c + i s = e^{i phi} from
    ``_phase_factor``.  They do only + - * / and squares, elementwise, so
    (phis, 1) columns of c and s (``_phase_column``) broadcast to one
    (phi, eta) entry each, with the bits that pair gets alone.  ``sums[i]``
    is the i-th eta's entries as Python floats, for the one-point calls: on
    it a ``quadrature_variances`` call took 107-122 us, and 136-139 us with
    the kernels on one-element arrays (2 vCPUs, Python 3.11, numpy 2.4).
    """

    __slots__ = _fields = ("M", "terms", "by_power", "rotation")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, M: int, terms: Sequence, by_power: Dict[int, Sequence], rotation: complex):
        self._store(M=M, terms=terms, by_power=by_power, rotation=rotation)

    def __getitem__(self, i: int) -> "_SeriesSums":
        return _SeriesSums(self.M, tuple(self.terms[:, i].tolist()),
                           {k: tuple(sums[:, i].tolist()) for k, sums in self.by_power.items()},
                           self.rotation)

    def a_pow(self, k: int, c, s):
        # (Re, Im) of <a^k> at the phase factor c + i s: the ratio times
        # e^{ik theta}, a complex product written out in CPython's order
        w_even, w_odd, t_even, t_odd = self.by_power[k]
        denom = (1.0 + c) * w_even + (1.0 - c) * w_odd
        if k % 2 == 0:
            re, im = ((1.0 + c) * t_even + (1.0 - c) * t_odd) / denom, 0.0
        else:
            re, im = 0.0, -s * (t_even - t_odd) / denom
        rot = self.rotation ** k
        return re * rot.real - im * rot.imag, re * rot.imag + im * rot.real

    def quadratures(self, c, s):
        # (Var X1, Var X2) at the phase factor c + i s from the sums of powers 1 and 2
        mean = _mean_kernel(c, self.M, *self.terms)
        a_re, a_im = self.a_pow(1, c, s)
        a2_re = self.a_pow(2, c, s)[0]
        var_x1 = 0.25 + 0.5 * (mean + a2_re - 2.0 * (a_re * a_re))
        var_x2 = 0.25 + 0.5 * (mean - a2_re - 2.0 * (a_im * a_im))
        return var_x1, var_x2


def _block_sums(M: int, x: np.ndarray, log_x: np.ndarray, log_binomial: np.ndarray,
                n_hi: np.ndarray, powers: Tuple[int, ...], out: np.ndarray) -> np.ndarray:
    # the sums of every power at a block of rows (x, log x as columns), each
    # (power, row) pair over 0..n_hi[power, row] of the block's _log_binomial
    # prefix, written into out, the block's [power, (w, t), parity, row]
    # slice; returns the [power, row] mask of the pairs cut short at
    # _SERIES_TERMS whose last term t_{n_hi} is more than 1e-16 of their t
    # sums, the only pairs whose bound does not prove them converged.  Each
    # row's w is scaled by its largest term, so no term exceeds 1 and the
    # terms near the peak do not underflow at large M, however small the
    # early ones get.  The block is padded to its longest n_hi, and a power's
    # parity sums are one reduction per parity of the (w, t) view, each row
    # masked with where= to 0..n_hi, which numpy sums as the pairwise sum of
    # that 1-D slice: each row gets the bits its eta gets alone
    length = len(log_binomial)
    n = np.arange(length + max(powers) - 1, dtype=np.float64)
    log_w = log_binomial + n[:length] * log_x
    # w and t share one buffer, so that a block's (w, t) rows are one view
    w, t = wt = np.empty((2, len(x), length))
    # padding moves no sum: a row's largest weight lies before its n_hi
    np.exp(log_w - np.maximum.reduce(log_w, axis=1, keepdims=True), out=w)
    # t_n = w_n F_n, one factor eta sqrt(M+n+j) at a time: no partial product
    # overflows before the result would, which the caller checks; power j+1
    # reads the one root column shifted by j, as M + n + j is exact
    root = np.sqrt(x * (n + M))
    np.multiply(w, root[:, :length], out=t)
    open_pairs = n_hi == _SERIES_TERMS
    any_open = np.logical_or.reduce(open_pairs, axis=None)
    with np.errstate(over="ignore"):
        for k in range(1, max(powers) + 1):
            if k > 1:
                t *= root[:, k - 1:k - 1 + length]
            if k not in powers:
                continue
            slot = powers.index(k)
            keep = n[:length] <= n_hi[slot][:, None]
            for p in (0, 1):
                np.add.reduce(wt[:, :, p::2], axis=2, where=keep[:, p::2], out=out[slot, :, p])
            if any_open and open_pairs[slot].any():
                last = t[np.arange(len(x)), n_hi[slot]]
                open_pairs[slot] &= last > _SERIES_RTOL * out[slot, 1].sum(axis=0)
    return open_pairs


def _first_failure(failed: np.ndarray, powers: Tuple[int, ...]) -> Tuple[int, int]:
    # (row, lowest power) of the first row that failed in a [power, row] mask
    i = int(failed.any(axis=0).argmax())
    return i, min(k for k, f in zip(powers, failed[:, i].tolist()) if f)


def _series_sums(M: int, etas: Sequence[float], theta: float = 0.0,
                 powers: Tuple[int, ...] = (1, 2)) -> _SeriesSums:
    """The sums of every power in ``powers`` at each eta of a grid at fixed (M, theta).

    The caller has checked that (M, eta, theta) are valid ``NBSParams`` for
    every eta.  w_n = C(M+n-1, n) x^n comes from one ``_log_binomial`` row,
    and t = w sqrt(x m), then t sqrt(x (m+1)), ... (m = M + n) gives the
    terms of powers 1, 2, ... in turn.  Each (power, eta) pair sums its terms
    0..n_hi of ``_series_n_hi``.  The etas are taken in grid order, once
    each, in the blocks of ``_blocks``, each summed by ``_block_sums``; so
    each eta gets the bits it gets alone, and each power the bits it gets
    summed alone.

    A pair whose bound reaches _SERIES_TERMS is summed to that cap, and
    ConvergenceError names the first eta that ``_block_sums`` cannot prove
    converged, with its lowest such power.  Terms past the float range raise
    NumericsError at the first block that meets them.
    """
    terms = _overlap_columns(M, etas)
    x = terms[0]
    log_x = np.array(list(map(math.log, x.tolist())))
    # [power, (w, t), parity, eta] and [power, eta]
    sums = np.empty((len(powers), 2, 2, len(etas)))
    n_hi = _series_n_hi(M, x, powers)
    # each eta's largest n_hi over the powers
    row_n_hi = np.maximum.reduce(n_hi).tolist()
    row = _log_binomial(M, np.arange(max(row_n_hi, default=0) + 1, dtype=np.float64))
    for start, stop in _blocks(row_n_hi):
        open_pairs = _block_sums(M, x[start:stop, None], log_x[start:stop, None],
                                 row[:max(row_n_hi[start:stop]) + 1], n_hi[:, start:stop],
                                 powers, sums[..., start:stop])
        finite = np.isfinite(sums[:, 1, :, start:stop])
        if not np.logical_and.reduce(finite, axis=None):
            i, k = _first_failure(~finite.all(axis=1), powers)
            raise NumericsError(
                f"<a^{k}> series terms exceed the float range at eta={etas[start + i]}, M={M}")
        if np.logical_or.reduce(open_pairs, axis=None):
            i, k = _first_failure(open_pairs, powers)
            raise ConvergenceError(f"<a^{k}> series needed more than {_SERIES_TERMS} terms "
                                   f"at eta={etas[start + i]}, M={M}")
    by_power = {k: sums[slot].reshape(4, len(etas)) for slot, k in enumerate(powers)}
    return _SeriesSums(M, terms, by_power, _phase_factor(theta))


def a_pow_expectation(k: int, phi: float, params: NBSParams) -> complex:
    """<a^k> on the superposition as a ratio of two sums over one weight series.

    With w_n = C(M+n-1, n) x^n (the negative binomial weights, up to a
    constant), F_n = prod_{j<k} eta sqrt(M+n+j), and sums E, O over even and
    odd n,

        <a^k> = e^{ik theta} ((1+c) E[wF] + (1-c) O[wF]) / D    for even k,
        <a^k> = e^{ik theta} (-i s) (E[wF] - O[wF]) / D         for odd k,

    where D = (1+c) E[w] + (1-c) O[w] = 1 + c r up to the same constant and
    c + i s = e^{i phi}. Dividing by D summed from the same terms cancels the
    constant, its rounding and the truncation.

    The sums do not depend on phi or theta; they come from one
    ``_series_sums`` pass, summed as far as ``_series_n_hi`` proves enough.
    A power k past the term budget ``_SERIES_TERMS`` raises DomainError
    before any term is built, a sum the budget cuts short raises
    ConvergenceError unless it has converged, and terms past the float
    range, at large k, raise NumericsError.
    """
    k = check_integer("power k", k, 1)
    if k > _SERIES_TERMS:
        raise DomainError(f"power k must be at most {_SERIES_TERMS}, got {k}")
    unit = _phase_factor(_check_phi(phi))
    sums = _series_sums(params.M, (params.eta,), params.theta, (k,))[0]
    return complex(*sums.a_pow(k, unit.real, unit.imag))


def quadrature_variances(phi: float, params: NBSParams) -> Tuple[float, float]:
    """Variances of X1 = (a + a^dag)/2 and X2 = (a - a^dag)/(2i); vacuum level is 1/4.

    <a> and <a^2> come from one weight pass, each power summed to its own
    n_hi, bit for bit what two ``a_pow_expectation`` calls give.
    """
    unit = _phase_factor(_check_phi(phi))
    sums = _series_sums(params.M, (params.eta,), params.theta, (1, 2))[0]
    return tuple(map(float, sums.quadratures(unit.real, unit.imag)))
