"""Closed-form photon statistics against the truncated-Fock oracle.

Frozen values marked "exact rational" were derived with fractions.Fraction:
at phi = pi/2 the interference term vanishes and every moment is rational
in x = eta**2, and for phi in {0, pi} the parity overlap is rho**M with
rho = (1 - x)/(1 + x), still rational.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbstates import statistics, verification
from nbstates.errors import ConvergenceError, DomainError, NumericsError
from nbstates.fock_core import (FockVector, TruncationPolicy, apply_annihilate,
                                inner, oracle_stats)
from nbstates.nbs_states import (ETA_MIN, NBSParams, _log_binomial, _one_plus_c_r, _overlap,
                                 phase_factor, photon_distribution, required_dimension,
                                 superposition)
from nbstates.statistics import (a_pow_expectation, closed_stats, generating_function,
                                 mean_closed, pn_closed, pn_closed_upto,
                                 q_closed, q_limit, q_recursion_residual,
                                 quadrature_variances, second_moment_closed)
from nbstates.sweeps import pn_table
from test_verification import _mpmath_quadratures

ORACLE_POLICY = TruncationPolicy(tail_tolerance=1e-14)


def _oracle_superposition(phi, p):
    # the superposition sized for the oracle's tighter tail
    return superposition(phi, p, n_max=required_dimension(p, phi, ORACLE_POLICY))


def test_frozen_rationals_at_half_pi():
    # phi = pi/2, M = 2, x = 0.09: mean = 18/91, second = 2124/8281, Q = 9/91
    p = NBSParams(M=2, eta=0.3)
    assert mean_closed(math.pi / 2.0, p) == pytest.approx(18.0 / 91.0, rel=1e-15)
    assert second_moment_closed(math.pi / 2.0, p) == pytest.approx(2124.0 / 8281.0, rel=1e-15)
    assert q_closed(math.pi / 2.0, p) == pytest.approx(9.0 / 91.0, rel=1e-14)


def test_frozen_small_eta_odd_mean():
    # exact rational 5x(1 + rho^6)/((1-x)(1 - rho^5)) at x = 1e-4 rounds to this
    p = NBSParams(M=5, eta=0.01)
    assert mean_closed(math.pi, p) == pytest.approx(1.0000001400000003, rel=1e-15)
    assert mean_closed(0.0, p) == pytest.approx(2.999999830000017e-07, rel=1e-14)


def test_closed_stats_match_oracle():
    rng = np.random.default_rng(411)
    for _ in range(40):
        p = NBSParams(M=int(rng.integers(1, 40)),
                      eta=float(rng.uniform(0.05, 0.9)),
                      theta=float(rng.uniform(0.0, 2.0 * math.pi)))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        ref = oracle_stats(_oracle_superposition(phi, p))
        got = closed_stats(phi, p)
        assert got.mean == pytest.approx(ref.mean, rel=1e-11, abs=1e-13)
        assert got.second_moment == pytest.approx(ref.second_moment, rel=1e-11, abs=1e-13)
        assert got.mandel_q == pytest.approx(ref.mandel_q, rel=1e-10, abs=1e-12)


def test_pn_matches_amplitudes():
    p = NBSParams(M=7, eta=0.55, theta=1.3)
    for phi in (0.0, math.pi / 2.0, 2.2, math.pi):
        v = _oracle_superposition(phi, p)
        probs = photon_distribution(v)
        closed = np.array([pn_closed(n, phi, p) for n in range(len(v))])
        np.testing.assert_allclose(closed, probs, rtol=1e-12, atol=1e-15)


def test_pn_parity_zeros_exact():
    p = NBSParams(M=3, eta=0.4)
    assert pn_closed(1, 0.0, p) == 0.0
    assert pn_closed(7, 0.0, p) == 0.0
    assert pn_closed(0, math.pi, p) == 0.0
    assert pn_closed(4, math.pi, p) == 0.0
    assert pn_closed(2, 0.0, p) > 0.0


@pytest.mark.parametrize("M", (1, 50, 1000))
def test_pn_table_is_bit_identical_to_pn_closed(M):
    # the one-pass table (pn_table's body, here sized past the default hard
    # cap) and the per-n closed form must not drift apart
    wide = TruncationPolicy(hard_cap=10 ** 6)
    for eta in (0.05, 0.5, 0.9, 0.995):
        params = NBSParams(M=M, eta=eta)
        for phi in (0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi):
            table = pn_closed_upto(required_dimension(params, phi, wide), phi, params)
            assert table.dtype == np.float64 and table.ndim == 1
            closed = np.array([pn_closed(n, phi, params) for n in range(table.size)])
            assert np.array_equal(table.view(np.int64), closed.view(np.int64))
            forbidden = {0.0: table[1::2], math.pi: table[0::2]}.get(phi, table[:0])
            assert not forbidden.view(np.int64).any()  # +0.0 exactly


def test_pn_closed_upto_rejects_bad_size():
    p = NBSParams(M=2, eta=0.3)
    assert pn_closed_upto(0, 0.0, p).tolist() == [pn_closed(0, 0.0, p)]
    with pytest.raises(DomainError):
        pn_closed_upto(-1, 0.0, p)
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            pn_closed_upto(bad, 0.0, p)


_LARGE_M_POINTS = [(10 ** 6, 1e-3), (10 ** 8, 1e-4), (10 ** 12, 1e-6), (2 ** 53, 1e-8)]


@pytest.mark.parametrize("M, eta", _LARGE_M_POINTS)
def test_pn_at_large_m_against_mpmath(M, eta):
    # lgamma(M + n) - lgamma(M) lost M ln M * 1e-16 of the log here: 1.7e-9
    # relative at M = 1e6, 2.3e-3 at M = 1e12, and P(3) = 6.7e6 at 2**53
    mp = pytest.importorskip("mpmath").mp
    params = NBSParams(M=M, eta=eta)
    with mp.workdps(60):
        x = mp.mpf(eta) ** 2
        c = mp.cos(1.0)
        denom = 1 + c * ((1 - x) / (1 + x)) ** M
        weight = (1 - x) ** M
        for n in range(6):
            want = weight * (1 + c if n % 2 == 0 else 1 - c) / denom
            assert abs(pn_closed(n, 1.0, params) - want) <= 1e-13 * want, n
            weight *= (M + n) * x / (n + 1)


def test_pn_table_at_the_largest_m_sums_to_one():
    # the lgamma rows summed this table to 6.3e17
    table = pn_table(1.0, NBSParams(M=2 ** 53, eta=1e-8))
    assert abs(sum(table.tolist()) - 1.0) <= 1e-10


def test_pn_rejects_bad_index():
    p = NBSParams(M=2, eta=0.3)
    with pytest.raises(DomainError):
        pn_closed(-1, 0.0, p)
    with pytest.raises(DomainError):
        pn_closed(1.5, 0.0, p)
    # past 2**53 the float64 n rounds an odd n to even, and 10**400 passes
    # the float range
    huge = NBSParams(M=2 ** 53, eta=math.sqrt(0.5))
    with pytest.raises(DomainError):
        pn_closed(2 ** 53 + 1, 0.0, huge)
    with pytest.raises(DomainError):
        pn_closed(10 ** 400, 0.0, p)


def test_generating_function_normalization_and_series():
    p = NBSParams(M=4, eta=0.6)
    for phi in (0.0, math.pi / 2.0, math.pi, 4.0):
        assert generating_function(1.0, phi, p) == pytest.approx(1.0, rel=1e-14)
        # partial series against the closed form at a couple of lambdas
        for lam in (-1.0, 0.37, 2.5):
            series = sum(lam ** n * pn_closed(n, phi, p) for n in range(400))
            assert generating_function(lam, phi, p) == pytest.approx(series, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("lam, M, eta, phi", [
    (lam, M, eta, phi) for lam, M, eta in ((1.2, 10 ** 6, 0.9), (3.9, 1000, 0.5), (-3.9, 1000, 0.5))
    for phi in (0.0, math.pi)
] + [((1.0 - 1e-7) / 1e-10, 43, 1e-5, math.pi)])
def test_generating_function_overflow_is_numerics_error(lam, M, eta, phi):
    # the last case overflows only in the division by 1 + c r, which gave inf
    with pytest.raises(NumericsError):
        generating_function(lam, phi, NBSParams(M=M, eta=eta))


def test_generating_function_pole_rejected():
    p = NBSParams(M=2, eta=0.5)  # x = 0.25, radius 4
    with pytest.raises(DomainError):
        generating_function(4.0, 0.0, p)
    with pytest.raises(DomainError):
        generating_function(-5.0, 0.0, p)
    assert math.isfinite(generating_function(3.9, 0.0, p))


def test_q_limits_by_parity():
    assert q_limit(0.0) == 1.0
    assert q_limit(math.pi) == -1.0
    assert q_limit(math.pi / 2.0) == 0.0
    assert q_limit(3.0 * math.pi / 4.0) == 0.0


def test_q_series_switch_is_seamless():
    # the closed ratio and the small-x series must agree across the handover
    below = 1e-4 * 0.99
    above = 1e-4 * 1.01
    for M in (1, 5, 30):
        for phi, limit in ((0.0, 1.0), (math.pi, -1.0)):
            q_lo = q_closed(phi, NBSParams(M=M, eta=below))
            q_hi = q_closed(phi, NBSParams(M=M, eta=above))
            assert q_lo == pytest.approx(limit, abs=1e-6)
            assert q_lo == pytest.approx(q_hi, abs=1e-10)


def test_q_approaches_limit_from_series_branch():
    p = NBSParams(M=8, eta=1e-6)
    assert q_closed(0.0, p) == pytest.approx(1.0, abs=1e-10)
    assert q_closed(math.pi, p) == pytest.approx(-1.0, abs=1e-10)


def _mpmath_parity_q(phi, M, eta, mp):
    """Q of the phi = 0 (even) or phi = pi (odd) state from a 700-digit Fock sum.

    The weights are C(M+n-1, n) x^n as a running product, summed at least
    up to n = 3 so that both parity classes have a nonzero mean.  At eta
    near ETA_MIN the odd state's variance is ~1e-616 of its second moment,
    so the precision has to cover that cancellation.
    """
    with mp.workdps(700):
        x = mp.mpf(eta) ** 2
        keep = 0 if phi == 0.0 else 1
        w, n, sums = mp.mpf(1), 0, [mp.mpf(0)] * 3
        while n < 4 or n <= M * x or not w < mp.mpf(10) ** -60 * sums[1]:
            if n % 2 == keep:
                sums = [total + n ** k * w for k, total in enumerate(sums)]
            w *= (M + n) * x / (n + 1)
            n += 1
        mean = sums[1] / sums[0]
        return float((sums[2] / sums[0] - mean * mean) / mean - 1)


@pytest.mark.parametrize("M, eta", [(1e7, 9e-5), (1e8, 9e-5), (1e9, 5e-5), (1e9, 9e-5)]
                         + [(M, eta) for eta in (ETA_MIN, 1e-20, 1e-6) for M in (1, 30, 1e6)])
def test_q_at_small_eta_matches_mpmath(M, eta):
    # an earlier quadratic expansion below eta = 1e-4 gave Q = -42.7 at M = 1e9
    mp = pytest.importorskip("mpmath").mp
    M = int(M)
    for phi in (0.0, math.pi):
        got = q_closed(phi, NBSParams(M=M, eta=eta))
        ref = _mpmath_parity_q(phi, M, eta, mp)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (phi, got, ref)
        assert got >= -1.0 - 1e-15


def _mpmath_recursion_q(phi, M, eta, mp):
    """<N>(pi - phi, M + 1) - <N>(phi, M) at 200 digits, each 1 + c exp(-s) through expm1.

    c and x are the floats q_closed itself starts from.
    """
    with mp.workdps(200):
        c = mp.mpf(phase_factor(phi).real)
        x = mp.mpf(eta * eta)
        u = mp.atanh(x)

        def mean(c, M):
            def one_plus_c_exp(c, s):
                return (1 + c) + c * mp.expm1(-s)
            return M * x * one_plus_c_exp(-c, 2 * (M + 1) * u) / ((1 - x) * one_plus_c_exp(c, 2 * M * u))

        return float(mean(-c, M + 1) - mean(c, M))


@pytest.mark.parametrize("M", [1, 2, 7, 30, 300, 10 ** 3, 10 ** 4, 10 ** 6, 10 ** 8,
                               10 ** 10, 10 ** 12, 10 ** 14, 10 ** 15])
def test_q_matches_the_recursion_at_200_digits(M):
    # the two means are ~M x / (1 - x) each; subtracting them in floats gave
    # Q = 0.375 for the true 1/3 at M = 1e15, eta = 0.5, phi = 0
    mp = pytest.importorskip("mpmath").mp
    for eta in (1e-150, 1e-60, 1e-20, 1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.9, 0.99):
        for phi in (0.0, 1.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi, 5.0):
            got = q_closed(phi, NBSParams(M=M, eta=eta))
            ref = _mpmath_recursion_q(phi, M, eta, mp)
            assert abs(got - ref) <= 2e-15 * max(1.0, abs(ref)), (eta, phi, got, ref)


def test_recursion_residual_small_on_grid():
    for M in (1, 4, 25):
        for eta in (0.1, 0.45, 0.85):
            for phi in (0.0, 1.0, math.pi / 2.0, math.pi, 5.0):
                r = q_recursion_residual(phi, NBSParams(M=M, eta=eta))
                assert r < 1e-11


@pytest.mark.parametrize("eta", (1e-100, 1e-79))
def test_recursion_residual_with_an_underflowing_mean_is_numerics_error(eta):
    # at phi = 0, <N> ~ 2 (M + 1) x^2: 0 at eta = 1e-100, subnormal at 1e-79
    with pytest.raises(NumericsError, match=f"underflows at eta={eta}, M=1$"):
        q_recursion_residual(0.0, NBSParams(M=1, eta=eta))


def test_recursion_residual_sees_a_wrong_mean(monkeypatch):
    # the moments go through _mean_kernel and q_closed does not; shift its M
    # and the residual and the verify check built on it must notice
    exact = statistics._mean_kernel
    monkeypatch.setattr(statistics, "_mean_kernel", lambda c, M, *terms: exact(c, M + 1e-3, *terms))
    assert q_recursion_residual(1.0, NBSParams(M=4, eta=0.45)) > 1e-6
    assert not verification.check_recursion_identity(1.0).passed


def _a_pow_oracle(v: FockVector, k: int) -> complex:
    lowered = v
    for _ in range(k):
        lowered = apply_annihilate(lowered)
    return inner(v, lowered)


def test_a_pow_matches_ladder_oracle():
    rng = np.random.default_rng(7113)
    for _ in range(25):
        p = NBSParams(M=int(rng.integers(1, 20)),
                      eta=float(rng.uniform(0.05, 0.85)),
                      theta=float(rng.uniform(0.0, 2.0 * math.pi)))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        k = int(rng.integers(1, 4))
        v = _oracle_superposition(phi, p)
        want = _a_pow_oracle(v, k)
        got = a_pow_expectation(k, phi, p)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_a_pow_frozen_value():
    got = a_pow_expectation(2, math.pi / 4.0, NBSParams(M=3, eta=0.5, theta=0.7))
    assert got == pytest.approx(0.18088623018518232 + 1.048757328345757j, rel=1e-13)


def test_odd_moment_vanishes_on_parity_eigenstates():
    # phi = 0 and pi give definite parity, so <a> is identically zero
    p = NBSParams(M=6, eta=0.7, theta=0.9)
    assert a_pow_expectation(1, 0.0, p) == 0.0
    assert a_pow_expectation(1, math.pi, p) == 0.0
    assert abs(a_pow_expectation(1, math.pi / 2.0, p)) > 0.0


def test_a_pow_rejects_bad_power():
    p = NBSParams(M=2, eta=0.3)
    # a power past the term budget is refused before any array is built
    for k in (0, -1, 1.5, 20001, 10 ** 18):
        with pytest.raises(DomainError):
            a_pow_expectation(k, 0.0, p)


def test_a_pow_term_budget_enforced():
    with pytest.raises(ConvergenceError):
        a_pow_expectation(1, 0.0, NBSParams(M=10, eta=0.999))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("M, eta", [(2**53, 0.9999), (2000, 0.9999999999999999)])
def test_a_priori_bound_past_the_intp_range_is_convergence_error(M, eta):
    # the a-priori n_hi here is 4.5e19 and 1.1e19, past 2**63: it must be
    # capped at the term budget, not wrap to a negative index on its way to intp;
    # in a grid, next to an eta of a few terms, it is the row that fails
    message = rf"^<a\^{{}}> series needed more than 20000 terms at eta={eta}, M={M}$"
    with pytest.raises(ConvergenceError, match=message.format(1)):
        quadrature_variances(0.5, NBSParams(M=M, eta=eta))
    with pytest.raises(ConvergenceError, match=message.format(2)):
        a_pow_expectation(2, 0.5, NBSParams(M=M, eta=eta))
    with pytest.raises(ConvergenceError, match=message.format(1)):
        statistics._series_sums(M, (1e-8, eta, 1e-8))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", (400, 401))
def test_a_pow_past_the_float_range_is_numerics_error(k):
    # at M = 5, eta = 0.5 the t sums of k = 300 are 7.0e227 and those of
    # k = 400 pass the float range: an error naming the power, not NaN or a
    # warning
    params = NBSParams(M=5, eta=0.5)
    assert np.isfinite(a_pow_expectation(300, 0.0, params))
    with pytest.raises(NumericsError, match=rf"^<a\^{k}> series .* float range at eta=0\.5, M=5$"):
        a_pow_expectation(k, 0.0, params)


_SUMS_GRID = [(M, eta, theta) for M in (1, 7, 50, 300, 1000)
              for eta in (0.02, 0.3, 0.7, 0.9) for theta in (0.0, 0.7)]
_SUMS_PHIS = (0.0, math.pi / 4.0, math.pi / 2.0, 2.0, math.pi, 2.0 * math.pi)


def _one_eta_sums(params, powers):
    # the series sums at one (M, eta, theta): the one-row case of a grid
    return statistics._series_sums(params.M, (params.eta,), params.theta, powers)[0]


@pytest.mark.parametrize("M, eta, theta", _SUMS_GRID)
def test_series_sums_reproduce_a_pow_and_quadratures_bit_for_bit(M, eta, theta):
    params = NBSParams(M=M, eta=eta, theta=theta)
    sums = _one_eta_sums(params, (1, 2, 3))
    for k in (1, 2, 3):
        # each power keeps the stop index it has when summed alone
        assert sums.by_power[k] == _one_eta_sums(params, (k,)).by_power[k]
    for phi in _SUMS_PHIS:
        unit = phase_factor(phi)
        for k in (1, 2, 3):
            got = complex(*sums.a_pow(k, unit.real, unit.imag))
            assert got == a_pow_expectation(k, phi, params)
        assert sums.quadratures(unit.real, unit.imag) == quadrature_variances(phi, params)


def _one_pair_terms(M, x, k, n_hi):
    # the float64 terms w and t of power k over 0..n_hi of one eta on 1-D
    # arrays, as a block computes them
    n = np.arange(n_hi + 1, dtype=np.float64)
    log_w = _log_binomial(M, n) + n * math.log(x)
    w = np.exp(log_w - log_w.max())
    t = w
    for j in range(k):
        t = t * np.sqrt(x * (n + (M + j)))
    return w, t


def _per_eta_loop(M, eta, powers):
    # the series of one eta on 1-D arrays: each power sums its terms 0..n_hi,
    # n_hi the a-priori bound of that eta and power alone, and a power cut
    # short at the term budget must have its last term at most 1e-16 of its
    # sum; the reference the grid pass must match bit for bit
    x = eta * eta
    cap = statistics._SERIES_TERMS
    by_power = {}
    for k in powers:
        n_hi = int(statistics._series_n_hi(M, np.array([x]), (k,))[0, 0])
        w, t = _one_pair_terms(M, x, k, n_hi)
        sums = tuple(float(np.add.reduce(a[p::2])) for a in (w, t) for p in (0, 1))
        if n_hi == cap and t[-1] > 1e-16 * (sums[2] + sums[3]):
            raise ConvergenceError(f"<a^{k}> at eta={eta}")
        by_power[k] = sums
    return by_power


@pytest.mark.parametrize("M", (1, 7, 50, 300, 1000))
def test_series_grid_matches_the_per_eta_loop(M):
    # blocks of the default grid pad rows of different lengths, and the
    # etas out of order at its end must come out the same as well
    etas = [0.02 + 0.01 * i for i in range(94)] + [0.9, 0.05, 0.6, 1e-3]
    for eta, row in zip(etas, statistics._series_sums(M, etas, powers=(1, 2, 3))):
        assert row.by_power == _per_eta_loop(M, eta, (1, 2, 3))


def _recording_block_sums(calls):
    # _block_sums that appends each call's (rows, padded length) to calls
    block_sums = statistics._block_sums

    def recorded(M, x, log_x, log_binomial, *rest):
        calls.append((len(x), len(log_binomial)))
        return block_sums(M, x, log_x, log_binomial, *rest)
    return recorded


def test_series_blocks_keep_the_block_bound(monkeypatch):
    # 3000 etas at M = 50 span n_hi from 7 to 2493, so the grid is cut into
    # 83 blocks of many lengths, the largest 8192 terms: each block must
    # stay within _BLOCK_TERMS (or be one row), and each row must be what its
    # eta gives alone
    etas = [0.01 + 0.96 * i / 2999 for i in range(3000)]
    shapes = []
    with monkeypatch.context() as patch:
        patch.setattr(statistics, "_block_sums", _recording_block_sums(shapes))
        rows = statistics._series_sums(50, etas)
    lengths = [length for _, length in shapes]
    assert len(set(lengths)) > 5 and sum(n_rows for n_rows, _ in shapes) == 3000
    for n_rows, length in shapes:
        assert n_rows * length <= statistics._BLOCK_TERMS or n_rows == 1
    for eta, row in zip(etas, rows):
        assert row.by_power == _one_eta_sums(NBSParams(M=50, eta=eta), (1, 2)).by_power


_BOUND_POWERS = (1, 2, 3, 7)


def _bound_grids():
    # a seeded random domain: M log-uniform up to 1e5, half the etas uniform
    # on (0, 1) and half log-uniform down to ETA_MIN; then the point where a
    # heuristic n_hi of 11 was too short
    rng = np.random.default_rng(20)
    for _ in range(200):
        M = int(round(10.0 ** rng.uniform(0.0, 5.0)))
        etas = [float(e) for e in rng.uniform(0.0, 1.0, 10)]
        etas += [float(10.0 ** e) for e in rng.uniform(math.log10(ETA_MIN), 0.0, 10)]
        yield M, [max(eta, ETA_MIN) for eta in etas]
    yield 3000, [0.008]


def test_series_n_hi_is_a_proved_bound(monkeypatch):
    # every (power, eta) pair the a-priori bound does not cut at the budget:
    # its float64 terms have t_{n_hi} and the geometric tail past it,
    # t_{n_hi} rho/(1 - rho) with rho = x (M + n_hi + k/2)/(n_hi + 1), at most
    # 1e-16 of the sum; and the grid of the etas whose pairs all pass runs
    # _block_sums exactly once per block of _blocks(n_hi)
    cap = statistics._SERIES_TERMS
    checked = 0
    for M, etas in _bound_grids():
        x = np.array([eta * eta for eta in etas])
        n_hi = statistics._series_n_hi(M, x, _BOUND_POWERS)
        for slot, k in enumerate(_BOUND_POWERS):
            for xi, stop in zip(x.tolist(), n_hi[slot].tolist()):
                if stop >= cap:
                    continue
                _, t = _one_pair_terms(M, xi, k, stop)
                total = float(np.sum(t))
                rho = xi * (M + stop + k / 2.0) / (stop + 1.0)
                assert rho < 1.0, (M, xi, k)
                # scaled up, since 1e-16 of a subnormal sum rounds to 0
                assert t[-1] * 1e16 <= total, (M, xi, k)
                assert t[-1] * rho / (1.0 - rho) * 1e16 <= total, (M, xi, k)
                checked += 1
        inside = (n_hi < cap).all(axis=0)
        grid = [eta for eta, ok in zip(etas, inside.tolist()) if ok]
        shapes = []
        with monkeypatch.context() as patch:
            patch.setattr(statistics, "_block_sums", _recording_block_sums(shapes))
            statistics._series_sums(M, grid, powers=_BOUND_POWERS)
        row_n_hi = n_hi[:, inside].max(axis=0)
        blocks = list(statistics._blocks(row_n_hi.tolist()))
        assert shapes == [(stop - start, int(row_n_hi[start:stop].max()) + 1)
                          for start, stop in blocks]
    assert checked > 15000


@settings(derandomize=True, max_examples=40, deadline=None)
@given(M=st.integers(1, 1000), etas=st.lists(st.floats(ETA_MIN, 0.95), min_size=1, max_size=5),
       theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
# a heuristic n_hi of 11 was too short at eta = 0.008; in the grid a shorter
# row sits between two such rows
@example(M=3000, etas=[0.008], theta=0.0)
@example(M=3000, etas=[0.008, 0.02, 0.008], theta=0.0)
def test_series_rows_and_powers_keep_their_bits(M, etas, theta):
    # the invariants the a-priori n_hi rests on: each grid row is its one-eta
    # call, and each power summed with (1, 2, 3) is that power summed alone
    grid = statistics._series_sums(M, etas, theta, (1, 2, 3))
    for eta, row in zip(etas, grid):
        params = NBSParams(M=M, eta=eta, theta=theta)
        alone = _one_eta_sums(params, (1, 2, 3))
        for k in (1, 2, 3):
            assert _bits(row.by_power[k]) == _bits(alone.by_power[k]), (eta, k)
            assert _bits(_one_eta_sums(params, (k,)).by_power[k]) == _bits(alone.by_power[k])


def test_quadratures_name_the_power_that_ran_out_of_terms(monkeypatch):
    # 28 terms hold <a> at M = 1, eta = 0.5 but not <a^2>
    p = NBSParams(M=1, eta=0.5)
    monkeypatch.setattr(statistics, "_SERIES_TERMS", 28)
    a_pow_expectation(1, 0.0, p)
    with pytest.raises(ConvergenceError) as err:
        quadrature_variances(0.0, p)
    assert str(err.value) == "<a^2> series needed more than 28 terms at eta=0.5, M=1"


def test_series_grid_names_the_first_eta_that_ran_out_of_terms(monkeypatch):
    # at M = 1 and 28 terms, eta = 0.3 converges, 0.5 runs out at <a^2> and
    # 0.7 already at <a>: the grid names the first failing eta in grid order
    monkeypatch.setattr(statistics, "_SERIES_TERMS", 28)
    statistics._series_sums(1, (0.3,))
    with pytest.raises(ConvergenceError, match=r"^<a\^1> series .* at eta=0\.7, M=1$"):
        statistics._series_sums(1, (0.7,))
    with pytest.raises(ConvergenceError) as err:
        statistics._series_sums(1, (0.3, 0.5, 0.7))
    assert str(err.value) == "<a^2> series needed more than 28 terms at eta=0.5, M=1"


def _bits(values):
    # float.hex tells -0.0 from 0.0, so equal lists mean equal bits
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("parity", (0, 1))
def test_paired_row_reduction_matches_one_dimensional_slices(parity):
    # the series sums the (w, t) rows of a block with one reduction per
    # parity along axis 2 of a strided view, each row masked by where= to the
    # prefix up to its own stop; numpy must sum each masked row as the 1-D
    # reduction of that row's slice does, or a grid would move digits against
    # one eta alone.  Rows here stop at the length'th term of the parity, at
    # about a third of it, never (masked out, so 0), and at the last term, past
    # numpy's 8192-element buffer.
    rng = np.random.default_rng(12)
    w, t = np.exp(rng.normal(0.0, 8.0, size=(2, 4, 20002)))
    wt = np.stack((w, t))
    index = np.arange(wt.shape[2])
    for length in [*range(1, 401), 1000, 4097, 8193, 10001]:
        at = np.array([parity + 2 * (length - 1), parity + 2 * ((length - 1) // 3), -1,
                       wt.shape[2] - 2 + parity])
        keep = index <= at[:, None]
        masked = np.add.reduce(wt[:, :, parity::2], axis=2, where=keep[:, parity::2])
        for j, stop in enumerate(at.tolist()):
            expected = [np.add.reduce(row[j, parity:stop + 1:2]) if stop >= 0 else 0.0
                        for row in (w, t)]
            assert _bits(masked[:, j]) == _bits(expected), (length, j)


_KERNEL_PHIS = st.one_of(
    st.sampled_from((0.0, -0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi, 2.0 * math.pi)),
    st.floats(0.0, 2.0 * math.pi))
_KERNEL_THETAS = st.one_of(
    st.sampled_from((0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True))


# c = 1, 0, -1/sqrt(2), -1 and cos(0.4) > 0 in one column
_MIXED_PHIS = [0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi, 0.4]


def _phase_columns(phis):
    # (cos, sin) of each phi as (len(phis), 1) float64 columns, the shape a
    # sweep hands the kernels
    units = [phase_factor(phi) for phi in phis]
    return (np.array([[u.real] for u in units]), np.array([[u.imag] for u in units]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(M=st.integers(1, 2 ** 53), etas=st.lists(st.floats(ETA_MIN, 0.95), min_size=1, max_size=6),
       phis=st.lists(_KERNEL_PHIS, min_size=1, max_size=5))
@example(M=30, etas=[1e-3, 0.02, 0.5, 0.95], phis=_MIXED_PHIS)
def test_q_column_kernel_matches_q_closed_bit_for_bit(M, etas, phis):
    # every phi of the column in one kernel call, each row the bits of
    # q_closed at that phi
    terms = statistics._overlap_columns(M, etas)
    table = statistics._q_kernel(_phase_columns(phis)[0], M, *terms)
    assert table.shape == (len(phis), len(etas))
    for phi, row in zip(phis, table):
        assert _bits(row) == _bits(q_closed(phi, NBSParams(M=M, eta=eta)) for eta in etas), phi


@settings(derandomize=True, max_examples=60, deadline=None)
@given(M=st.integers(1, 1000), etas=st.lists(st.floats(ETA_MIN, 0.95), min_size=1, max_size=6),
       theta=_KERNEL_THETAS, phis=st.lists(_KERNEL_PHIS, min_size=1, max_size=5))
@example(M=30, etas=[1e-3, 0.02, 0.5, 0.95], theta=0.7, phis=_MIXED_PHIS)
def test_series_column_kernels_match_the_one_eta_calls_bit_for_bit(M, etas, theta, phis):
    # every phi of the column in one kernel call, each row the bits of the
    # one-eta calls at that phi
    sums = statistics._series_sums(M, etas, theta)
    c, s = _phase_columns(phis)
    params = [NBSParams(M=M, eta=eta, theta=theta) for eta in etas]
    for k in (1, 2):
        re, im = sums.a_pow(k, c, s)
        for phi, re_row, im_row in zip(phis, re, im):
            one = [a_pow_expectation(k, phi, p) for p in params]
            assert _bits(re_row) == _bits(a.real for a in one), (phi, k)
            assert _bits(im_row) == _bits(a.imag for a in one), (phi, k)
    var_x1, var_x2 = sums.quadratures(c, s)
    assert var_x1.shape == var_x2.shape == (len(phis), len(etas))
    for phi, x1_row, x2_row in zip(phis, var_x1, var_x2):
        one = [quadrature_variances(phi, p) for p in params]
        assert _bits(x1_row) == _bits(v for v, _ in one), phi
        assert _bits(x2_row) == _bits(v for _, v in one), phi


def _row_q(c, M, x):
    # Q from one eta's floats with the math module, written as a per-row
    # reference for the column kernel
    u = math.atanh(x)
    s0 = 2.0 * M * u
    s1 = 2.0 * (M + 1) * u
    pair = (M + 1) * math.exp(-s1) / _one_plus_c_r(-c, *_overlap(s1)) \
        + M * math.exp(-s0) / _one_plus_c_r(c, *_overlap(s0))
    return x / (1.0 - x) * (1.0 + 2.0 * c / (1.0 + x) * pair)


def _row_quadratures(row, phi, params):
    # (<a>, <a^2>, Var X1, Var X2) from one eta's sums with Python complex
    # arithmetic: the per-row reference for the column kernels
    unit = phase_factor(phi)
    c, s = unit.real, unit.imag
    moments = []
    for k in (1, 2):
        w_even, w_odd, t_even, t_odd = row.by_power[k]
        denom = (1.0 + c) * w_even + (1.0 - c) * w_odd
        if k % 2 == 0:
            ratio = complex(((1.0 + c) * t_even + (1.0 - c) * t_odd) / denom)
        else:
            ratio = complex(0.0, -s * (t_even - t_odd) / denom)
        moments.append(ratio * phase_factor(params.theta) ** k)
    ea, ea2 = moments
    mean = mean_closed(phi, params)
    return (ea, ea2, 0.25 + 0.5 * (mean + ea2.real - 2.0 * (ea.real * ea.real)),
            0.25 + 0.5 * (mean - ea2.real - 2.0 * (ea.imag * ea.imag)))


_ROW_PHIS = (0.0, 0.4, math.pi / 2.0, 2.0, 3.0 * math.pi / 4.0, math.pi, 4.0, 2.0 * math.pi)


@pytest.mark.parametrize("M", (1, 7, 50, 300, 2 ** 40))
def test_q_kernel_matches_the_per_row_formula(M):
    etas = np.linspace(1e-3, 0.95, 200).tolist()
    terms = statistics._overlap_columns(M, etas)
    for phi in _ROW_PHIS:
        c = phase_factor(phi).real
        assert _bits(statistics._q_kernel(c, M, *terms)) == \
            _bits(_row_q(c, M, eta * eta) for eta in etas), phi


@pytest.mark.parametrize("M", (1, 7, 50, 300))
@pytest.mark.parametrize("theta", (0.0, 0.7, 2.0))
def test_series_kernels_match_the_per_row_complex_arithmetic(M, theta):
    etas = np.linspace(1e-3, 0.95, 200).tolist()
    sums = statistics._series_sums(M, etas, theta)
    rows = [(sums[i], NBSParams(M=M, eta=eta, theta=theta)) for i, eta in enumerate(etas)]
    for phi in _ROW_PHIS:
        unit = phase_factor(phi)
        want = [_row_quadratures(row, phi, params) for row, params in rows]
        for k, index in ((1, 0), (2, 1)):
            re, im = sums.a_pow(k, unit.real, unit.imag)
            assert _bits(re) == _bits(w[index].real for w in want), (phi, k)
            assert _bits(im) == _bits(w[index].imag for w in want), (phi, k)
        var_x1, var_x2 = sums.quadratures(unit.real, unit.imag)
        assert _bits(var_x1) == _bits(w[2] for w in want), phi
        assert _bits(var_x2) == _bits(w[3] for w in want), phi


def test_quadrature_frozen_and_squeezed():
    v1, v2 = quadrature_variances(0.0, NBSParams(M=50, eta=0.1))
    assert v1 == pytest.approx(0.621712493522705, rel=1e-13)
    assert v2 == pytest.approx(0.11437624805533503, rel=1e-13)
    assert v2 < 0.25 < v1


def test_quadratures_match_oracle():
    rng = np.random.default_rng(952)
    for _ in range(15):
        p = NBSParams(M=int(rng.integers(1, 30)),
                      eta=float(rng.uniform(0.05, 0.8)),
                      theta=float(rng.uniform(0.0, 2.0 * math.pi)))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        v = _oracle_superposition(phi, p)
        mean = oracle_stats(v).mean
        ea = _a_pow_oracle(v, 1)
        ea2 = _a_pow_oracle(v, 2)
        want1 = 0.25 + 0.5 * (mean + ea2.real - 2.0 * ea.real ** 2)
        want2 = 0.25 + 0.5 * (mean - ea2.real - 2.0 * ea.imag ** 2)
        got1, got2 = quadrature_variances(phi, p)
        assert got1 == pytest.approx(want1, rel=1e-10, abs=1e-12)
        assert got2 == pytest.approx(want2, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# large M: the series terms far below the peak underflow a plain sum
# ---------------------------------------------------------------------------

def _fock_quadratures(M, eta, phi, theta=0.0):
    """(Var X1, Var X2) summed over a Fock vector built without nbstates.

    log|c_n| is a running sum of 0.5*log((M+n-1)/n) + log(eta), so no gamma
    function enters, and the vector runs 40 standard deviations past the mean.
    """
    x = eta * eta
    n_max = int(M * x / (1.0 - x) + 40.0 * math.sqrt(M * x) / (1.0 - x) + 60.0)
    n = np.arange(n_max + 1, dtype=np.float64)
    steps = 0.5 * np.log((M + n[1:] - 1.0) / n[1:]) + math.log(eta)
    logmag = np.concatenate(([0.0], np.cumsum(steps)))
    amps = np.exp(logmag - logmag.max() + 1j * theta * n) \
        * (1.0 + complex(math.cos(phi), math.sin(phi)) * (-1.0) ** n)
    amps /= np.linalg.norm(amps)
    assert np.abs(amps[-3:]).max() < 1e-15
    mean = float(np.sum(n * np.abs(amps) ** 2))
    ea = np.vdot(amps[:-1], np.sqrt(n[1:]) * amps[1:])
    ea2 = np.vdot(amps[:-2], np.sqrt(n[1:-1] * n[2:]) * amps[2:])
    return (0.25 + 0.5 * (mean + ea2.real - 2.0 * ea.real ** 2),
            0.25 + 0.5 * (mean - ea2.real - 2.0 * ea.imag ** 2))


@pytest.mark.parametrize("M, eta, phi, theta", [
    (1000, 0.9, 0.0, 0.0),  # once printed var_x2 = 2131.83 instead of 0.0475
    # a plain sum of exp(log t_n) first went wrong at M = 455 (eta 0.9) and
    # M = 325 (eta 0.95)
    (450, 0.9, 0.0, 0.0),
    (455, 0.9, 0.0, 0.0),
    (455, 0.9, math.pi, 0.0),
    (455, 0.9, 2.0, 1.1),
    (320, 0.95, 0.0, 0.0),
    (325, 0.95, 0.0, 0.0),
    (325, 0.95, math.pi, 0.0),
    (325, 0.95, 3.0 * math.pi / 4.0, 0.0),
])
def test_quadratures_past_term_underflow_match_fock(M, eta, phi, theta):
    got = quadrature_variances(phi, NBSParams(M=M, eta=eta, theta=theta))
    want = _fock_quadratures(M, eta, phi, theta)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-9 * max(1.0, abs(w))


@pytest.mark.parametrize("eta", [1e-3, 1e-2])
def test_quadratures_huge_m_small_eta_in_bounded_memory(eta):
    M = 10 ** 6
    for phi in (0.0, math.pi / 2.0, math.pi):
        tracemalloc.start()
        try:
            got = quadrature_variances(phi, NBSParams(M=M, eta=eta))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # nothing may scale with M: a table over 0..M alone would be 8 MB
        assert peak < 1_000_000
        want = _fock_quadratures(M, eta, phi)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(1.0, abs(w))


@pytest.mark.parametrize("M, eta", [(300, 0.9122), (300, 0.9422), (300, 0.9495), (1000, 0.93),
                                    (1000, 0.95)])
def test_var_x2_against_mpmath_fock_sum(M, eta):
    # Var X2 cancels two numbers of size M x/(1-x) against the closed-form
    # <N>: a series tail of 1e-16 left out shows up here as 3e-12 to 4e-12
    # at M = 1000, for the even state (phi = 0) as for the odd one (pi)
    mp = pytest.importorskip("mpmath").mp
    for phi, (_, want) in _mpmath_quadratures(M, eta, mp).items():
        got = quadrature_variances(phi, NBSParams(M=M, eta=eta))[1]
        assert abs(got - want) <= 2e-12, phi
